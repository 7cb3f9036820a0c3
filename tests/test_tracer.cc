// Tests for the in-process tracer and span lifecycle.
#include "trace/tracer.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.h"

namespace sora {
namespace {

TEST(Tracer, SingleSpanTrace) {
  Tracer tracer;
  std::vector<Trace> done;
  tracer.add_trace_listener([&](const Trace& t) { done.push_back(t); });

  const TraceId tid = tracer.begin_trace(3, 100);
  const SpanRef root =
      tracer.start_span(tid, SpanRef{}, ServiceId(1), InstanceId(7), 3, 100);
  EXPECT_EQ(root.trace, tid);
  EXPECT_EQ(root.slot, 0u);
  EXPECT_EQ(tracer.open_traces(), 1u);
  tracer.finish_span(root, 500);

  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(tracer.open_traces(), 0u);
  EXPECT_EQ(tracer.traces_completed(), 1u);
  const Trace& t = done.front();
  EXPECT_EQ(t.request_class, 3);
  EXPECT_EQ(t.start, 100);
  EXPECT_EQ(t.end, 500);
  EXPECT_EQ(t.response_time(), 400);
  ASSERT_EQ(t.spans.size(), 1u);
  EXPECT_EQ(t.root().id, root.id);
  EXPECT_EQ(t.root().service, ServiceId(1));
  EXPECT_EQ(t.root().instance, InstanceId(7));
  EXPECT_EQ(t.root().duration(), 400);
}

TEST(Tracer, NestedSpans) {
  Tracer tracer;
  std::vector<Trace> done;
  tracer.add_trace_listener([&](const Trace& t) { done.push_back(t); });

  const TraceId tid = tracer.begin_trace(0, 0);
  const SpanRef root =
      tracer.start_span(tid, SpanRef{}, ServiceId(0), InstanceId(0), 0, 0);
  const SpanRef child =
      tracer.start_span(tid, root, ServiceId(1), InstanceId(1), 0, 10);
  EXPECT_EQ(child.slot, 1u);
  tracer.span(root).children.push_back(
      ChildCall{child.id, 0, 10, 0, false, child.slot});
  tracer.finish_span(child, 60);
  tracer.span(root).children[0].returned = 60;
  tracer.span(root).downstream_wait = 50;
  tracer.finish_span(root, 100);

  ASSERT_EQ(done.size(), 1u);
  const Trace& t = done.front();
  ASSERT_EQ(t.spans.size(), 2u);
  EXPECT_EQ(t.spans[0].processing_time(), 50);  // 100 - 50 downstream
  EXPECT_EQ(t.spans[1].duration(), 50);
  EXPECT_EQ(t.spans[1].parent, root.id);
  EXPECT_EQ(t.spans[1].parent_slot, root.slot);
  EXPECT_EQ(t.spans[0].children[0].slot, child.slot);
}

TEST(Tracer, SpanListenerFiresPerSpan) {
  Tracer tracer;
  std::vector<std::uint64_t> services;
  tracer.add_span_listener(
      [&](const Span& s) { services.push_back(s.service.value()); });

  const TraceId tid = tracer.begin_trace(0, 0);
  const SpanRef root =
      tracer.start_span(tid, SpanRef{}, ServiceId(10), InstanceId(0), 0, 0);
  const SpanRef child =
      tracer.start_span(tid, root, ServiceId(20), InstanceId(0), 0, 5);
  tracer.finish_span(child, 50);
  tracer.finish_span(root, 90);

  // Child finishes before root; listener sees both in completion order.
  ASSERT_EQ(services.size(), 2u);
  EXPECT_EQ(services[0], 20u);
  EXPECT_EQ(services[1], 10u);
}

TEST(Tracer, ConcurrentTraces) {
  Tracer tracer;
  int completed = 0;
  tracer.add_trace_listener([&](const Trace&) { ++completed; });

  const TraceId a = tracer.begin_trace(0, 0);
  const TraceId b = tracer.begin_trace(1, 10);
  const SpanRef ra =
      tracer.start_span(a, SpanRef{}, ServiceId(0), InstanceId(0), 0, 0);
  const SpanRef rb =
      tracer.start_span(b, SpanRef{}, ServiceId(0), InstanceId(0), 1, 10);
  EXPECT_EQ(tracer.open_traces(), 2u);
  tracer.finish_span(rb, 20);
  EXPECT_EQ(completed, 1);
  tracer.finish_span(ra, 30);
  EXPECT_EQ(completed, 2);
  EXPECT_EQ(tracer.open_traces(), 0u);
}

TEST(Tracer, SpanIdsAreUniqueAcrossTraces) {
  Tracer tracer;
  const TraceId a = tracer.begin_trace(0, 0);
  const TraceId b = tracer.begin_trace(0, 0);
  const SpanRef s1 =
      tracer.start_span(a, SpanRef{}, ServiceId(0), InstanceId(0), 0, 0);
  const SpanRef s2 =
      tracer.start_span(b, SpanRef{}, ServiceId(0), InstanceId(0), 0, 0);
  EXPECT_NE(s1.id, s2.id);
  // Slots are per trace: both roots sit at slot 0.
  EXPECT_EQ(s1.slot, 0u);
  EXPECT_EQ(s2.slot, 0u);
}

TEST(Tracer, TraceIdsMonotone) {
  Tracer tracer;
  const TraceId a = tracer.begin_trace(0, 0);
  const TraceId b = tracer.begin_trace(0, 0);
  EXPECT_LT(a, b);
}

// A 501-span trace (root, 10 parallel groups of 25 calls, one grandchild
// each) built interleaved with a second live trace, the way concurrent
// requests share one tracer. Every handle must address its own span, and a
// handle taken early must still address the same span after hundreds of
// appends to either trace.
TEST(SpanRef, LargeInterleavedTracesAddressTheIntendedSpans) {
  Tracer tracer;
  std::vector<Trace> done;
  tracer.add_trace_listener([&](const Trace& t) { done.push_back(t); });
  std::vector<SpanId> reported;
  tracer.add_span_listener([&](const Span& s) { reported.push_back(s.id); });

  constexpr int kGroups = 10;
  constexpr int kCalls = 25;
  const TraceId a = tracer.begin_trace(0, 0);
  const TraceId b = tracer.begin_trace(1, 0);
  // Service id = creation index within the trace, so each span is
  // recognisable; trace b's services are offset by 10000.
  std::vector<SpanRef> a_refs;
  std::vector<SpanRef> b_refs;
  a_refs.push_back(
      tracer.start_span(a, SpanRef{}, ServiceId(0), InstanceId{}, 0, 0));
  b_refs.push_back(
      tracer.start_span(b, SpanRef{}, ServiceId(10000), InstanceId{}, 1, 0));
  const Span* a_root_addr = &tracer.span(a_refs[0]);

  std::vector<int> parent_of{-1};  // trace a, by creation index
  for (int g = 0; g < kGroups; ++g) {
    for (int c = 0; c < kCalls; ++c) {
      const auto child_index = static_cast<int>(a_refs.size());
      const SpanRef child = tracer.start_span(
          a, a_refs[0], ServiceId(static_cast<std::uint64_t>(child_index)),
          InstanceId{}, 0, child_index);
      tracer.span(a_refs[0]).children.push_back(
          ChildCall{child.id, g, 0, 0, false, child.slot});
      a_refs.push_back(child);
      parent_of.push_back(0);

      const SpanRef grandchild = tracer.start_span(
          a, child, ServiceId(static_cast<std::uint64_t>(child_index + 1)),
          InstanceId{}, 0, child_index + 1);
      tracer.span(child).children.push_back(
          ChildCall{grandchild.id, 0, 0, 0, false, grandchild.slot});
      a_refs.push_back(grandchild);
      parent_of.push_back(child_index);

      // Trace b grows a chain in lockstep.
      const SpanRef b_next = tracer.start_span(
          b, b_refs.back(),
          ServiceId(10000 + static_cast<std::uint64_t>(b_refs.size())),
          InstanceId{}, 1, 0);
      tracer.span(b_refs.back()).children.push_back(
          ChildCall{b_next.id, 0, 0, 0, false, b_next.slot});
      b_refs.push_back(b_next);
    }
  }
  ASSERT_EQ(a_refs.size(), 501u);
  EXPECT_EQ(&tracer.span(a_refs[0]), a_root_addr);
  for (std::size_t k = 0; k < a_refs.size(); ++k) {
    EXPECT_EQ(a_refs[k].trace, a);
    EXPECT_EQ(a_refs[k].slot, k);
    const Span& s = tracer.span(a_refs[k]);
    EXPECT_EQ(s.id, a_refs[k].id) << k;
    EXPECT_EQ(s.service, ServiceId(k)) << k;
  }
  for (std::size_t k = 0; k < b_refs.size(); ++k) {
    const Span& s = tracer.span(b_refs[k]);
    EXPECT_EQ(s.id, b_refs[k].id) << k;
    EXPECT_EQ(s.service, ServiceId(10000 + k)) << k;
  }

  // Close trace a's spans leaves first, groups in reverse, with a distinct
  // departure per span; close trace b in between.
  std::vector<SpanId> closed;
  SimTime t = 1000;
  for (std::size_t k = a_refs.size() - 1; k > 0; --k) {
    if (parent_of[k] != 0) {  // grandchild, then its parent
      tracer.finish_span(a_refs[k], ++t);
      closed.push_back(a_refs[k].id);
      tracer.finish_span(a_refs[k - 1], ++t);
      closed.push_back(a_refs[k - 1].id);
    }
    if (k == a_refs.size() / 2) {
      for (std::size_t j = b_refs.size(); j-- > 0;) {
        tracer.finish_span(b_refs[j], ++t);
        closed.push_back(b_refs[j].id);
      }
    }
  }
  ASSERT_EQ(done.size(), 1u);  // trace b
  EXPECT_EQ(done[0].id, b);
  tracer.finish_span(a_refs[0], ++t);
  closed.push_back(a_refs[0].id);
  EXPECT_EQ(reported, closed);

  ASSERT_EQ(done.size(), 2u);
  const Trace& ta = done[1];
  EXPECT_EQ(ta.id, a);
  ASSERT_EQ(ta.spans.size(), 501u);
  EXPECT_EQ(ta.end, t);
  for (std::size_t k = 0; k < ta.spans.size(); ++k) {
    const Span& s = ta.spans[k];
    EXPECT_EQ(s.id, a_refs[k].id) << k;
    EXPECT_EQ(s.service, ServiceId(k)) << k;
    EXPECT_EQ(s.arrival, static_cast<SimTime>(k)) << k;
    if (parent_of[k] < 0) {
      EXPECT_FALSE(s.parent.valid());
    } else {
      EXPECT_EQ(s.parent, a_refs[static_cast<std::size_t>(parent_of[k])].id)
          << k;
    }
  }
  ASSERT_EQ(ta.root().children.size(),
            static_cast<std::size_t>(kGroups * kCalls));
  for (std::size_t i = 0; i < ta.root().children.size(); ++i) {
    EXPECT_EQ(ta.root().children[i].child, a_refs[1 + 2 * i].id);
    EXPECT_EQ(ta.root().children[i].parallel_group,
              static_cast<int>(i) / kCalls);
  }
  EXPECT_EQ(tracer.open_traces(), 0u);
}

// The closing span handed to span listeners carries its own departure —
// both while the trace stays open and on the close that assembles it.
TEST(SpanRef, ClosingSpanReportedIsTheOneThatClosed) {
  Tracer tracer;
  struct Seen {
    SpanId id;
    ServiceId service;
    SimTime departure;
  };
  std::vector<Seen> seen;
  tracer.add_span_listener([&](const Span& s) {
    seen.push_back(Seen{s.id, s.service, s.departure});
  });

  const TraceId tid = tracer.begin_trace(0, 0);
  const SpanRef root =
      tracer.start_span(tid, SpanRef{}, ServiceId(1), InstanceId{}, 0, 0);
  const SpanRef c1 =
      tracer.start_span(tid, root, ServiceId(2), InstanceId{}, 0, 1);
  const SpanRef c2 =
      tracer.start_span(tid, root, ServiceId(3), InstanceId{}, 0, 2);
  tracer.finish_span(c2, 20);
  tracer.finish_span(c1, 30);
  tracer.finish_span(root, 40);

  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].id, c2.id);
  EXPECT_EQ(seen[0].service, ServiceId(3));
  EXPECT_EQ(seen[0].departure, 20);
  EXPECT_EQ(seen[1].id, c1.id);
  EXPECT_EQ(seen[1].departure, 30);
  EXPECT_EQ(seen[2].id, root.id);
  EXPECT_EQ(seen[2].service, ServiceId(1));
  EXPECT_EQ(seen[2].departure, 40);
}

// An async callback span outliving the root defers assembly: the root
// listener fires at the root's departure, the trace assembles when the
// callback closes (it is the closing span reported), and the deferred hook
// receives the whole tree.
TEST(SpanRef, AsyncCallbackTraceAssemblesSameTree) {
  Tracer tracer;
  std::vector<Trace> done;
  tracer.add_trace_listener([&](const Trace& t) { done.push_back(t); });
  int roots = 0;
  tracer.add_root_listener([&](const Trace&) { ++roots; });
  std::vector<SpanId> reported;
  tracer.add_span_listener([&](const Span& s) { reported.push_back(s.id); });
  std::optional<Trace> deferred;
  tracer.set_deferred_delivery([&](Trace&& t) { deferred = std::move(t); });

  const TraceId tid = tracer.begin_trace(0, 0);
  const SpanRef root =
      tracer.start_span(tid, SpanRef{}, ServiceId(1), InstanceId{}, 0, 0);
  const SpanRef sync =
      tracer.start_span(tid, root, ServiceId(2), InstanceId{}, 0, 5);
  tracer.span(root).children.push_back(
      ChildCall{sync.id, 0, 5, 0, false, sync.slot});
  tracer.finish_span(sync, 15);
  tracer.span(root).children[0].returned = 15;
  tracer.span(root).downstream_wait = 10;
  const SpanRef async =
      tracer.start_span(tid, root, ServiceId(3), InstanceId{}, 0, 20);
  tracer.span(root).children.push_back(
      ChildCall{async.id, -1, 20, 0, /*async=*/true, async.slot});
  tracer.finish_span(root, 20);

  EXPECT_EQ(roots, 1);
  EXPECT_TRUE(done.empty());
  EXPECT_FALSE(deferred.has_value());
  EXPECT_EQ(tracer.open_traces(), 1u);

  tracer.finish_span(async, 50);
  EXPECT_EQ(roots, 1);
  EXPECT_EQ(reported, (std::vector<SpanId>{sync.id, root.id, async.id}));
  ASSERT_TRUE(deferred.has_value());
  EXPECT_TRUE(done.empty());
  EXPECT_EQ(tracer.open_traces(), 0u);

  tracer.deliver_trace(std::move(*deferred));
  ASSERT_EQ(done.size(), 1u);
  const Trace& t = done.front();
  EXPECT_EQ(t.end, 20);  // the root's departure, not the callback's
  ASSERT_EQ(t.spans.size(), 3u);
  EXPECT_EQ(t.spans[0].id, root.id);
  EXPECT_EQ(t.spans[0].processing_time(), 10);
  ASSERT_EQ(t.spans[0].children.size(), 2u);
  EXPECT_EQ(t.spans[0].children[0].child, sync.id);
  EXPECT_FALSE(t.spans[0].children[0].async);
  EXPECT_EQ(t.spans[0].children[1].child, async.id);
  EXPECT_TRUE(t.spans[0].children[1].async);
  EXPECT_EQ(t.spans[1].id, sync.id);
  EXPECT_EQ(t.spans[1].parent, root.id);
  EXPECT_EQ(t.spans[2].id, async.id);
  EXPECT_EQ(t.spans[2].parent, root.id);
  EXPECT_EQ(t.spans[2].departure, 50);
}

// -- slot-linked span tree ----------------------------------------------------

/// What check_slot_links saw, so a test can insist its traces had the
/// shapes it meant to cover.
struct LinkCoverage {
  std::size_t traces = 0;
  std::size_t links = 0;
  std::size_t async_links = 0;
  std::size_t parallel_links = 0;  ///< calls sharing a group with a sibling
};

/// Every span link of `t` resolves by slot to the span it names, and the
/// two directions agree: span i's parent lists i among its calls, and each
/// call's child names its caller as parent.
void check_slot_links(const Trace& t, LinkCoverage& cov) {
  ++cov.traces;
  const std::size_t n = t.spans.size();
  ASSERT_GT(n, 0u);
  EXPECT_FALSE(t.spans[0].parent.valid());
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = t.spans[i];
    if (i > 0) {
      ASSERT_LT(s.parent_slot, n) << "trace " << t.id.value() << " span " << i;
      const Span& parent = t.spans[s.parent_slot];
      EXPECT_EQ(parent.id, s.parent);
      std::size_t listed = 0;
      for (const ChildCall& c : parent.children) {
        if (c.slot == i) ++listed;
      }
      EXPECT_EQ(listed, 1u) << "span " << i << " in its parent's calls";
    }
    for (const ChildCall& c : s.children) {
      ++cov.links;
      ASSERT_LT(c.slot, n) << "trace " << t.id.value() << " span " << i;
      EXPECT_EQ(t.spans[c.slot].id, c.child);
      EXPECT_EQ(t.spans[c.slot].parent, s.id);
      EXPECT_EQ(t.spans[c.slot].parent_slot, i);
      if (c.async) ++cov.async_links;
      std::size_t group_size = 0;
      for (const ChildCall& o : s.children) {
        if (!c.async && o.parallel_group == c.parallel_group) ++group_size;
      }
      if (group_size > 1) ++cov.parallel_links;
    }
  }
}

/// front calls {a, b} in parallel, then c; a calls e, so e opens after b
/// and creation order is not DFS order; c calls a, then notifies d
/// asynchronously as it completes (d outlives the response, so assembly is
/// deferred).
ApplicationConfig linked_app() {
  ApplicationConfig app;
  ServiceConfig front;
  front.name = "front";
  front.with_cores(4).with_entry_pool(64).with_demand(0, 200, 100, 0.3);
  front.with_parallel_calls(0, {"a", "b"}).with_call(0, "c");
  app.services.push_back(front);
  for (const char* name : {"a", "b", "c", "e"}) {
    ServiceConfig s;
    s.name = name;
    s.with_cores(2).with_entry_pool(32).with_demand(0, 500, 0, 0.5);
    app.services.push_back(s);
  }
  app.services[1].with_call(0, "e");
  app.services[3].with_call(0, "a").with_async_callback(0, "d", 1);
  ServiceConfig d;
  d.name = "d";
  d.with_cores(2).with_entry_pool(32).with_demand(1, 3000, 0, 0.5);
  app.services.push_back(d);
  app.entry_service[0] = "front";
  return app;
}

LinkCoverage run_linked_app() {
  ExperimentConfig cfg;
  cfg.duration = sec(5);
  cfg.sla = msec(100);
  cfg.seed = 3;
  Experiment exp(linked_app(), cfg);
  LinkCoverage cov;
  exp.tracer().add_trace_listener(
      [&cov](const Trace& t) { check_slot_links(t, cov); });
  exp.closed_loop(8, msec(20));
  exp.run();
  return cov;
}

// Live traces straight from the service substrate: parallel groups,
// sequential and nested calls, and an async callback that outlives the
// response. Every link the tracer stamped must address the right span.
TEST(SlotLinks, LiveTracesAddressTheirSpans) {
  const LinkCoverage cov = run_linked_app();
  EXPECT_GT(cov.traces, 100u);
  // front->{a, b}, a->e, front->c, c->a, a->e, c->d (async).
  EXPECT_EQ(cov.links, cov.traces * 7);
  EXPECT_EQ(cov.async_links, cov.traces);
  EXPECT_EQ(cov.parallel_links, cov.traces * 2);
}

// -- per-service span listeners ----------------------------------------------

/// Open and close one root span of `service` in a fresh trace.
void close_one_span(Tracer& tracer, std::uint64_t service, SimTime at = 10) {
  const TraceId tid = tracer.begin_trace(0, 0);
  const SpanRef root =
      tracer.start_span(tid, SpanRef{}, ServiceId(service), InstanceId{}, 0, 0);
  tracer.finish_span(root, at);
}

TEST(ServiceSpanListener, SeesOnlyItsOwnService) {
  Tracer tracer;
  std::vector<std::uint64_t> on_a;
  std::vector<std::uint64_t> on_b;
  tracer.add_span_listener(ServiceId(7), [&](const Span& s) {
    on_a.push_back(s.service.value());
  });
  tracer.add_span_listener(ServiceId(2), [&](const Span& s) {
    on_b.push_back(s.service.value());
  });
  for (std::uint64_t svc : {7, 2, 3, 7, 0, 9, 2, 7}) {
    close_one_span(tracer, svc);
  }
  EXPECT_EQ(on_a, (std::vector<std::uint64_t>{7, 7, 7}));
  EXPECT_EQ(on_b, (std::vector<std::uint64_t>{2, 2}));
}

TEST(ServiceSpanListener, GlobalFirstThenRegistrationOrder) {
  Tracer tracer;
  std::string order;
  tracer.add_span_listener(ServiceId(4), [&](const Span&) { order += 'a'; });
  tracer.add_span_listener([&](const Span&) { order += 'g'; });
  tracer.add_span_listener(ServiceId(4), [&](const Span&) { order += 'b'; });
  tracer.add_span_listener(ServiceId(1), [&](const Span&) { order += 'x'; });
  tracer.add_span_listener(ServiceId(4), [&](const Span&) { order += 'c'; });
  close_one_span(tracer, 4);
  EXPECT_EQ(order, "gabc");
  order.clear();
  close_one_span(tracer, 1);
  EXPECT_EQ(order, "gx");
}

TEST(ServiceSpanListener, InvalidServiceRegistersNothing) {
  Tracer tracer;
  int calls = 0;
  tracer.add_span_listener(ServiceId{}, [&](const Span&) { ++calls; });
  close_one_span(tracer, 0);
  close_one_span(tracer, 5);
  EXPECT_EQ(calls, 0);
}

TEST(ServiceSpanListener, DropSuppressesGlobalAndPerService) {
  Tracer tracer;
  int global = 0;
  int per_service = 0;
  tracer.add_span_listener([&](const Span&) { ++global; });
  tracer.add_span_listener(ServiceId(1), [&](const Span&) { ++per_service; });
  tracer.set_span_interceptor([](const Span& s) {
    return s.departure == 10 ? Tracer::SpanFate::kDrop
                             : Tracer::SpanFate::kDeliver;
  });
  int traces = 0;
  tracer.add_trace_listener([&](const Trace&) { ++traces; });

  close_one_span(tracer, 1, 10);  // dropped
  EXPECT_EQ(global, 0);
  EXPECT_EQ(per_service, 0);
  EXPECT_EQ(traces, 1);  // assembly is unaffected
  close_one_span(tracer, 1, 11);
  EXPECT_EQ(global, 1);
  EXPECT_EQ(per_service, 1);
}

TEST(ServiceSpanListener, DeferRedeliversToBoth) {
  Tracer tracer;
  std::vector<SimTime> global;
  std::vector<SimTime> per_service;
  tracer.add_span_listener(
      [&](const Span& s) { global.push_back(s.departure); });
  tracer.add_span_listener(ServiceId(3), [&](const Span& s) {
    per_service.push_back(s.departure);
  });
  std::vector<Span> held;
  tracer.set_span_interceptor([&](const Span& s) {
    held.push_back(s);
    return Tracer::SpanFate::kDefer;
  });

  close_one_span(tracer, 3, 25);
  EXPECT_TRUE(global.empty());
  EXPECT_TRUE(per_service.empty());
  EXPECT_EQ(tracer.open_traces(), 0u);

  ASSERT_EQ(held.size(), 1u);
  tracer.deliver_span(held.front());  // the owning trace is long closed
  EXPECT_EQ(global, (std::vector<SimTime>{25}));
  EXPECT_EQ(per_service, (std::vector<SimTime>{25}));
}

}  // namespace
}  // namespace sora
