// Tests for critical-path extraction, its per-trace memo and upstream
// processing-time sums.
#include "trace/critical_path.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/sora.h"
#include "obs/profiler.h"
#include "svc/application.h"
#include "test_util.h"
#include "trace/tracer.h"
#include "trace/warehouse.h"
#include "workload/generator.h"

namespace sora {
namespace {

using testutil::SyntheticSpan;

TEST(CriticalPath, SingleSpan) {
  const Trace t = testutil::make_trace({
      {-1, 0, 0, 1000, 0},
  });
  const CriticalPath cp = extract_critical_path(t);
  ASSERT_EQ(cp.hops.size(), 1u);
  EXPECT_EQ(cp.total_duration, 1000);
  EXPECT_EQ(cp.hops[0].service, ServiceId(0));
  EXPECT_EQ(cp.hops[0].processing_time, 1000);
}

TEST(CriticalPath, Chain) {
  // front(0..100) -> mid(10..90) -> leaf(20..80)
  const Trace t = testutil::make_trace({
      {-1, 0, 0, 100, 80},
      {0, 1, 10, 90, 60},
      {1, 2, 20, 80, 0},
  });
  const CriticalPath cp = extract_critical_path(t);
  ASSERT_EQ(cp.hops.size(), 3u);
  EXPECT_EQ(cp.hops[0].service, ServiceId(0));
  EXPECT_EQ(cp.hops[1].service, ServiceId(1));
  EXPECT_EQ(cp.hops[2].service, ServiceId(2));
  EXPECT_EQ(cp.hops[0].processing_time, 20);  // 100 - 80
  EXPECT_EQ(cp.hops[1].processing_time, 20);  // 80 - 60
  EXPECT_EQ(cp.hops[2].processing_time, 60);
  EXPECT_EQ(cp.total_duration, 100);
  EXPECT_TRUE(cp.contains(ServiceId(1)));
  EXPECT_FALSE(cp.contains(ServiceId(9)));
}

TEST(CriticalPath, ParallelFanoutPicksSlowerChild) {
  // root fans out to services 1 (10..40) and 2 (10..90): 2 dominates.
  const Trace t = testutil::make_trace({
      {-1, 0, 0, 100, 80},
      {0, 1, 10, 40, 0, 0},
      {0, 2, 10, 90, 0, 0},
  });
  const CriticalPath cp = extract_critical_path(t);
  ASSERT_EQ(cp.hops.size(), 2u);
  EXPECT_EQ(cp.hops[1].service, ServiceId(2));
}

TEST(CriticalPath, SequentialCallsPickLongest) {
  // Two sequential children: the chain descends into the longer one
  // ("path of maximal duration").
  const Trace t = testutil::make_trace({
      {-1, 0, 0, 200, 150},
      {0, 1, 10, 60, 0, 0},    // 50us
      {0, 2, 70, 170, 0, 1},   // 100us
  });
  const CriticalPath cp = extract_critical_path(t);
  ASSERT_EQ(cp.hops.size(), 2u);
  EXPECT_EQ(cp.hops[1].service, ServiceId(2));
}

TEST(CriticalPath, DeepTree) {
  const Trace t = testutil::make_trace({
      {-1, 0, 0, 1000, 900},
      {0, 1, 50, 900, 700},   // on path
      {0, 2, 50, 300, 0},     // parallel loser
      {1, 3, 100, 750, 0},    // deepest hop
  });
  const CriticalPath cp = extract_critical_path(t);
  ASSERT_EQ(cp.hops.size(), 3u);
  EXPECT_EQ(cp.hops[2].service, ServiceId(3));
  EXPECT_EQ(cp.hops[2].processing_time, 650);
}

TEST(CriticalPath, EmptyTrace) {
  Trace t;
  const CriticalPath cp = extract_critical_path(t);
  EXPECT_TRUE(cp.hops.empty());
  EXPECT_EQ(cp.total_duration, 0);
}

TEST(UpstreamProcessingTime, SumsHopsAboveService) {
  const Trace t = testutil::make_trace({
      {-1, 0, 0, 100, 80},   // PT 20
      {0, 1, 10, 90, 60},    // PT 20
      {1, 2, 20, 80, 0},     // PT 60
  });
  const CriticalPath cp = extract_critical_path(t);
  EXPECT_EQ(upstream_processing_time(cp, ServiceId(0)), 0);
  EXPECT_EQ(upstream_processing_time(cp, ServiceId(1)), 20);
  EXPECT_EQ(upstream_processing_time(cp, ServiceId(2)), 40);
  EXPECT_EQ(upstream_processing_time(cp, ServiceId(9)), -1);
}

// Degenerate input: two children with exactly tied durations. The descent
// uses a strict comparison, so the first child in call order wins — the
// choice must be deterministic (profile output is compared byte-for-byte).
TEST(CriticalPath, TiedChildDurationsPickFirstDeterministically) {
  const Trace t = testutil::make_trace({
      {-1, 0, 0, 100, 80},
      {0, 1, 10, 90, 0, 0},
      {0, 2, 10, 90, 0, 0},  // same duration as service 1
  });
  const CriticalPath a = extract_critical_path(t);
  const CriticalPath b = extract_critical_path(t);
  ASSERT_EQ(a.hops.size(), 2u);
  EXPECT_EQ(a.hops[1].service, ServiceId(1));  // first call order wins
  ASSERT_EQ(b.hops.size(), a.hops.size());
  EXPECT_EQ(b.hops[1].service, a.hops[1].service);
}

// Degenerate input: a parent references a child span that never made it
// into the trace (dropped span report). The walk must skip the gap, not
// crash or follow a dangling pointer.
TEST(CriticalPath, DanglingChildReferenceIsSkipped) {
  Trace t = testutil::make_trace({
      {-1, 0, 0, 100, 80},
      {0, 1, 10, 90, 60},
      {1, 2, 20, 80, 0},
  });
  // Drop the mid span (index 1) from the span list; the root's ChildCall
  // still references its id.
  t.spans.erase(t.spans.begin() + 1);
  const CriticalPath cp = extract_critical_path(t);
  ASSERT_EQ(cp.hops.size(), 1u);  // walk stops at the gap
  EXPECT_EQ(cp.hops[0].service, ServiceId(0));
  EXPECT_EQ(cp.total_duration, 100);
}

// Degenerate input: a gap in the middle of a deep chain — the surviving
// grandchild is unreachable, so only the prefix above the gap remains.
TEST(CriticalPath, GapTruncatesPathNotWholeTrace) {
  Trace t = testutil::make_trace({
      {-1, 0, 0, 500, 430},
      {0, 1, 20, 450, 350},
      {1, 2, 50, 400, 270},
      {2, 3, 80, 350, 0},
  });
  t.spans.erase(t.spans.begin() + 2);  // drop service 2's span
  const CriticalPath cp = extract_critical_path(t);
  ASSERT_EQ(cp.hops.size(), 2u);
  EXPECT_EQ(cp.hops[0].service, ServiceId(0));
  EXPECT_EQ(cp.hops[1].service, ServiceId(1));
  EXPECT_FALSE(cp.contains(ServiceId(3)));
}

// A call's slot that addresses a span with another id (the trace was
// edited after the slot was stamped) or lies past the end of the trace
// means the child is missing: the walk stops rather than descend into the
// wrong span.
TEST(CriticalPath, StaleSlotIsTreatedAsMissingChild) {
  Trace t = testutil::make_trace({
      {-1, 0, 0, 100, 80},
      {0, 1, 10, 90, 60},
      {1, 2, 20, 80, 0},
  });
  t.spans[0].children[0].slot = 2;  // the grandchild's slot
  CriticalPath cp = extract_critical_path(t);
  ASSERT_EQ(cp.hops.size(), 1u);
  EXPECT_EQ(cp.hops[0].service, ServiceId(0));

  t.spans[0].children[0].slot = 3;  // one past the end
  cp = extract_critical_path(t);
  ASSERT_EQ(cp.hops.size(), 1u);
  EXPECT_EQ(cp.total_duration, 100);
}

// A call whose slot was never set is a bug in whoever built the trace:
// debug builds stop on it; with the assert compiled out the child counts
// as missing, like any other unresolvable link.
TEST(CriticalPath, UnsetSlotAssertsInDebugAndIsMissingOtherwise) {
  Trace t = testutil::make_trace({{-1, 0, 0, 100, 80}, {0, 1, 10, 90, 0}});
  t.spans[0].children[0].slot = kNoSlot;
  CriticalPath cp;
  EXPECT_DEBUG_DEATH(cp = extract_critical_path(t), "span link without a slot");
#ifdef NDEBUG
  ASSERT_EQ(cp.hops.size(), 1u);
  EXPECT_EQ(cp.hops[0].service, ServiceId(0));
#endif
}

// Property: PT of all hops never exceeds the total duration, and the hop
// list follows parent-child order.
TEST(CriticalPath, ProcessingTimeBoundedByDuration) {
  // Consistent chain: every span's downstream_wait equals its child's
  // duration (as the instrumentation records for serial calls).
  const Trace t = testutil::make_trace({
      {-1, 0, 0, 500, 430},
      {0, 1, 20, 450, 350},
      {1, 2, 50, 400, 270},
      {2, 3, 80, 350, 0},
  });
  const CriticalPath cp = extract_critical_path(t);
  SimTime pt_sum = 0;
  for (const auto& hop : cp.hops) {
    EXPECT_GE(hop.processing_time, 0);
    EXPECT_LE(hop.processing_time, hop.span_duration);
    pt_sum += hop.processing_time;
  }
  EXPECT_LE(pt_sum, cp.total_duration);
}

// --- memoized access: critical_path_of --------------------------------------

/// Calls recorded so far for one stage of the global profiler.
std::uint64_t stage_calls(const std::string& stage) {
  for (const obs::StageStats& s : obs::OverheadProfiler::global().stats()) {
    if (s.stage == stage) return s.calls;
  }
  return 0;
}

void expect_same_path(const CriticalPath& a, const CriticalPath& b) {
  EXPECT_EQ(a.total_duration, b.total_duration);
  ASSERT_EQ(a.hops.size(), b.hops.size());
  for (std::size_t i = 0; i < a.hops.size(); ++i) {
    EXPECT_EQ(a.hops[i].service, b.hops[i].service) << "hop " << i;
    EXPECT_EQ(a.hops[i].span, b.hops[i].span) << "hop " << i;
    EXPECT_EQ(a.hops[i].processing_time, b.hops[i].processing_time);
    EXPECT_EQ(a.hops[i].span_duration, b.hops[i].span_duration);
  }
}

/// Every trace shape the extraction tests above exercise, plus one whose
/// longest child is an async callback (never on the critical path).
std::vector<Trace> fixtures() {
  std::vector<Trace> out;
  out.push_back(testutil::make_trace({{-1, 0, 0, 1000, 0}}));
  out.push_back(testutil::make_trace(
      {{-1, 0, 0, 100, 80}, {0, 1, 10, 90, 60}, {1, 2, 20, 80, 0}}));
  out.push_back(testutil::make_trace(
      {{-1, 0, 0, 100, 80}, {0, 1, 10, 40, 0, 0}, {0, 2, 10, 90, 0, 0}}));
  out.push_back(testutil::make_trace(
      {{-1, 0, 0, 200, 150}, {0, 1, 10, 60, 0, 0}, {0, 2, 70, 170, 0, 1}}));
  out.push_back(testutil::make_trace({{-1, 0, 0, 1000, 900},
                                      {0, 1, 50, 900, 700},
                                      {0, 2, 50, 300, 0},
                                      {1, 3, 100, 750, 0}}));
  out.push_back(Trace{});
  // Tied child durations.
  out.push_back(testutil::make_trace(
      {{-1, 0, 0, 100, 80}, {0, 1, 10, 90, 0, 0}, {0, 2, 10, 90, 0, 0}}));
  // Dangling child reference.
  Trace dangling = testutil::make_trace(
      {{-1, 0, 0, 100, 80}, {0, 1, 10, 90, 60}, {1, 2, 20, 80, 0}});
  dangling.spans.erase(dangling.spans.begin() + 1);
  out.push_back(dangling);
  // Mid-chain gap.
  Trace gap = testutil::make_trace({{-1, 0, 0, 500, 430},
                                    {0, 1, 20, 450, 350},
                                    {1, 2, 50, 400, 270},
                                    {2, 3, 80, 350, 0}});
  gap.spans.erase(gap.spans.begin() + 2);
  out.push_back(gap);
  // Async callback child outlasting the synchronous one.
  Trace async = testutil::make_trace(
      {{-1, 0, 0, 100, 40}, {0, 1, 10, 50, 0, 0}, {0, 2, 90, 900, 0, 0}});
  async.spans[0].children[1].async = true;
  async.spans[0].children[1].parallel_group = -1;
  out.push_back(async);
  return out;
}

TEST(CriticalPathOf, MatchesExtractionOnEveryFixture) {
  const std::vector<Trace> all = fixtures();
  for (const Trace& t : all) {
    expect_same_path(critical_path_of(t), extract_critical_path(t));
  }
  // The async fixture descends into the synchronous child only.
  const CriticalPath& async = critical_path_of(all.back());
  ASSERT_EQ(async.hops.size(), 2u);
  EXPECT_EQ(async.hops[1].service, ServiceId(1));
}

TEST(CriticalPathOf, SecondCallIsMemoized) {
  const Trace t = testutil::make_trace(
      {{-1, 0, 0, 100, 80}, {0, 1, 10, 90, 60}, {1, 2, 20, 80, 0}});
  const std::uint64_t before = stage_calls("trace.critical_path");
  const CriticalPath& first = critical_path_of(t);
  EXPECT_EQ(stage_calls("trace.critical_path"), before + 1);
  const CriticalPath& second = critical_path_of(t);
  EXPECT_EQ(stage_calls("trace.critical_path"), before + 1);
  EXPECT_EQ(&first, &second);
  // A copy taken after the first call shares the path instead of walking
  // the spans again.
  const Trace copy = t;
  EXPECT_EQ(&critical_path_of(copy), &first);
  EXPECT_EQ(stage_calls("trace.critical_path"), before + 1);
}

// Localization and per-knob deadline propagation read the same traces every
// round; each stored trace must be walked exactly once however many knobs
// Sora manages and however many rounds run.
TEST(CriticalPathOf, SoraWalksEachStoredTraceOnce) {
  Simulator sim;
  Tracer tracer;
  TraceWarehouse warehouse(100000);
  Application app(sim, tracer, testutil::chain_app(0.3), 1);
  warehouse.attach(tracer);

  SoraFrameworkOptions opts;
  opts.sla = msec(50);
  opts.control_period = sec(5);
  ASSERT_TRUE(opts.deadline_propagation);
  SoraFramework sora(app, warehouse, opts);
  for (const char* name : {"front", "mid", "leaf"}) {
    sora.manage(ResourceKnob::entry(app.service(name)));
  }
  const std::uint64_t before = stage_calls("trace.critical_path");
  sora.start();

  ClosedLoopGenerator users(sim, app, 20, msec(50), 4);
  users.start();
  sim.run_until(sec(20));
  users.stop();

  ASSERT_GE(sora.control_rounds(), 2u);
  ASSERT_GT(warehouse.total_stored(), 0u);
  EXPECT_EQ(stage_calls("trace.critical_path") - before,
            warehouse.total_stored());
}

}  // namespace
}  // namespace sora
