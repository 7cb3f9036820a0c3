#include "trace/tracer.h"

#include <algorithm>
#include <cassert>
#include <vector>

namespace sora {

TraceId Tracer::begin_trace(int request_class, SimTime now) {
  MaybeLock lock(mu_, thread_safe_);
  const TraceId id = trace_ids_.next();
  OpenTrace open;
  open.trace.id = id;
  open.trace.request_class = request_class;
  open.trace.start = now;
  open_.emplace(id.value(), std::move(open));
  return id;
}

SpanRef Tracer::start_span(TraceId trace, SpanRef parent, ServiceId service,
                           InstanceId instance, int request_class,
                           SimTime arrival) {
  MaybeLock lock(mu_, thread_safe_);
  auto it = open_.find(trace.value());
  assert(it != open_.end() && "start_span on unknown trace");
  OpenTrace& open = it->second;
  assert((!parent.id.valid() || parent.trace == trace) &&
         "parent span belongs to another trace");

  const SpanId id = span_ids_.next();
  Span s;
  s.id = id;
  s.trace = trace;
  s.parent = parent.id;
  s.parent_slot = parent.slot;
  s.service = service;
  s.instance = instance;
  s.request_class = request_class;
  s.arrival = arrival;
  s.admitted = arrival;
  s.departure = arrival;
  const auto slot = static_cast<std::uint32_t>(open.trace.spans.size());
  open.trace.spans.push_back(std::move(s));
  ++open.open_spans;
  return SpanRef{trace, id, slot};
}

Tracer::OpenTrace& Tracer::open_trace(SpanRef ref) {
  auto it = open_.find(ref.trace.value());
  assert(it != open_.end() && "span lookup on unknown trace");
  assert(ref.slot < it->second.trace.spans.size() &&
         it->second.trace.spans[ref.slot].id == ref.id &&
         "SpanRef does not match the span at its slot");
  return it->second;
}

Span& Tracer::span(SpanRef ref) {
  MaybeLock lock(mu_, thread_safe_);
  return open_trace(ref).trace.spans[ref.slot];
}

void Tracer::add_span_listener(ServiceId service, SpanListener cb) {
  if (!service.valid()) return;
  const auto index = static_cast<std::size_t>(service.value());
  if (index >= service_span_listeners_.size()) {
    service_span_listeners_.resize(index + 1);
  }
  service_span_listeners_[index].push_back(std::move(cb));
}

void Tracer::deliver_span(const Span& s) {
  for (const auto& listener : span_listeners_) listener(s);
  if (s.service.value() < service_span_listeners_.size()) {
    for (const auto& listener : service_span_listeners_[s.service.value()]) {
      listener(s);
    }
  }
}

void Tracer::report_span(const Span& s) {
  const SpanFate fate =
      span_interceptor_ ? span_interceptor_(s) : SpanFate::kDeliver;
  if (fate == SpanFate::kDeliver) deliver_span(s);
}

void Tracer::canonicalize(Trace& t) {
  // Raw span ids come from a shared counter and spans sit in creation
  // order — both depend on how shard lanes interleaved. The call tree does
  // not: parents record their ChildCalls in issue order. Rewrite the trace
  // into that intrinsic form: spans in depth-first call order, ids = 1-based
  // DFS position, slots = DFS position.
  if (t.spans.empty()) return;
  const std::size_t n = t.spans.size();

  std::vector<std::uint32_t> order;
  order.reserve(n);
  // pos[old slot] = new slot; kNoSlot until the span is placed.
  std::vector<std::uint32_t> pos(n, kNoSlot);
  const auto place = [&](std::uint32_t slot) {
    pos[slot] = static_cast<std::uint32_t>(order.size());
    order.push_back(slot);
  };
  // Iterative DFS; the explicit stack holds (span slot, next child).
  std::vector<std::pair<std::uint32_t, std::size_t>> stack;
  stack.emplace_back(0, 0);
  place(0);
  while (!stack.empty()) {
    auto& [slot, child] = stack.back();
    const Span& s = t.spans[slot];
    if (child >= s.children.size()) {
      stack.pop_back();
      continue;
    }
    const ChildCall& call = s.children[child++];
    const std::uint32_t next = t.find(call.child, call.slot);
    if (next == kNoSlot || pos[next] != kNoSlot) continue;
    place(next);
    stack.emplace_back(next, 0);
  }
  // Defensive: spans unreachable from the root (should not happen — every
  // start_span is paired with a ChildCall) are appended in a stable order
  // that does not depend on creation order.
  std::vector<std::uint32_t> stray;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (pos[i] == kNoSlot) stray.push_back(i);
  }
  std::sort(stray.begin(), stray.end(), [&t](std::uint32_t a, std::uint32_t b) {
    const Span& sa = t.spans[a];
    const Span& sb = t.spans[b];
    if (sa.arrival != sb.arrival) return sa.arrival < sb.arrival;
    if (sa.service.value() != sb.service.value()) {
      return sa.service.value() < sb.service.value();
    }
    return sa.departure < sb.departure;
  });
  for (const std::uint32_t slot : stray) place(slot);

  // Rewrite the links first, while every span still carries its raw id for
  // Trace::find to check; then renumber and reorder.
  for (Span& s : t.spans) {
    if (s.parent.valid()) {
      const std::uint32_t parent = t.find(s.parent, s.parent_slot);
      s.parent = parent != kNoSlot ? SpanId(pos[parent] + 1) : SpanId{};
      s.parent_slot = parent != kNoSlot ? pos[parent] : kNoSlot;
    }
    for (ChildCall& c : s.children) {
      const std::uint32_t child = t.find(c.child, c.slot);
      if (child == kNoSlot) {
        c.slot = static_cast<std::uint32_t>(n);  // stays missing
        continue;
      }
      c.child = SpanId(pos[child] + 1);
      c.slot = pos[child];
    }
  }
  std::deque<Span> out;
  for (const std::uint32_t slot : order) {
    out.push_back(std::move(t.spans[slot]));
    out.back().id = SpanId(pos[slot] + 1);
  }
  t.spans = std::move(out);
}

void Tracer::finish_span(SpanRef ref, SimTime departure) {
  MaybeLock lock(mu_, thread_safe_);
  OpenTrace& open = open_trace(ref);

  Span& s = open.trace.spans[ref.slot];
  s.departure = departure;
  assert(open.open_spans > 0);
  --open.open_spans;

  const bool is_root = !s.parent.valid();
  if (is_root) {
    // The root's departure is the user-visible response time; async
    // callback spans running past it never move trace.end.
    open.trace.end = departure;
    open.root_finished = true;
  }

  if (!open.root_finished || open.open_spans > 0) {
    // Listeners run outside the lock: their state is lane-confined and the
    // span reference stays valid (deque storage; only begin_trace — entry
    // lane only — inserts into the open-trace table).
    lock.unlock();
    if (is_root) {
      for (const auto& listener : root_listeners_) listener(open.trace);
    }
    report_span(s);
    return;
  }

  // Last open span closed: assemble. Move the trace out before invoking
  // listeners so that re-entrant tracer use from a listener cannot
  // invalidate it.
  Trace done = std::move(open.trace);
  open_.erase(ref.trace.value());
  ++traces_completed_;
  lock.unlock();

  // The closing span moved with the trace and kept its slot.
  const Span& closing = done.spans[ref.slot];
  if (is_root) {
    for (const auto& listener : root_listeners_) listener(done);
  }
  report_span(closing);
  if (!is_root && deferred_delivery_) {
    // The trace outlived its root (async callbacks): hand it off so the
    // harness can route assembly back to the entry lane.
    const ServiceId last_service = closing.service;
    deferred_delivery_(std::move(done), last_service);
    return;
  }
  deliver_trace(std::move(done));
}

void Tracer::deliver_trace(Trace&& done) {
  if (canonical_ids_) canonicalize(done);
  if (trace_finalizer_) trace_finalizer_(done);
  for (const auto& listener : trace_listeners_) listener(done);
}

}  // namespace sora
