#include "trace/tracer.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>
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

SpanRef Tracer::start_span(TraceId trace, SpanId parent, ServiceId service,
                           InstanceId instance, int request_class,
                           SimTime arrival) {
  MaybeLock lock(mu_, thread_safe_);
  auto it = open_.find(trace.value());
  assert(it != open_.end() && "start_span on unknown trace");
  OpenTrace& open = it->second;

  const SpanId id = span_ids_.next();
  Span s;
  s.id = id;
  s.trace = trace;
  s.parent = parent;
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
  // DFS position.
  if (t.spans.empty()) return;
  const std::size_t n = t.spans.size();
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  by_id.reserve(n * 2);
  for (std::size_t i = 0; i < n; ++i) by_id.emplace(t.spans[i].id.value(), i);

  std::vector<std::size_t> order;
  order.reserve(n);
  std::vector<bool> placed(n, false);
  // Iterative DFS; the explicit stack holds (span index, next child).
  std::vector<std::pair<std::size_t, std::size_t>> stack;
  stack.emplace_back(0, 0);
  order.push_back(0);
  placed[0] = true;
  while (!stack.empty()) {
    auto& [idx, child] = stack.back();
    const Span& s = t.spans[idx];
    if (child >= s.children.size()) {
      stack.pop_back();
      continue;
    }
    const std::uint64_t child_id = s.children[child++].child.value();
    auto it = by_id.find(child_id);
    if (it == by_id.end() || placed[it->second]) continue;
    placed[it->second] = true;
    order.push_back(it->second);
    stack.emplace_back(it->second, 0);
  }
  // Defensive: spans unreachable from the root (should not happen — every
  // start_span is paired with a ChildCall) are appended in a stable order
  // that does not depend on creation order.
  std::vector<std::size_t> stray;
  for (std::size_t i = 0; i < n; ++i) {
    if (!placed[i]) stray.push_back(i);
  }
  std::sort(stray.begin(), stray.end(), [&t](std::size_t a, std::size_t b) {
    const Span& sa = t.spans[a];
    const Span& sb = t.spans[b];
    if (sa.arrival != sb.arrival) return sa.arrival < sb.arrival;
    if (sa.service.value() != sb.service.value()) {
      return sa.service.value() < sb.service.value();
    }
    return sa.departure < sb.departure;
  });
  order.insert(order.end(), stray.begin(), stray.end());

  std::vector<std::uint64_t> new_id(n, 0);
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    new_id[order[pos]] = pos + 1;
  }
  std::deque<Span> out;
  for (const std::size_t idx : order) {
    Span s = std::move(t.spans[idx]);
    s.id = SpanId(new_id[idx]);
    if (s.parent.valid()) {
      auto it = by_id.find(s.parent.value());
      s.parent = it != by_id.end() ? SpanId(new_id[it->second]) : SpanId{};
    }
    for (ChildCall& c : s.children) {
      auto it = by_id.find(c.child.value());
      if (it != by_id.end()) c.child = SpanId(new_id[it->second]);
    }
    out.push_back(std::move(s));
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
