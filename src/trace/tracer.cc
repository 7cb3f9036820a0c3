#include "trace/tracer.h"

#include <cassert>

namespace sora {

TraceId Tracer::begin_trace(int request_class, SimTime now) {
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

void Tracer::finish_span(SpanRef ref, SimTime departure) {
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

  // The closing span moved with the trace and kept its slot.
  const Span& closing = done.spans[ref.slot];
  if (is_root) {
    for (const auto& listener : root_listeners_) listener(done);
  }
  report_span(closing);
  if (!is_root && deferred_delivery_) {
    // The trace outlived its root (async callbacks): hand it off so the
    // harness can carry the report back over the network first.
    deferred_delivery_(std::move(done));
    return;
  }
  deliver_trace(std::move(done));
}

void Tracer::deliver_trace(Trace&& done) {
  if (trace_finalizer_) trace_finalizer_(done);
  for (const auto& listener : trace_listeners_) listener(done);
}

}  // namespace sora
