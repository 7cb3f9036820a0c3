#include "trace/warehouse.h"

#include <memory>

namespace sora {

TraceWarehouse::TraceWarehouse(std::size_t capacity) : capacity_(capacity) {}

void TraceWarehouse::attach(Tracer& tracer, std::uint64_t sample_every_n) {
  if (sample_every_n <= 1) {
    tracer.add_trace_listener([this](const Trace& t) { store(t); });
    return;
  }
  auto counter = std::make_shared<std::uint64_t>(0);
  tracer.add_trace_listener([this, counter, sample_every_n](const Trace& t) {
    if ((*counter)++ % sample_every_n == 0) store(t);
  });
}

void TraceWarehouse::store(Trace trace) {
  traces_.push_back(std::move(trace));
  ++total_stored_;
  for (const auto& listener : store_listeners_) listener(traces_.back());
  while (traces_.size() > capacity_) {
    traces_.pop_front();
    ++total_evicted_;
  }
}

void TraceWarehouse::for_each_in_window(
    SimTime from, SimTime to,
    const std::function<void(const Trace&)>& fn) const {
  for (const Trace& t : traces_) {
    if (t.end < from) continue;
    if (t.end > to) break;  // traces are completion-ordered
    fn(t);
  }
}

std::uint64_t TraceWarehouse::digest() const {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  const auto fold = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ULL;  // FNV prime
    }
  };
  for (const Trace& t : traces_) {
    fold(t.id.value());
    fold(static_cast<std::uint64_t>(t.start));
    fold(static_cast<std::uint64_t>(t.end));
    fold(t.spans.size());
    for (const Span& s : t.spans) {
      fold(s.service.value());
      fold(static_cast<std::uint64_t>(s.arrival));
      fold(static_cast<std::uint64_t>(s.admitted));
      fold(static_cast<std::uint64_t>(s.departure));
      fold(static_cast<std::uint64_t>(s.downstream_wait));
      fold((s.failed ? 1u : 0u) | (s.rejected ? 2u : 0u));
    }
  }
  return h;
}

std::size_t TraceWarehouse::count_in_window(SimTime from, SimTime to) const {
  std::size_t n = 0;
  for_each_in_window(from, to, [&n](const Trace&) { ++n; });
  return n;
}

void CallGraphStore::attach(Tracer& tracer) {
  tracer.add_trace_listener([this](const Trace& t) { ingest(t); });
}

void CallGraphStore::ingest(const Trace& trace) {
  for (const Span& s : trace.spans) {
    if (!s.parent.valid()) {
      ++roots_[s.service.value()];
      continue;
    }
    const std::uint32_t slot = trace.find(s.parent, s.parent_slot);
    if (slot != kNoSlot) {
      ++edges_[key(trace.spans[slot].service, s.service)];
    }
  }
}

std::uint64_t CallGraphStore::edge_count(ServiceId from, ServiceId to) const {
  auto it = edges_.find(key(from, to));
  return it == edges_.end() ? 0 : it->second;
}

std::uint64_t CallGraphStore::root_count(ServiceId service) const {
  auto it = roots_.find(service.value());
  return it == roots_.end() ? 0 : it->second;
}

}  // namespace sora
