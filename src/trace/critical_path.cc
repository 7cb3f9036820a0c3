#include "trace/critical_path.h"

#include <memory>
#include <unordered_map>

#include "obs/profiler.h"

namespace sora {

namespace {

using SpanIndex = std::unordered_map<std::uint64_t, const Span*>;

SpanIndex index_spans(const Trace& trace) {
  SpanIndex idx;
  idx.reserve(trace.spans.size());
  for (const Span& s : trace.spans) idx.emplace(s.id.value(), &s);
  return idx;
}

}  // namespace

CriticalPath extract_critical_path(const Trace& trace) {
  CriticalPath path;
  if (trace.spans.empty()) return path;

  const SpanIndex idx = index_spans(trace);
  const Span* current = &trace.root();
  path.total_duration = current->duration();

  while (current != nullptr) {
    path.hops.push_back(CriticalHop{current->service, current->id,
                                    current->processing_time(),
                                    current->duration()});
    // Descend into the child visit of maximal duration: it dominates the
    // downstream wall time of this span. Async callback children are
    // fire-and-forget — the caller's response never waits on them — so they
    // can never sit on the critical path, however long they run.
    const Span* next = nullptr;
    SimTime best = -1;
    for (const ChildCall& call : current->children) {
      if (call.async) continue;
      auto it = idx.find(call.child.value());
      if (it == idx.end()) continue;  // child span missing (defensive)
      const SimTime d = it->second->duration();
      if (d > best) {
        best = d;
        next = it->second;
      }
    }
    current = next;
  }
  return path;
}

const CriticalPath& critical_path_of(const Trace& trace) {
  if (trace.critical_path_ == nullptr) {
    SORA_PROFILE_STAGE("trace.critical_path");
    trace.critical_path_ =
        std::make_shared<const CriticalPath>(extract_critical_path(trace));
  }
  return *trace.critical_path_;
}

SimTime upstream_processing_time(const CriticalPath& path, ServiceId service) {
  SimTime sum = 0;
  for (const auto& hop : path.hops) {
    if (hop.service == service) return sum;
    sum += hop.processing_time;
  }
  return -1;
}

}  // namespace sora
