#include "trace/critical_path.h"

#include <memory>

#include "obs/profiler.h"

namespace sora {

CriticalPath extract_critical_path(const Trace& trace) {
  CriticalPath path;
  if (trace.spans.empty()) return path;

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
      const std::uint32_t slot = trace.find(call.child, call.slot);
      if (slot == kNoSlot) continue;  // child span missing (defensive)
      const Span& child = trace.spans[slot];
      const SimTime d = child.duration();
      if (d > best) {
        best = d;
        next = &child;
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
