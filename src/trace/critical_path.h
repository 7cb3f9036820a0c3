// Critical-path extraction from completed traces.
//
// The critical path of a call graph (footnote 1 of the paper) is the chain
// of maximal duration from the user request to the final response. We walk
// the span tree from the root, descending at each span into the child call
// of largest duration; sequential calls are all "dominant" in turn but the
// chain keeps the one contributing the most wall time.
#pragma once

#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "trace/span.h"

namespace sora {

/// One hop on the critical path.
struct CriticalHop {
  ServiceId service;
  SpanId span;
  SimTime processing_time = 0;  ///< PT of this hop (queue + CPU, no downstream)
  SimTime span_duration = 0;    ///< full visit duration at this hop
};

struct CriticalPath {
  std::vector<CriticalHop> hops;  ///< root first, deepest hop last.
  SimTime total_duration = 0;     ///< equals the root span's duration.

  bool contains(ServiceId s) const {
    for (const auto& h : hops) {
      if (h.service == s) return true;
    }
    return false;
  }
};

/// Extract the critical path of a completed trace. Pure: walks the spans
/// on every call.
CriticalPath extract_critical_path(const Trace& trace);

/// The critical path of `trace`, extracted on the first call and memoized on
/// the trace (copies made afterwards share it), so the localizer, deadline
/// propagation and budget attribution walk each trace once between them.
/// Only the real extraction is timed, as the "trace.critical_path" profiler
/// stage. Not thread-safe: call it only from the thread of the experiment
/// that owns `trace`, and never after mutating its spans.
const CriticalPath& critical_path_of(const Trace& trace);

/// Sum of processing times of hops strictly above (upstream of) `service`
/// on the critical path; used by deadline propagation:
///   RTT_si <= SLA - sum_{k<i} PT_sk.
/// Returns -1 if the service does not appear on the path.
SimTime upstream_processing_time(const CriticalPath& path, ServiceId service);

}  // namespace sora
