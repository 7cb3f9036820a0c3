// Distributed-tracing data model.
//
// Every end-user request carries a trace; each service visit is one span.
// Spans record the message timestamps the SCG model needs: arrival at the
// service, admission (soft-resource slot granted), departure, and the wall
// time blocked on downstream calls. From these we derive the per-service
// processing time PT_si (Section 3.2, Eq. 1-3) and the critical path.
#pragma once

#include <cassert>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/time.h"

namespace sora {

struct CriticalPath;  // trace/critical_path.h

/// Slot value of a span link that was never set.
inline constexpr std::uint32_t kNoSlot = UINT32_MAX;

/// One downstream call issued by a span. `parallel_group` identifies calls
/// issued concurrently (same group fires together); groups execute in
/// ascending order. Async callback edges (fire-and-forget notifications
/// issued as the visit completes — the mechanism that expresses
/// cross-service cycles) carry `async = true` and `parallel_group = -1`:
/// the caller never waits on them, so they contribute nothing to its
/// downstream_wait and are skipped by critical-path extraction.
///
/// `slot` is the child span's index in its trace's spans, copied from the
/// SpanRef the tracer returned when it opened the child; readers reach the
/// child through Trace::find(child, slot) without indexing the trace. It
/// sits in the padding after `async`, so the struct stays 40 bytes.
struct ChildCall {
  SpanId child;
  int parallel_group = 0;
  SimTime issued = 0;    ///< When the caller initiated the call.
  SimTime returned = 0;  ///< When the response came back (0 for async).
  bool async = false;    ///< Fire-and-forget callback; caller never waits.
  std::uint32_t slot = kNoSlot;  ///< The child's index in Trace::spans.
};
static_assert(sizeof(ChildCall) == 40, "ChildCall::slot must fit the padding");

/// One service visit. Spans link to their parent and children by id and by
/// slot (index in Trace::spans); Trace::find checks one against the other.
struct Span {
  SpanId id;
  TraceId trace;
  SpanId parent;  ///< invalid for the root span.
  ServiceId service;
  InstanceId instance;
  int request_class = 0;
  /// The parent's index in Trace::spans, set by Tracer::start_span (unused
  /// on the root). Fills the padding after `request_class`.
  std::uint32_t parent_slot = kNoSlot;

  SimTime arrival = 0;    ///< Request message reached the service (or its
                          ///< connection gate).
  SimTime admitted = 0;   ///< Soft-resource slot granted; processing begins.
  SimTime departure = 0;  ///< Response message left the service.

  /// Total wall time this span spent blocked waiting on >= 1 downstream
  /// call (parallel waits counted once).
  SimTime downstream_wait = 0;

  /// The visit was aborted (replica crash dropped it mid-flight); the span
  /// closed early with an error response. Failed spans are excluded from
  /// goodput/throughput sampling.
  bool failed = false;

  /// The request was shed by the service's admission controller before it
  /// reached a replica (failed is also set — rejection is an error response
  /// — but rejected distinguishes deliberate shedding from crash aborts).
  bool rejected = false;

  // -- latency-budget annotation (stamped at trace completion when SLO
  // analytics is enabled; see obs/budget.h) -----------------------------------
  /// Propagated local deadline at this hop: the end-to-end SLA minus the
  /// processing time of every ancestor (Eq. 1-3 generalized to the whole
  /// span tree). kSimTimeNever when the trace was never annotated.
  SimTime budget_deadline = kSimTimeNever;
  /// budget_deadline - duration(): how much budget was left (negative =
  /// this hop blew its share). Meaningless unless annotated.
  SimTime budget_slack = 0;

  std::vector<ChildCall> children;

  bool budget_annotated() const { return budget_deadline != kSimTimeNever; }

  /// Span response time as observed by the caller.
  SimTime duration() const { return departure - arrival; }

  /// Processing time PT_si: time attributable to this service itself
  /// (queueing + CPU), excluding time blocked on downstream services.
  SimTime processing_time() const { return duration() - downstream_wait; }
};

/// Handle to a span of an open trace, returned by Tracer::start_span.
/// `slot` is the span's index in its trace's span deque, so the tracer
/// reaches the span without searching for it; `id` is the span's globally
/// unique id, checked against the span found at `slot`. A handle is valid
/// until its trace assembles (appending spans does not move earlier ones).
struct SpanRef {
  TraceId trace;
  SpanId id;
  std::uint32_t slot = 0;
};

/// A completed request trace: the root span plus all descendants.
/// Spans are stored in creation order; spans[0] is the root. A deque rather
/// than a vector: appending a span must not invalidate references to spans
/// that callers still hold from Tracer::span().
///
/// A completed trace also carries its critical path, extracted on first use
/// by critical_path_of() and shared by every copy made afterwards (the
/// warehouse's, say). The slot is filled lazily inside a const object, so a
/// trace may be handed to critical_path_of() only on the thread of the
/// experiment that owns it, and its spans must not change once it has been.
struct Trace {
  TraceId id;
  int request_class = 0;
  SimTime start = 0;
  SimTime end = 0;
  std::deque<Span> spans;

  SimTime response_time() const { return end - start; }
  const Span& root() const { return spans.front(); }

  /// Resolve a span link: `slot` when the span there has id `id`, otherwise
  /// kNoSlot — the linked span is missing (a dropped span report in a
  /// hand-built trace). A link whose slot was never set is a bug in whoever
  /// built the trace; debug builds assert on it.
  std::uint32_t find(SpanId id, std::uint32_t slot) const {
    assert(slot != kNoSlot && "span link without a slot");
    return slot < spans.size() && spans[slot].id == id ? slot : kNoSlot;
  }

  /// True when any hop of this request was shed by admission control (the
  /// end-user saw a rejection, not a served response).
  bool rejected() const {
    for (const Span& s : spans) {
      if (s.rejected) return true;
    }
    return false;
  }

 private:
  friend const CriticalPath& critical_path_of(const Trace& trace);
  /// Empty until critical_path_of() first runs on this trace.
  mutable std::shared_ptr<const CriticalPath> critical_path_;
};

}  // namespace sora
