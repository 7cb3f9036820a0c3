// Per-layer probes of the traced run. Each drives one layer through its
// public functions on data taken from the finished experiment, after the
// run's fingerprint was taken, and reports a per-operation CPU cost.
#include <algorithm>
#include <deque>

#include "core/deadline.h"
#include "obs/quantile_sketch.h"
#include "perfbench.h"
#include "trace/critical_path.h"

namespace perfbench {
namespace {

using namespace sora;

// Bound on the spans copied out of the warehouse for the trace probes, so a
// fleet run (hundreds of spans per trace) stays within memory.
constexpr std::size_t kMaxProbeSpans = 2'000'000;
constexpr std::size_t kMaxProbeTraces = 100'000;

/// A fresh simulator runs a schedule/cancel storm: `pending` events kept in
/// flight, `executed` events fired, and cancels in the run's proportion.
double engine_ns_per_event(const WindowCounts& w) {
  const std::uint64_t executed =
      std::clamp<std::uint64_t>(w.events, 100'000, 4'000'000);
  const double cancel_share =
      w.events > 0 ? static_cast<double>(w.cancelled) /
                         static_cast<double>(w.events + w.cancelled)
                   : 0.0;
  const std::size_t pending = std::max<std::size_t>(w.pending, 16);

  struct Storm {
    Simulator sim;
    Rng rng{12345};
    std::uint64_t fired = 0;
    std::uint64_t target = 0;
    double cancel_share = 0.0;
    std::deque<EventHandle> cancellable;

    void arm() {
      sim.schedule_after(1 + static_cast<SimTime>(rng.uniform_int(1000)),
                      [this] { fire(); });
    }
    void fire() {
      if (++fired >= target) return;
      arm();
      if (rng.uniform() < cancel_share) {
        cancellable.push_back(sim.schedule_after(
            1 + static_cast<SimTime>(rng.uniform_int(1000)), [] {}));
        if (cancellable.size() > 8) {
          cancellable.front().cancel();
          cancellable.pop_front();
        }
      }
    }
  };
  Storm storm;
  storm.target = executed;
  storm.cancel_share = cancel_share;
  for (std::size_t i = 0; i < pending; ++i) storm.arm();
  const double t0 = cpu_seconds();
  const std::uint64_t before = storm.sim.events_executed();
  while (storm.fired < storm.target && storm.sim.step()) {
  }
  const double cpu = cpu_seconds() - t0;
  const std::uint64_t ran = storm.sim.events_executed() - before;
  return ran > 0 ? cpu * 1e9 / static_cast<double>(ran) : 0.0;
}

}  // namespace

ProbeResults run_probes(Experiment& exp, SoraFramework* sora,
                        const WindowCounts& window, SpanLog& spans) {
  ProbeResults r;
  {
    SpanLog::Span s(spans, "probe.sim_storm");
    r.ns_per_event = engine_ns_per_event(window);
  }

  // Copies of the run's retained traces, newest last.
  std::vector<Trace> traces;
  {
    SpanLog::Span s(spans, "probe.copy_traces");
    std::size_t total_spans = 0;
    std::size_t retained = exp.warehouse().size();
    exp.warehouse().for_each_in_window(0, kSimTimeNever, [&](const Trace& t) {
      total_spans += t.spans.size();
    });
    const double per_trace =
        retained > 0 ? static_cast<double>(total_spans) / retained : 0.0;
    r.spans_per_trace = per_trace;
    std::size_t keep = std::min(retained, kMaxProbeTraces);
    if (per_trace > 0) {
      keep = std::min(keep, static_cast<std::size_t>(kMaxProbeSpans / per_trace));
    }
    traces.reserve(keep);
    std::size_t index = 0;
    exp.warehouse().for_each_in_window(0, kSimTimeNever, [&](const Trace& t) {
      if (index++ >= retained - keep) traces.push_back(t);
    });
  }
  const double n_traces = static_cast<double>(std::max<std::size_t>(traces.size(), 1));

  {
    SpanLog::Span s(spans, "probe.pool_wait");
    std::vector<SimTime> waits;
    for (const Trace& t : traces) {
      for (const sora::Span& sp : t.spans) waits.push_back(sp.admitted - sp.arrival);
    }
    if (!waits.empty()) {
      const std::size_t k = (waits.size() * 99) / 100;
      std::nth_element(waits.begin(), waits.begin() + static_cast<std::ptrdiff_t>(k),
                       waits.end());
      r.pool_wait_p99_ms = to_msec(waits[k]);
    }
  }

  {
    SpanLog::Span s(spans, "probe.critical_path");
    const double t0 = cpu_seconds();
    for (const Trace& t : traces) (void)extract_critical_path(t);
    r.critical_path_us = (cpu_seconds() - t0) * 1e6 / n_traces;
  }

  {
    SpanLog::Span s(spans, "probe.sketch_record");
    obs::QuantileSketch sketch;
    std::uint64_t n = 0;
    const double t0 = cpu_seconds();
    do {
      for (const Trace& t : traces) {
        sketch.record(static_cast<double>(t.response_time()));
        ++n;
      }
    } while (n < 1'000'000 && !traces.empty());
    r.sketch_record_ns = n > 0 ? (cpu_seconds() - t0) * 1e9 / n : 0.0;
  }

  {
    SpanLog::Span s(spans, "probe.snapshot");
    constexpr int kReps = 50;
    const double t0 = cpu_seconds();
    for (int i = 0; i < kReps; ++i) (void)exp.app().metrics().snapshot();
    r.snapshot_us = (cpu_seconds() - t0) * 1e6 / kReps;
  }

  {
    SpanLog::Span s(spans, "probe.trace_store");
    TraceWarehouse fresh(exp.warehouse().capacity());
    const double t0 = cpu_seconds();
    for (Trace& t : traces) fresh.store(std::move(t));
    r.store_us = (cpu_seconds() - t0) * 1e6 / n_traces;
  }

  if (sora != nullptr) {
    const SimTime now = exp.sim().now();
    const SimTime period = sora->options().control_period;
    ServiceId critical = sora->last_report().critical;
    if (!critical.valid()) critical = exp.app().services().front()->id();
    {
      SpanLog::Span s(spans, "probe.deadline_prop");
      constexpr int kReps = 5;
      const double t0 = cpu_seconds();
      for (int i = 0; i < kReps; ++i) {
        (void)propagate_deadline(exp.warehouse(), now - period, now, critical,
                                 sora->options().sla, sora->options().deadline);
      }
      r.deadline_prop_ms = (cpu_seconds() - t0) * 1e3 / kReps;
    }
    {
      SpanLog::Span s(spans, "probe.localize");
      // The framework owns a mutable localizer; analyze() only refreshes
      // its report scratch, after the run's fingerprint was taken.
      auto& localizer = const_cast<CriticalServiceLocalizer&>(sora->localizer());
      constexpr int kReps = 50;
      const double t0 = cpu_seconds();
      for (int i = 0; i < kReps; ++i) (void)localizer.analyze();
      r.localize_us = (cpu_seconds() - t0) * 1e6 / kReps;
      r.localizer_round_ops =
          static_cast<double>(localizer.last_round_cost().total());
    }
  }
  return r;
}

}  // namespace perfbench
