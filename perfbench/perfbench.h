// Shared declarations of the benchmark binary (see README.md).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/sora.h"
#include "harness/experiment.h"
#include "topo/synth.h"
#include "workload/replay.h"

namespace perfbench {

// -- host clocks ----------------------------------------------------------------

/// Process CPU time (getrusage user + sys), seconds.
double cpu_seconds();
/// Monotonic wall clock, seconds.
double wall_seconds();
/// Process peak resident set size, MB.
double peak_rss_mb();

/// The frozen calibration kernels (calibrate.cc). Construction allocates
/// and touches every buffer; run() allocates nothing.
class HostProbe {
 public:
  /// CPU seconds of one run of each kernel.
  struct Sample {
    double compute_s = 0.0;
    double memory_s = 0.0;
  };
  struct alignas(64) Node {
    std::uint32_t next = 0;
  };

  HostProbe();
  Sample run();
  /// Memory the kernels hold resident for the life of the process.
  double resident_mb() const;

 private:
  std::vector<std::uint64_t> heap_;
  std::vector<std::uint64_t> table_;
  std::vector<Node> chase_;
};

/// Heap allocations made through operator new since process start
/// (counted by the replacement operator new in main.cc).
struct AllocCount {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};
AllocCount alloc_count();

// -- spans of the traced run ----------------------------------------------------

/// In-memory span recorder for the traced run, written out as Chrome
/// trace_event JSON when the run ends. A disabled log records nothing.
/// Recording allocates nothing until `kReserved` spans are exceeded, so the
/// traced rep's allocation counts compare equal to an untraced rep's.
class SpanLog {
 public:
  static constexpr std::size_t kReserved = 4096;
  explicit SpanLog(bool enabled);
  bool enabled() const { return enabled_; }

  /// RAII span: open on construction, closed on destruction. Spans nest by
  /// scope, and trace viewers nest them by their times.
  class Span {
   public:
    /// `name` must be a string literal (spans store the pointer).
    Span(SpanLog& log, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    SpanLog& log_;
    std::size_t index_ = 0;
  };

  /// Chrome trace_event JSON (complete "X" events; args carry CPU ms).
  void write_chrome_json(const std::string& path) const;
  std::size_t size() const { return records_.size(); }

 private:
  struct Record {
    const char* name = "";
    double wall_start = 0.0;
    double wall_end = 0.0;
    double cpu_start = 0.0;
    double cpu_end = 0.0;
  };
  bool enabled_;
  double origin_ = wall_seconds();
  std::vector<Record> records_;
};

// -- workloads ------------------------------------------------------------------

/// Synthesized inputs of one rep (only the fleet workload has any).
struct Inputs {
  std::optional<sora::topo::Topology> topology;
  std::optional<sora::ClusterTrace> trace;
};

/// One load generator of a scenario: its own injection counter (conservation
/// check) and its stop (the rep drains in-flight requests before its
/// outputs are read).
struct Load {
  std::function<std::uint64_t()> injected;
  std::function<void()> stop;
};

/// A constructed, not yet started experiment.
struct Scenario {
  std::unique_ptr<sora::Experiment> exp;
  sora::SoraFramework* sora = nullptr;  ///< null on uncontrolled workloads
  std::vector<Load> load;
};

struct Workload {
  const char* name;
  /// Simulated warm-up, part of set-up; ends before the first control
  /// round (15 s).
  sora::SimTime warmup;
  /// Simulated length of the timed window that follows the warm-up.
  sora::SimTime window;
  /// The window runs in chunks of this simulated length, with the host
  /// sampled by the calibration kernels between chunks (~0.15-0.6 s of CPU
  /// each).
  sora::SimTime chunk;
  /// How a phase's CPU follows the calibration kernels: it scales as
  /// compute^compute_exp x memory^memory_exp (see workloads.cc).
  struct HostExponents {
    double compute_exp;
    double memory_exp;
  };
  HostExponents window_host;
  HostExponents setup_host;
  HostExponents teardown_host;
  std::function<Inputs()> synthesize;
  std::function<Scenario(const Inputs&, std::uint64_t seed)> construct;
};

/// The workloads, by name; null when unknown.
const Workload* find_workload(const std::string& name);
std::vector<std::string> workload_names();

// -- output checks --------------------------------------------------------------

/// Counts an output check reads at the end of a rep.
struct RunCounts {
  std::uint64_t generated = 0;   ///< load generators' own injection counters
  std::uint64_t injected = 0;    ///< application-side
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t open_traces = 0;  ///< tracer: requests still in flight
  std::uint64_t recorded = 0;     ///< latency recorder: served requests
  std::uint64_t recorded_shed = 0;
  std::uint64_t served = 0;  ///< served requests seen by the root listener
  std::uint64_t traces_completed = 0;  ///< tracer
  std::uint64_t traces_stored = 0;     ///< warehouse
  bool controlled = false;
  std::uint64_t decisions = 0;
  std::uint64_t control_rounds = 0;
  std::uint64_t expected_rounds = 0;
};

struct CheckResult {
  std::string name;
  bool ok = false;
  std::string detail;
};

std::vector<CheckResult> check_outputs(const RunCounts& c);
/// Feeds each check a copy of `c` corrupted in the field it guards and
/// returns one result per check: ok when the check rejected the copy.
std::vector<CheckResult> self_test_checks(const RunCounts& c);

// -- probes of the traced run -----------------------------------------------------

/// Per-layer costs measured on a finished experiment (traced run only).
struct ProbeResults {
  double ns_per_event = 0.0;
  double store_us = 0.0;
  double critical_path_us = 0.0;
  double spans_per_trace = 0.0;
  double pool_wait_p99_ms = 0.0;
  double sketch_record_ns = 0.0;
  double snapshot_us = 0.0;
  double deadline_prop_ms = 0.0;
  double localize_us = 0.0;
  double localizer_round_ops = 0.0;
};

struct WindowCounts {
  std::uint64_t events = 0;
  std::uint64_t cancelled = 0;
  std::size_t pending = 0;
};

ProbeResults run_probes(sora::Experiment& exp, sora::SoraFramework* sora,
                        const WindowCounts& window, SpanLog& spans);

}  // namespace perfbench
