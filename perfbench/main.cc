// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// One single-threaded process per workload and seed. A rep is set-up
// (input synthesis, Experiment construction, controller wiring, start_all
// and a simulated warm-up), a timed simulated window, and teardown. Host
// costs are process CPU time, scaled to a reference host speed by
// calibration kernels run around each measured interval (calibrate.cc);
// simulated results are deterministic per seed.
//
// --trace 0 repeats the rep until --seconds of wall time are used (at least
// three reps) and reports the end-to-end metrics as medians over reps.
// --trace 1 runs untraced reps for half of --seconds (at least two), then
// one traced rep whose window advances in 1-simulated-second slices inside
// recorded spans, and probes each layer; it reports the per-layer metrics
// and writes the spans as Chrome trace_event JSON (--trace-out).
//
// Every rep's outputs are checked, every rep of a run must produce the same
// fingerprint, and the last stdout line is the JSON result.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <new>
#include <sstream>

#include "perfbench.h"

// -- counting operator new ---------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_calls{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(n != 0 ? n : 1);
  } else if (posix_memalign(&p, align, n != 0 ? n : 1) != 0) {
    p = nullptr;
  }
  return p;
}
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n, 0)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  if (void* p = counted_alloc(n, static_cast<std::size_t>(a))) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return operator new(n, a);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, 0);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {

AllocCount alloc_count() {
  return {g_alloc_calls.load(std::memory_order_relaxed),
          g_alloc_bytes.load(std::memory_order_relaxed)};
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// -- spans --------------------------------------------------------------------------

SpanLog::SpanLog(bool enabled) : enabled_(enabled) {
  if (!enabled_) return;
  records_.reserve(kReserved);
}

SpanLog::Span::Span(SpanLog& log, const char* name) : log_(log) {
  if (!log_.enabled_) return;
  index_ = log_.records_.size();
  Record r;
  r.name = name;
  r.wall_start = wall_seconds();
  r.cpu_start = cpu_seconds();
  log_.records_.push_back(r);
}

SpanLog::Span::~Span() {
  if (!log_.enabled_) return;
  Record& r = log_.records_[index_];
  r.cpu_end = cpu_seconds();
  r.wall_end = wall_seconds();
}

void SpanLog::write_chrome_json(const std::string& path) const {
  std::ofstream os(path);
  os << "{\"traceEvents\":[\n";
  char buf[512];
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"cpu_ms\":%.3f}}"
                  "%s\n",
                  r.name, (r.wall_start - origin_) * 1e6,
                  (r.wall_end - r.wall_start) * 1e6,
                  (r.cpu_end - r.cpu_start) * 1e3,
                  i + 1 < records_.size() ? "," : "");
    os << buf;
  }
  os << "],\"displayTimeUnit\":\"ms\"}\n";
}

namespace {

using namespace sora;

// -- one rep ------------------------------------------------------------------------

/// CPU and wall time of one measured interval, with the calibration
/// kernels' CPU just before and just after it.
struct Timed {
  double cpu_s = 0.0;
  double wall_s = 0.0;
  HostProbe::Sample before;
  HostProbe::Sample after;
};

/// Samples the host with the calibration kernels between measured
/// intervals, so that each interval is scaled by the host speed around it
/// (host speed moves within a second). An interval opens with the sample
/// that closed the one before it.
class HostClock {
 public:
  HostClock() : last_(probe_.run()) {}

  /// Takes a fresh sample, after unmeasured work.
  void resample(SpanLog& spans) {
    SpanLog::Span s(spans, "calibrate");
    last_ = probe_.run();
  }

  template <typename Fn>
  Timed time(SpanLog& spans, Fn&& fn) {
    Timed t;
    t.before = last_;
    const double wall0 = wall_seconds();
    const double cpu0 = cpu_seconds();
    fn();
    t.cpu_s = cpu_seconds() - cpu0;
    t.wall_s = wall_seconds() - wall0;
    resample(spans);
    t.after = last_;
    return t;
  }

  double resident_mb() const { return probe_.resident_mb(); }

 private:
  HostProbe probe_;
  HostProbe::Sample last_;
};

struct Rep {
  double synth_s = 0.0;
  double construct_s = 0.0;
  double start_s = 0.0;
  double warmup_s = 0.0;
  Timed setup;
  std::vector<Timed> chunks;  ///< the window, chunk by chunk
  Timed teardown;
  double window_cpu_s = 0.0;
  double window_wall_s = 0.0;
  double window_sim_s = 0.0;
  /// The host times at reference host speed.
  double scaled_setup_s = 0.0;
  double scaled_cpu_ms_per_sim_s = 0.0;
  double scaled_teardown_s = 0.0;
  WindowCounts window;
  AllocCount window_alloc;
  std::uint64_t window_completed = 0;
  std::uint64_t window_stored = 0;
  std::uint64_t evicted = 0;
  double pool_resizes = 0.0;
  std::uint64_t snapshots = 0;
  std::vector<obs::StageStats> window_stages;
  ExperimentSummary summary;
  std::size_t sub = 0;  ///< index of the simulated seed within the run
  /// Client latency of every served request, exact to the simulator's
  /// microsecond (the summary's sketch quantizes to 1% buckets).
  std::vector<SimTime> latencies;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  RunCounts counts;
  std::string fingerprint;
  std::optional<ProbeResults> probes;
};

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char ch : s) {
    h ^= ch;
    h *= 1099511628211ULL;
  }
  return h;
}

const obs::StageStats* find_stage(const std::vector<obs::StageStats>& stages,
                                  const char* name) {
  for (const auto& s : stages) {
    if (s.stage == name) return &s;
  }
  return nullptr;
}

/// Advance to `until`, in 1-simulated-second slices inside spans when
/// tracing.
void advance(Experiment& exp, SimTime until, SpanLog& spans) {
  if (!spans.enabled()) {
    exp.run_until(until);
    return;
  }
  while (exp.sim().now() < until) {
    const SimTime next = std::min(until, exp.sim().now() + sec(1));
    SpanLog::Span s(spans, "slice");
    exp.run_until(next);
  }
}

// CPU seconds of the calibration kernels on the reference host (a 4-vCPU
// Intel Xeon VM running one benchmark: medians over a 60-second run).
constexpr HostProbe::Sample kReferenceKernels{0.0185, 0.0322};

/// `t`'s CPU at reference host speed: measured x (reference compute /
/// compute)^compute_exp x (reference memory / memory)^memory_exp, with the
/// mean of the kernels' CPU just before and just after the interval.
double scaled_s(const Timed& t, Workload::HostExponents e) {
  const double compute = 0.5 * (t.before.compute_s + t.after.compute_s);
  const double memory = 0.5 * (t.before.memory_s + t.after.memory_s);
  return t.cpu_s *
         std::pow(kReferenceKernels.compute_s / compute, e.compute_exp) *
         std::pow(kReferenceKernels.memory_s / memory, e.memory_exp);
}

// Simulated results differ from seed to seed far more than between runs of
// one seed (which repeat exactly), so a run simulates kSubSeeds seeds
// derived from --seed and pools their requests. Reps cycle through them, so
// each is simulated again for the determinism checks.
constexpr std::size_t kSubSeeds = 3;

std::uint64_t sub_seed(std::uint64_t seed, std::size_t sub) {
  return seed * kSubSeeds + sub;
}

/// Nearest-rank percentile of `v` (sorted in place), in ms.
double percentile_ms(std::vector<SimTime>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return to_msec(v[std::clamp<std::size_t>(rank, 1, v.size()) - 1]);
}

// Longest simulated drain after the window before a rep counts its still
// unfinished requests as failed.
constexpr SimTime kMaxDrain = minutes(5);

Rep run_rep(const Workload& w, std::uint64_t seed, SpanLog& spans,
            HostClock& clock) {
  Rep r;
  SpanLog::Span rep_span(spans, "rep");
  Inputs inputs;
  Scenario sc;
  std::vector<SimTime>& latencies = r.latencies;
  r.setup = clock.time(spans, [&] {
    SpanLog::Span setup(spans, "setup");
    const double c0 = cpu_seconds();
    {
      SpanLog::Span s(spans, "setup.synthesize");
      inputs = w.synthesize();
    }
    const double c1 = cpu_seconds();
    {
      SpanLog::Span s(spans, "setup.construct");
      sc = w.construct(inputs, seed);
      Simulator& sim = sc.exp->sim();
      sc.exp->tracer().add_root_listener([&latencies, &sim](const Trace& t) {
        if (!t.rejected()) latencies.push_back(sim.now() - t.start);
      });
    }
    const double c2 = cpu_seconds();
    {
      SpanLog::Span s(spans, "setup.start");
      sc.exp->start_all();
    }
    const double c3 = cpu_seconds();
    {
      SpanLog::Span s(spans, "setup.warmup");
      advance(*sc.exp, w.warmup, spans);
    }
    const double c4 = cpu_seconds();
    r.synth_s = c1 - c0;
    r.construct_s = c2 - c1;
    r.start_s = c3 - c2;
    r.warmup_s = c4 - c3;
  });
  Experiment& exp = *sc.exp;
  const SimTime end = w.warmup + w.window;
  r.chunks.reserve(static_cast<std::size_t>((w.window + w.chunk - 1) / w.chunk));

  const auto stages0 = obs::OverheadProfiler::global().stats();
  const std::uint64_t events0 = exp.sim().events_executed();
  const std::uint64_t cancelled0 = exp.sim().events_cancelled();
  const std::uint64_t completed0 = exp.app().completed();
  const std::uint64_t stored0 = exp.warehouse().total_stored();
  const std::size_t snapshots0 = exp.metrics_snapshots().size();
  const AllocCount alloc0 = alloc_count();
  {
    SpanLog::Span s(spans, "window");
    for (SimTime t = w.warmup; t < end;) {
      t = std::min(end, t + w.chunk);
      r.chunks.push_back(clock.time(spans, [&] {
        SpanLog::Span chunk(spans, "window.chunk");
        advance(exp, t, spans);
      }));
      r.window_cpu_s += r.chunks.back().cpu_s;
      r.window_wall_s += r.chunks.back().wall_s;
    }
  }
  const AllocCount alloc1 = alloc_count();
  r.window_alloc = {alloc1.calls - alloc0.calls, alloc1.bytes - alloc0.bytes};
  r.window_sim_s = to_sec(w.window);
  r.window.events = exp.sim().events_executed() - events0;
  r.window.cancelled = exp.sim().events_cancelled() - cancelled0;
  r.window.pending = exp.sim().events_pending();
  r.window_completed = exp.app().completed() - completed0;
  r.window_stored = exp.warehouse().total_stored() - stored0;
  r.snapshots = exp.metrics_snapshots().size() - snapshots0;
  r.window_stages = obs::OverheadProfiler::global().stats_since(stages0);

  {
    // Stop the load and let every issued request finish, so that what a
    // rep leaves unfinished is a failure, not an accident of the cut.
    SpanLog::Span s(spans, "drain");
    for (const Load& l : sc.load) l.stop();
    const SimTime limit = exp.sim().now() + kMaxDrain;
    while (exp.tracer().open_traces() > 0 && exp.sim().now() < limit) {
      SpanLog::Span slice(spans, "slice");
      exp.run_until(exp.sim().now() + sec(1));
    }
  }

  {
    SpanLog::Span s(spans, "outputs");
    r.summary = exp.summary();
    r.p50_ms = percentile_ms(latencies, 50.0);
    r.p99_ms = percentile_ms(latencies, 99.0);
    r.evicted = exp.warehouse().total_evicted();
    exp.app().publish_metrics();
    for (const auto& series : exp.app().metrics().snapshot().series) {
      if (series.name == "pool.resizes") r.pool_resizes += series.value;
    }

    RunCounts& c = r.counts;
    for (const Load& l : sc.load) c.generated += l.injected();
    c.injected = exp.app().injected();
    c.completed = exp.app().completed();
    c.shed = exp.app().shed();
    c.open_traces = exp.tracer().open_traces();
    c.recorded = exp.recorder().count();
    c.recorded_shed = exp.recorder().shed();
    c.served = latencies.size();
    c.traces_completed = exp.tracer().traces_completed();
    c.traces_stored = exp.warehouse().total_stored();
    c.controlled = sc.sora != nullptr;
    c.decisions = exp.decision_log().size();
    if (const auto* round = find_stage(r.summary.controller_overhead,
                                       "sora.control_round")) {
      c.control_rounds = round->calls;
    }
    if (sc.sora != nullptr) {
      c.expected_rounds = static_cast<std::uint64_t>(
          exp.sim().now() / sc.sora->options().control_period);
    }

    std::ostringstream fp;
    fp.precision(17);
    const ExperimentSummary& sum = r.summary;
    fp << sum.injected << '|' << sum.completed << '|' << sum.shed << '|'
       << sum.mean_ms << '|' << sum.p50_ms << '|' << sum.p95_ms << '|'
       << sum.p99_ms << '|' << sum.goodput_rps << '|' << sum.good_fraction
       << '|' << r.p50_ms << '|' << r.p99_ms << '|'
       << exp.sim().events_executed() << '|' << exp.sim().events_cancelled()
       << '|' << exp.warehouse().digest() << '|'
       << exp.warehouse().total_stored() << '|' << r.evicted << '|'
       << r.pool_resizes << '|';
    std::ostringstream log;
    exp.export_decision_log(log);
    fp << c.decisions << '|' << fnv1a(log.str());
    r.fingerprint = fp.str();
  }

  if (spans.enabled()) {
    SpanLog::Span s(spans, "probes");
    r.probes = run_probes(exp, sc.sora, r.window, spans);
  }

  clock.resample(spans);  // the drain and read-out ran since the last sample
  r.teardown = clock.time(spans, [&] {
    SpanLog::Span s(spans, "teardown");
    sc = Scenario{};
    inputs = Inputs{};
  });

  r.scaled_setup_s = scaled_s(r.setup, w.setup_host);
  for (const Timed& t : r.chunks) {
    r.scaled_cpu_ms_per_sim_s += scaled_s(t, w.window_host);
  }
  r.scaled_cpu_ms_per_sim_s *= 1e3 / r.window_sim_s;
  r.scaled_teardown_s = scaled_s(r.teardown, w.teardown_host);
  return r;
}

// -- reporting ----------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <typename Fn>
double median_of(const std::vector<Rep>& reps, Fn&& get) {
  std::vector<double> v;
  v.reserve(reps.size());
  for (const Rep& r : reps) v.push_back(get(r));
  return median(v);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_result(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
       << metrics[i].value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

double raw_cpu_ms_per_sim_s(const Rep& r) {
  return r.window_cpu_s * 1e3 / r.window_sim_s;
}

/// Checks every rep's outputs, and that reps of one simulated seed agree:
/// same fingerprint, and same allocation counts. A rep that is the first in
/// the process to reach a code path also builds that path's lazily created
/// statics (profiler stages, name tables), so allocation counts are compared
/// only among reps from index `settled` on, once every seed has run once.
/// Prints each verdict.
bool verify(const std::vector<Rep>& reps, std::size_t settled) {
  bool ok = true;
  auto report = [&ok](const CheckResult& c) {
    std::cout << "check " << c.name << ": " << (c.ok ? "ok" : "FAILED") << " ("
              << c.detail << ")\n";
    ok = ok && c.ok;
  };
  for (const CheckResult& c : check_outputs(reps.front().counts)) report(c);
  for (const CheckResult& c : self_test_checks(reps.front().counts)) report(c);
  std::size_t repeats = 0;
  std::size_t alloc_pairs = 0;
  for (std::size_t i = 1; i < reps.size(); ++i) {
    const Rep& r = reps[i];
    const std::string rep = "rep " + std::to_string(i + 1);
    for (const CheckResult& c : check_outputs(r.counts)) {
      if (!c.ok) report({c.name, false, rep + ": " + c.detail});
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (reps[j].sub != r.sub) continue;
      ++repeats;
      if (r.fingerprint != reps[j].fingerprint) {
        report({"fingerprint", false,
                rep + " diverged: " + r.fingerprint + " vs " + reps[j].fingerprint});
      }
      break;
    }
    for (std::size_t j = settled; j < i; ++j) {
      if (reps[j].sub != r.sub) continue;
      ++alloc_pairs;
      if (r.window_alloc.calls != reps[j].window_alloc.calls ||
          r.window_alloc.bytes != reps[j].window_alloc.bytes) {
        report({"alloc_counts", false,
                rep + ": " + std::to_string(r.window_alloc.calls) +
                    " allocations vs " + std::to_string(reps[j].window_alloc.calls)});
      }
      break;
    }
  }
  report({"fingerprint", repeats > 0,
          std::to_string(repeats) + " repeated seeds compared"});
  report({"alloc_counts", alloc_pairs > 0,
          std::to_string(alloc_pairs) + " repeated seeds compared"});
  return ok;
}

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>]\n(--trace-out is required with "
               "--trace 1)\nworkloads:";
  for (const auto& n : workload_names()) std::cerr << ' ' << n;
  std::cerr << "\n";
  return 2;
}

int run(int argc, char** argv) {
  std::string workload_name, trace_out;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload_name = val;
    } else if (arg == "--seed") {
      seed = std::strtoull(val, &end, 10);
      have_seed = end != val && *end == '\0';
    } else if (arg == "--seconds") {
      seconds = std::strtod(val, &end);
      if (end == val || *end != '\0') seconds = 0.0;
    } else if (arg == "--trace") {
      trace = std::strcmp(val, "0") == 0 ? 0 : std::strcmp(val, "1") == 0 ? 1 : -1;
    } else if (arg == "--trace-out") {
      trace_out = val;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  const Workload* w = find_workload(workload_name);
  if (w == nullptr) return usage("unknown or missing --workload");
  if (!have_seed) return usage("missing or malformed --seed");
  if (!(seconds > 0.0)) return usage("missing or non-positive --seconds");
  if (trace < 0) return usage("--trace must be 0 or 1");
  if (trace == 1 && trace_out.empty()) return usage("--trace 1 needs --trace-out");

  // Experiment reads these silently; any of them would change the workload.
  for (const char* var : {"SORA_SEED", "SORA_SIM_SHARDS", "SORA_SIM_THREADS",
                          "SORA_NET_LATENCY_US", "SORA_CTL_PORT"}) {
    if (std::getenv(var) != nullptr) {
      std::cerr << "perfbench: refusing to run with " << var
                << " set; it would change the workload\n";
      return 2;
    }
  }

  std::cout << "workload " << w->name << ", seed " << seed << ", warm-up "
            << to_sec(w->warmup) << " sim-s, window " << to_sec(w->window)
            << " sim-s, " << (trace ? "traced" : "untraced") << "\n";

  const double start = wall_seconds();
  const double untraced_budget = trace ? seconds / 2 : seconds;
  // Enough reps that one seed runs twice after every seed has run once.
  const std::size_t settled = trace ? 1 : kSubSeeds;
  const std::size_t min_reps = trace ? 2 : 2 * kSubSeeds + 1;
  constexpr std::size_t kMaxReps = 300;
  std::vector<Rep> reps;
  reps.reserve(kMaxReps + 1);  // references into it outlive the traced rep
  double peak_rss = 0.0;
  SpanLog off(false);
  HostClock clock;
  double rep_wall = 0.0;
  while (reps.size() < kMaxReps) {
    const double rep_start = wall_seconds();
    if (reps.size() >= min_reps && rep_start - start + rep_wall > untraced_budget) {
      break;
    }
    const std::size_t sub = trace ? 0 : reps.size() % kSubSeeds;
    reps.push_back(run_rep(*w, sub_seed(seed, sub), off, clock));
    rep_wall = wall_seconds() - rep_start;
    Rep& r = reps.back();
    r.sub = sub;
    if (reps.size() > kSubSeeds) r.latencies = {};  // only firsts are pooled
    // Peak RSS over one rep per seed: later reps' heap fragmentation would
    // make it grow with the rep count, i.e. with host speed. The kernels'
    // buffers stay resident throughout and are not the program's.
    if (reps.size() <= kSubSeeds) peak_rss = peak_rss_mb() - clock.resident_mb();
    std::cout << "rep " << reps.size() << " (seed " << sub_seed(seed, sub)
              << "): CPU setup " << r.setup.cpu_s << " s, window "
              << r.window_cpu_s << " s, teardown " << r.teardown.cpu_s
              << " s; at reference speed " << r.scaled_setup_s << " s, "
              << r.scaled_cpu_ms_per_sim_s << " ms/sim-s, " << r.scaled_teardown_s
              << " s; kernels " << r.setup.before.compute_s << " / "
              << r.setup.before.memory_s << " s\n";
  }

  // Simulated results pool the first rep of every simulated seed.
  const std::size_t distinct = std::min(reps.size(), trace ? 1 : kSubSeeds);
  std::vector<SimTime> pooled;
  double goodput = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < distinct; ++i) {
    const Rep& r = reps[i];
    pooled.insert(pooled.end(), r.latencies.begin(), r.latencies.end());
    goodput += r.summary.goodput_rps / static_cast<double>(distinct);
    attempted += r.counts.injected;
    failed += r.counts.recorded_shed + r.counts.open_traces;
  }
  const Rep& first = reps.front();

  std::vector<Metric> metrics;
  bool correct = true;
  if (trace == 0) {
    correct = verify(reps, settled);
    metrics = {
        {"cpu_ms_per_sim_s",
         median_of(reps, [](const Rep& r) { return r.scaled_cpu_ms_per_sim_s; }),
         "ms"},
        {"setup_s",
         median_of(reps, [](const Rep& r) { return r.scaled_setup_s; }), "s"},
        {"teardown_s",
         median_of(reps, [](const Rep& r) { return r.scaled_teardown_s; }),
         "s"},
        {"peak_rss_mb", peak_rss, "MB"},
        {"sim_p50_ms", percentile_ms(pooled, 50.0), "ms"},
        {"sim_p99_ms", percentile_ms(pooled, 99.0), "ms"},
        {"sim_goodput_rps", goodput, "req/s"},
    };
    std::cout << "reps " << reps.size() << ", simulated latency over "
              << pooled.size() << " served requests of " << distinct
              << " seeds\n";
  } else {
    SpanLog spans(true);
    reps.push_back(run_rep(*w, sub_seed(seed, 0), spans, clock));
    const Rep& traced = reps.back();
    std::cout << "traced rep: CPU setup " << traced.setup.cpu_s << " s, window "
              << traced.window_cpu_s << " s, teardown " << traced.teardown.cpu_s
              << " s\n";
    correct = verify(reps, settled);
    const std::vector<Rep> untraced(reps.begin(), reps.end() - 1);
    const ProbeResults& p = *traced.probes;
    const double window_s = traced.window_sim_s;
    auto stage = [&traced](const char* name) {
      const obs::StageStats* st = find_stage(traced.window_stages, name);
      return st != nullptr ? *st : obs::StageStats{};
    };
    const obs::StageStats round = stage("sora.control_round");
    const obs::StageStats cp = stage("trace.critical_path");
    const obs::StageStats deadline = stage("sora.deadline_prop");
    const double untraced_raw = median_of(untraced, raw_cpu_ms_per_sim_s);
    const double spans_in_window =
        static_cast<double>(traced.window_stored) * p.spans_per_trace;

    // Estimated CPU of each layer over the window, from the probes' unit
    // costs and the window's counts; what is left is the service substrate
    // and workload generators. An estimate: probe unit costs are measured on
    // warm caches and the profiler stages on the wall clock.
    const double engine_ms = p.ns_per_event * traced.window.events * 1e-6;
    const double trace_ms = p.store_us * traced.window_stored * 1e-3;
    const double record_ms =
        p.sketch_record_ns *
            (static_cast<double>(traced.window_completed) + spans_in_window) *
            1e-6 +
        p.snapshot_us * traced.snapshots * 1e-3;
    const double control_ms =
        (round.total_us + std::max(0.0, cp.total_us - deadline.total_us)) *
        1e-3;
    const double residual =
        (untraced_raw * window_s - engine_ms - trace_ms - record_ms -
         control_ms) /
        window_s;
    const double completed = static_cast<double>(
        std::max<std::uint64_t>(traced.window_completed, 1));

    metrics = {
        {"sim.events", static_cast<double>(traced.window.events), "count"},
        {"sim.events_cancelled", static_cast<double>(traced.window.cancelled),
         "count"},
        {"sim.ns_per_event", p.ns_per_event, "ns"},
        {"svc.pool_wait_p99_ms", p.pool_wait_p99_ms, "ms"},
        {"svc.pool_resizes", traced.pool_resizes, "count"},
        {"svc.residual_cpu_ms_per_sim_s", residual, "ms"},
        {"admission.shed_frac",
         static_cast<double>(first.summary.shed) /
             static_cast<double>(std::max<std::uint64_t>(first.summary.injected, 1)),
         "fraction"},
        {"trace.traces_stored", static_cast<double>(traced.window_stored),
         "count"},
        {"trace.spans_per_trace", p.spans_per_trace, "count"},
        {"trace.warehouse_evicted", static_cast<double>(traced.evicted),
         "count"},
        {"trace.store_us", p.store_us, "us"},
        {"trace.critical_path_us", p.critical_path_us, "us"},
        {"trace.critical_path_calls", static_cast<double>(cp.calls), "count"},
        {"record.sketch_record_ns", p.sketch_record_ns, "ns"},
        {"record.snapshot_us", p.snapshot_us, "us"},
        {"control.rounds", static_cast<double>(round.calls), "count"},
        {"control.decisions", static_cast<double>(traced.counts.decisions),
         "count"},
        {"control.round_ms", round.mean_us() * 1e-3, "ms"},
        {"control.deadline_prop_ms", p.deadline_prop_ms, "ms"},
        {"control.localize_us", p.localize_us, "us"},
        {"control.localizer_round_ops", p.localizer_round_ops, "count"},
        {"topo.synth_s", median_of(untraced, [](const Rep& r) { return r.synth_s; }),
         "s"},
        {"harness.construct_s",
         median_of(untraced, [](const Rep& r) { return r.construct_s; }), "s"},
        {"harness.start_s",
         median_of(untraced, [](const Rep& r) { return r.start_s; }), "s"},
        {"harness.warmup_s",
         median_of(untraced, [](const Rep& r) { return r.warmup_s; }), "s"},
        {"harness.wall_ms_per_sim_s",
         median_of(untraced,
                   [](const Rep& r) { return r.window_wall_s * 1e3 / r.window_sim_s; }),
         "ms"},
        {"harness.raw_cpu_ms_per_sim_s", untraced_raw, "ms"},
        {"harness.calibration_compute_ms",
         median_of(untraced,
                   [](const Rep& r) { return r.setup.before.compute_s * 1e3; }),
         "ms"},
        {"harness.calibration_memory_ms",
         median_of(untraced,
                   [](const Rep& r) { return r.setup.before.memory_s * 1e3; }),
         "ms"},
        {"harness.trace_overhead_ms_per_sim_s",
         raw_cpu_ms_per_sim_s(traced) - untraced_raw, "ms"},
        {"alloc.per_request", reps[1].window_alloc.calls / completed, "count"},
        {"alloc.bytes_per_request", reps[1].window_alloc.bytes / completed,
         "bytes"},
    };
    spans.write_chrome_json(trace_out);
    std::cout << "spans: " << spans.size() << " written to " << trace_out
              << "\nsvc.residual_cpu_ms_per_sim_s is an estimate: window CPU "
                 "minus probe-estimated engine "
              << engine_ms << " ms, trace " << trace_ms << " ms, record "
              << record_ms << " ms and control " << control_ms << " ms\n";
  }

  for (const Metric& m : metrics) {
    std::cout << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  std::cout << "attempted " << attempted << " requests, failed " << failed
            << " (shed or unfinished), "
            << (correct ? "outputs correct" : "OUTPUT CHECKS FAILED") << "\n";
  std::cout << json_result(correct, attempted, failed, metrics) << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
