// The benchmark's workloads. Each reproduces the set-up of an existing bench
// scenario at a fixed, shorter run length (host cost per simulated second
// depends on run length, so the length never changes).
//
// - cart_closed: perf_smoke's canonical run. Closed loop, 600 users, 1 s
//   think time, no control plane: the event loop, the service substrate and
//   trace recording do the work, and no critical path is extracted.
// - fleet_sora: planet_scale's sora leg. 1000 synthesized services, an open
//   loop replaying a 4-tenant flash-crowd trace, AIMD admission on every
//   entry, FIRM + Sora on the shared backends.
//
// fig10's Sora leg (SteepTriPhase, FIRM + Sora on cart) is not a workload:
// its simulated latency swings between two regimes from seed to seed (p99
// ~350 or ~560 ms, p50 30-65 ms), so no bound could hold across seeds.
#include <cstdlib>
#include <iostream>

#include "apps/sock_shop.h"
#include "perfbench.h"

namespace perfbench {
namespace {

using namespace sora;

// Every warm-up ends just before the first 15 s control round.
constexpr SimTime kWarmup = sec(14);

Scenario cart_closed(const Inputs&, std::uint64_t seed) {
  sock_shop::Params params;
  params.cart_cores = 4.0;
  params.cart_threads = 12;
  ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.sla = msec(250);
  Scenario s;
  s.exp = std::make_unique<Experiment>(sock_shop::make_sock_shop(params), cfg);
  auto& users = s.exp->closed_loop(600, sec(1), RequestMix(sock_shop::kBrowse));
  s.load.push_back({[&users] { return users.injected(); }, [&users] { users.stop(); }});
  return s;
}

// Simulated length of a fleet rep: the replayed trace is synthesized over
// exactly this span, as planet_scale does for its run length.
constexpr SimTime kFleetWindow = sec(50);
// planet_scale replays at 0.15, where admission sheds most requests of the
// first minute. The benchmark runs the fleet below its shedding point, so
// every request is served and a change in shedding shows as a failure.
constexpr double kFleetRateScale = 0.02;

Inputs fleet_inputs() {
  topo::TopologyConfig tc;
  tc.seed = 1;
  tc.services = 1000;
  tc.tenants = 4;
  tc.entries_per_tenant = 2;
  tc.network_latency = usec(500);
  tc.request_sla = msec(1000);
  tc.demand_scale = 0.5;
  tc.shared_zipf_s = 2.0;

  ReplaySynthesisConfig rc;
  rc.seed = 7;
  rc.tenants = 4;
  rc.duration_s = to_sec(kWarmup + kFleetWindow);
  rc.step_s = 5.0;
  rc.base_rps = 120.0;
  rc.flash_crowds = 2;
  rc.flash_peak = 2.5;
  ClusterTraceParse parsed =
      parse_cluster_trace_csv(synthesize_cluster_trace_csv(rc));
  if (!parsed.ok) {
    std::cerr << "perfbench: replay trace parse failed: " << parsed.error
              << "\n";
    std::exit(1);
  }
  Inputs in;
  in.topology = topo::synthesize(tc);
  in.trace = std::move(parsed.trace);
  return in;
}

Scenario fleet_sora(const Inputs& in, std::uint64_t seed) {
  const topo::Topology& topo = *in.topology;
  ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.sla = topo.config.request_sla;
  Scenario s;
  s.exp = std::make_unique<Experiment>(topo.app, cfg);
  Experiment& exp = *s.exp;

  auto source = std::make_unique<ReplayWorkloadSource>(*in.trace, kFleetRateScale);
  for (int t = 0; t < topo.config.tenants; ++t) {
    source->set_tenant_mix(static_cast<std::size_t>(t), topo.tenant_mix(t));
  }
  WorkloadSource& src = exp.set_workload_source(std::move(source));
  s.load.push_back({[&src] { return src.injected(); }, [&src] { src.stop(); }});

  AdmissionOptions ao;
  ao.policy = AdmissionPolicy::kAimd;
  ao.aimd_latency_threshold = topo.config.request_sla;
  ao.initial_limit = 256.0;
  for (const auto& [cls, name] : topo.app.entry_service) {
    (void)cls;
    exp.enable_admission(name, ao);
  }

  std::vector<Service*> shared;
  for (std::size_t i = 0; i < topo.app.services.size(); ++i) {
    if (topo.tenant_of[i] < 0) {
      shared.push_back(exp.app().service(topo.app.services[i].name));
    }
  }
  SoraFrameworkOptions so;
  so.sla = topo.config.request_sla;
  so.localizer.top_k = 32;
  so.deadline.max_traces = 512;
  auto& fw = exp.add_sora(so);
  for (Service* svc : shared) fw.manage(ResourceKnob::entry(svc));
  FirmOptions fo;
  fo.slo_latency = topo.config.request_sla;
  fo.min_cores = 4.0;
  fo.max_cores = 12.0;
  auto& firm = exp.add_firm(fo);
  for (Service* svc : shared) firm.manage(svc);
  Experiment::link(firm, fw);
  s.sora = &fw;
  return s;
}

// Host exponents, fitted on the reference host. The split between the two
// kernels (the memory share) is a least-squares fit of log interval CPU
// over about 1300 intervals of both workloads run side by side with a
// memory-bandwidth hog switched on and off: the fleet's ~230-span traces and
// 1000 services make its window and set-up far more memory-bound than
// cart's (shares 0.6 and 0.4 against 0.1 and 0.0), and teardown, which frees
// millions of scattered blocks, splits about evenly on both. The window and
// set-up slow down more than the kernels do: over 10 runs of cart_closed
// and 4 of fleet_sora their run medians followed the kernels with exponents
// summing to 1.6-2.2, not 1, so both take 1.5 (kept below the fits);
// teardown takes 1.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kAll = {
      {"cart_closed", kWarmup, sec(120), sec(30), {1.35, 0.15}, {1.5, 0.0},
       {0.5, 0.5}, [] { return Inputs{}; }, cart_closed},
      {"fleet_sora", kWarmup, kFleetWindow, sec(10), {0.6, 0.9}, {0.9, 0.6},
       {0.4, 0.6}, fleet_inputs, fleet_sora},
  };
  return kAll;
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> out;
  for (const Workload& w : workloads()) out.emplace_back(w.name);
  return out;
}

}  // namespace perfbench
