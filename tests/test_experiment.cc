// Tests for the experiment harness.
#include "harness/experiment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "apps/sock_shop.h"
#include "test_util.h"

namespace sora {
namespace {

TEST(Experiment, RunsClosedLoopAndSummarizes) {
  ExperimentConfig cfg;
  cfg.duration = sec(20);
  cfg.sla = msec(100);
  Experiment exp(testutil::chain_app(0.4), cfg);
  exp.closed_loop(20, msec(100));
  exp.run();
  const ExperimentSummary s = exp.summary();
  EXPECT_GT(s.injected, 100u);
  // Closed loop: at most one request in flight per user at the cutoff.
  EXPECT_LE(s.injected - s.completed, 20u);
  EXPECT_GT(s.throughput_rps, 0.0);
  EXPECT_GT(s.goodput_rps, 0.0);
  EXPECT_GT(s.p99_ms, s.p50_ms);
  EXPECT_GT(s.good_fraction, 0.9);  // lightly loaded chain well within 100ms
}

TEST(Experiment, OpenLoopDrivesTrace) {
  ExperimentConfig cfg;
  cfg.duration = sec(10);
  Experiment exp(testutil::chain_app(0.4), cfg);
  const WorkloadTrace trace(TraceShape::kSlowlyVarying, sec(10), 100, 100);
  exp.open_loop(trace);
  exp.run();
  EXPECT_NEAR(static_cast<double>(exp.summary().injected), 1000.0, 150.0);
}

TEST(Experiment, TimelineTracksService) {
  ExperimentConfig cfg;
  cfg.duration = sec(10);
  cfg.timeline_bucket = sec(1);
  Experiment exp(testutil::chain_app(0.4), cfg);
  exp.closed_loop(10, msec(100));
  exp.track_service("mid");
  exp.run();
  const auto& tl = exp.timeline("mid");
  ASSERT_GE(tl.size(), 9u);
  for (const auto& p : tl) {
    EXPECT_GT(p.util_pct, 0.0);
    EXPECT_DOUBLE_EQ(p.limit_pct, 400.0);
    EXPECT_EQ(p.replicas, 1);
    EXPECT_GT(p.entry_capacity, 0);
  }
}

TEST(Experiment, TimelineTracksEdgePool) {
  ExperimentConfig cfg;
  cfg.duration = sec(5);
  Experiment exp(testutil::edge_pool_app(4, 1000, 0.2), cfg);
  exp.closed_loop(8, msec(20));
  exp.track_service("caller", "db");
  exp.run();
  const auto& tl = exp.timeline("caller");
  ASSERT_GE(tl.size(), 4u);
  bool any_edge_use = false;
  for (const auto& p : tl) {
    EXPECT_EQ(p.edge_capacity, 4);
    if (p.edge_in_use > 0) any_edge_use = true;
  }
  EXPECT_TRUE(any_edge_use);
}

TEST(Experiment, UnknownServiceThrows) {
  ExperimentConfig cfg;
  Experiment exp(testutil::chain_app(), cfg);
  EXPECT_THROW(exp.track_service("nope"), std::invalid_argument);
  EXPECT_THROW(exp.timeline("front"), std::invalid_argument);
}

TEST(Experiment, LinkForwardsScaleEvents) {
  ExperimentConfig cfg;
  cfg.duration = sec(60);
  Experiment exp(testutil::single_service(1.0, 10, 4000, 2000, 0.4), cfg);
  exp.closed_loop(50, msec(50));

  VpaOptions vpa_opts;
  vpa_opts.period = sec(5);
  auto& vpa = exp.add_vpa(vpa_opts);
  vpa.manage(exp.app().service("svc"));

  auto& sora = exp.add_sora();
  ResourceKnob knob = ResourceKnob::entry(exp.app().service("svc"));
  sora.manage(knob);
  Experiment::link(vpa, sora);

  exp.run();
  // VPA scaled up; the linked framework must have reacted with proportional
  // soft-resource rescales (the final size depends on where the SCG knee
  // settles once the hardware stabilizes).
  ASSERT_FALSE(vpa.history().empty());
  bool proportional = false;
  for (const AdaptAction& a : sora.adapter().history()) {
    if (a.type == AdaptAction::Type::kProportional) proportional = true;
  }
  EXPECT_TRUE(proportional);
}

TEST(Experiment, ZeroRequestRunPropagatesNoSample) {
  // A run whose window saw zero requests must report kNoSample (NaN)
  // percentiles — not a fake 0 ms tail that reads as "infinitely fast".
  ExperimentConfig cfg;
  cfg.duration = sec(5);
  Experiment exp(testutil::chain_app(0.4), cfg);
  exp.run();  // no generators attached
  const ExperimentSummary s = exp.summary();
  EXPECT_EQ(s.injected, 0u);
  EXPECT_EQ(s.completed, 0u);
  EXPECT_TRUE(std::isnan(s.p50_ms));
  EXPECT_TRUE(std::isnan(s.p95_ms));
  EXPECT_TRUE(std::isnan(s.p99_ms));
  // Rate-style aggregates stay well-defined at zero.
  EXPECT_DOUBLE_EQ(s.throughput_rps, 0.0);
  EXPECT_DOUBLE_EQ(s.goodput_rps, 0.0);
}

TEST(Experiment, SummaryPercentilesOrdered) {
  ExperimentConfig cfg;
  cfg.duration = sec(15);
  Experiment exp(testutil::chain_app(0.6), cfg);
  exp.closed_loop(30, msec(50));
  exp.run();
  const auto s = exp.summary();
  EXPECT_LE(s.p50_ms, s.p95_ms);
  EXPECT_LE(s.p95_ms, s.p99_ms);
}

TEST(Experiment, DeterministicWithSameSeed) {
  auto run = [](std::uint64_t seed) {
    ExperimentConfig cfg;
    cfg.duration = sec(10);
    cfg.seed = seed;
    Experiment exp(testutil::chain_app(0.5), cfg);
    exp.closed_loop(25, msec(80));
    exp.run();
    return exp.summary();
  };
  const auto a = run(3), b = run(3), c = run(4);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_DOUBLE_EQ(a.p99_ms, b.p99_ms);
  EXPECT_NE(a.injected, c.injected);
}

/// When each stored trace reached the warehouse, next to the departure of
/// its last-closing span.
struct DeferredStore {
  std::size_t traces = 0;
  std::size_t outlived_root = 0;  ///< traces whose last span closed late
  std::vector<SimTime> store_minus_close;
};

/// front answers the user, then notifies `d` asynchronously; d's work
/// outlives the response, so every trace assembles after its root departs.
DeferredStore run_async_callback_app(SimTime network_latency) {
  ApplicationConfig app;
  ServiceConfig front;
  front.name = "front";
  front.with_cores(2).with_entry_pool(32).with_demand(0, 300, 100, 0.3);
  front.with_async_callback(0, "d", 1);
  app.services.push_back(front);
  ServiceConfig d;
  d.name = "d";
  d.with_cores(2).with_entry_pool(32).with_demand(1, 2000, 0, 0.3);
  app.services.push_back(d);
  app.entry_service[0] = "front";
  app.network_latency = network_latency;

  ExperimentConfig cfg;
  cfg.duration = sec(3);
  cfg.seed = 5;
  Experiment exp(std::move(app), cfg);
  DeferredStore out;
  exp.warehouse().add_store_listener([&out, &exp](const Trace& t) {
    ++out.traces;
    SimTime last_close = t.end;
    for (const Span& s : t.spans) {
      last_close = std::max(last_close, s.departure);
    }
    if (last_close > t.end) ++out.outlived_root;
    out.store_minus_close.push_back(exp.sim().now() - last_close);
  });
  exp.closed_loop(4, msec(20));
  exp.run();
  return out;
}

// A trace that outlives its root reaches the trace listeners one network
// hop after its last span closes — the report travels back over the wire —
// and at the close itself when the wire is instantaneous.
TEST(Experiment, DeferredTraceArrivesOneNetworkLatencyAfterLastClose) {
  for (const SimTime latency : {usec(500), SimTime{0}}) {
    const DeferredStore out = run_async_callback_app(latency);
    ASSERT_GT(out.traces, 50u) << "latency " << latency;
    EXPECT_EQ(out.outlived_root, out.traces) << "latency " << latency;
    for (const SimTime gap : out.store_minus_close) {
      ASSERT_EQ(gap, latency);
    }
  }
}

TEST(Experiment, SloAnalyticsDetectsEpisodesAndAttributes) {
  ExperimentConfig cfg;
  cfg.duration = sec(20);
  cfg.sla = msec(2);  // unattainable: the chain needs ~3.2ms of service time
  Experiment exp(testutil::chain_app(0.0), cfg);
  SloAnalyticsOptions slo;
  slo.monitor.fast_window = sec(5);
  slo.monitor.slow_window = sec(15);
  exp.enable_slo_analytics(slo);
  exp.closed_loop(10, msec(50));
  exp.run();

  ASSERT_TRUE(exp.slo_analytics_enabled());
  const ExperimentSummary s = exp.summary();
  EXPECT_GT(s.slo_episodes, 0u);
  EXPECT_LT(exp.slo_monitor().good_ratio("e2e"), 0.5);
  // Every request misses the SLA, so episode records landed in the log.
  EXPECT_FALSE(exp.decision_log().by_action("episode_start").empty());
  // Attribution resolves real service names; the top consumer must be one
  // of the chain's heavyweights (mid and leaf both do ~1.2ms of work).
  const std::string top = exp.attribution().top_consumer();
  EXPECT_TRUE(top == "mid" || top == "leaf") << top;
  EXPECT_GT(exp.attribution().traces_attributed(), 0u);

  // Stored spans carry the finalizer's budget annotation.
  bool all_annotated = true;
  std::size_t seen = 0;
  exp.warehouse().for_each_in_window(0, kSimTimeNever, [&](const Trace& t) {
    for (const Span& sp : t.spans) {
      ++seen;
      all_annotated = all_annotated && sp.budget_annotated();
    }
  });
  EXPECT_GT(seen, 0u);
  EXPECT_TRUE(all_annotated);

  std::ostringstream report, html, csv, burn;
  exp.export_slo_report_text(report, "chain");
  exp.export_slo_report_html(html, "chain");
  exp.export_attribution_csv(csv);
  exp.export_burn_csv("e2e", burn);
  EXPECT_NE(report.str().find("Violation episodes"), std::string::npos);
  EXPECT_NE(report.str().find("leaf"), std::string::npos);
  EXPECT_NE(html.str().find("<table>"), std::string::npos);
  EXPECT_NE(csv.str().find("mid"), std::string::npos);
  EXPECT_NE(burn.str().find("fast_burn"), std::string::npos);
}

TEST(Experiment, SloAnalyticsQuietWhenHealthy) {
  ExperimentConfig cfg;
  cfg.duration = sec(15);
  cfg.sla = msec(100);  // trivially met by the lightly loaded chain
  Experiment exp(testutil::chain_app(0.2), cfg);
  exp.enable_slo_analytics();
  exp.closed_loop(5, msec(100));
  exp.run();
  EXPECT_EQ(exp.summary().slo_episodes, 0u);
  EXPECT_GT(exp.slo_monitor().good_ratio("e2e"), 0.99);
}

}  // namespace
}  // namespace sora
