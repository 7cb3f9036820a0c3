// Tests for the hill-climbing baseline tuner.
#include "core/hillclimb.h"

#include <gtest/gtest.h>

#include "svc/application.h"
#include "test_util.h"
#include "trace/tracer.h"
#include "trace/warehouse.h"
#include "workload/generator.h"

namespace sora {
namespace {

struct Fixture {
  Simulator sim;
  Tracer tracer;
  Application app;
  explicit Fixture(ApplicationConfig cfg)
      : app(sim, tracer, std::move(cfg), 1) {}
};

TEST(HillClimb, ClimbsOutOfStarvation) {
  // 8-core service with a 2-slot pool: any climb direction that grows the
  // pool improves goodput, so the tuner must walk upward.
  Fixture f(testutil::single_service(8.0, 2, 2000, 1000, 0.4));
  ResourceKnob knob = ResourceKnob::entry(f.app.service("svc"));
  HillClimbOptions opts;
  opts.period = sec(5);
  opts.rt_threshold = msec(50);
  HillClimbTuner tuner(f.sim, f.tracer, knob, opts);
  tuner.start();

  ClosedLoopGenerator users(f.sim, f.app, 40, msec(50), 3);
  users.start();
  f.sim.run_until(sec(60));
  users.stop();
  tuner.stop();

  EXPECT_GT(knob.current_size(), 4);
  EXPECT_GT(tuner.steps_taken(), 3u);
}

TEST(HillClimb, RespectsBounds) {
  Fixture f(testutil::single_service(8.0, 2, 2000, 1000, 0.4));
  ResourceKnob knob = ResourceKnob::entry(f.app.service("svc"));
  HillClimbOptions opts;
  opts.period = sec(5);
  opts.max_size = 6;
  HillClimbTuner tuner(f.sim, f.tracer, knob, opts);
  tuner.start();
  ClosedLoopGenerator users(f.sim, f.app, 40, msec(50), 4);
  users.start();
  f.sim.run_until(sec(90));
  users.stop();
  EXPECT_LE(knob.current_size(), 6);
  EXPECT_GE(knob.current_size(), 1);
}

TEST(HillClimb, StopHaltsSteps) {
  Fixture f(testutil::single_service(8.0, 2, 2000, 1000, 0.4));
  ResourceKnob knob = ResourceKnob::entry(f.app.service("svc"));
  HillClimbOptions opts;
  opts.period = sec(5);
  HillClimbTuner tuner(f.sim, f.tracer, knob, opts);
  tuner.start();
  f.sim.run_until(sec(12));
  tuner.stop();
  const auto steps = tuner.steps_taken();
  f.sim.run_until(sec(60));
  EXPECT_EQ(tuner.steps_taken(), steps);
}

TEST(TraceSampling, WarehouseStoresEveryNth) {
  Simulator sim;
  Tracer tracer;
  TraceWarehouse wh(1000);
  wh.attach(tracer, 5);
  for (int i = 0; i < 50; ++i) {
    const TraceId tid = tracer.begin_trace(0, i);
    const SpanRef root =
        tracer.start_span(tid, SpanRef{}, ServiceId(0), InstanceId(0), 0, i);
    tracer.finish_span(root, i + 10);
  }
  EXPECT_EQ(wh.size(), 10u);
}

}  // namespace
}  // namespace sora
