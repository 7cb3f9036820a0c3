// Output checks of one rep, and their self-tests.
#include <sstream>

#include "perfbench.h"

namespace perfbench {
namespace {

CheckResult conservation(const RunCounts& c) {
  std::ostringstream d;
  d << "generated " << c.generated << ", injected " << c.injected
    << " = completed " << c.completed << " + shed " << c.shed
    << " + in-flight " << c.open_traces;
  return {"conservation",
          c.generated == c.injected &&
              c.injected == c.completed + c.shed + c.open_traces,
          d.str()};
}

// Requests shed inside the call chain complete application-side but reach
// the recorder as rejections, so the sums, not the parts, must agree.
CheckResult recorder(const RunCounts& c) {
  std::ostringstream d;
  d << "recorded " << c.recorded << " served + " << c.recorded_shed
    << " shed vs " << c.completed << " completed + " << c.shed
    << " shed; root listener saw " << c.served << " served";
  return {"recorder",
          c.recorded == c.served &&
              c.recorded + c.recorded_shed == c.completed + c.shed,
          d.str()};
}

CheckResult warehouse(const RunCounts& c) {
  std::ostringstream d;
  d << "stored " << c.traces_stored << " of " << c.traces_completed
    << " completed traces (" << c.completed << " completed requests)";
  return {"warehouse",
          c.traces_stored == c.traces_completed &&
              c.traces_completed >= c.completed,
          d.str()};
}

CheckResult control(const RunCounts& c) {
  std::ostringstream d;
  d << c.decisions << " decisions, " << c.control_rounds << " rounds (expected "
    << c.expected_rounds << ")";
  const bool ok = !c.controlled || (c.decisions > 0 &&
                                    c.control_rounds == c.expected_rounds);
  return {"control", ok, d.str()};
}

}  // namespace

std::vector<CheckResult> check_outputs(const RunCounts& c) {
  return {conservation(c), recorder(c), warehouse(c), control(c)};
}

std::vector<CheckResult> self_test_checks(const RunCounts& c) {
  std::vector<CheckResult> out;
  auto expect_rejected = [&out](const char* name, const CheckResult& r) {
    out.push_back({name, !r.ok, "corrupted input: " + r.detail});
  };
  RunCounts lost = c;  // one request vanished without an outcome
  ++lost.injected;
  expect_rejected("self_test.conservation", conservation(lost));
  RunCounts twice = c;  // a completion recorded twice
  ++twice.recorded;
  expect_rejected("self_test.recorder", recorder(twice));
  RunCounts dropped = c;  // a completed trace missing from the warehouse
  --dropped.traces_stored;
  expect_rejected("self_test.warehouse", warehouse(dropped));
  RunCounts silent = c;  // a controller that logged nothing
  silent.controlled = true;
  silent.decisions = 0;
  expect_rejected("self_test.control_log", control(silent));
  RunCounts skipped = c;  // a missed control round
  skipped.controlled = true;
  skipped.decisions = 1;
  skipped.control_rounds = c.expected_rounds + 1;
  expect_rejected("self_test.control_rounds", control(skipped));
  return out;
}

}  // namespace perfbench
