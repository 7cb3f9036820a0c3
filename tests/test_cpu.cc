// Tests for the processor-sharing CPU scheduler with concurrency overhead.
#include "svc/cpu.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <type_traits>
#include <vector>

namespace sora {
namespace {

TEST(CpuScheduler, SingleJobRunsAtFullSpeed) {
  Simulator sim;
  CpuScheduler cpu(sim, 2.0, 0.5);
  SimTime done_at = -1;
  cpu.submit(1000, [&] { done_at = sim.now(); });
  sim.run_all();
  EXPECT_EQ(done_at, 1000);
  EXPECT_EQ(cpu.jobs_completed(), 1u);
}

TEST(CpuScheduler, ZeroDemandCompletesSynchronously) {
  Simulator sim;
  CpuScheduler cpu(sim, 1.0, 0.0);
  bool done = false;
  cpu.submit(0, [&] { done = true; });
  EXPECT_TRUE(done);
}

TEST(CpuScheduler, TwoJobsOnTwoCoresNoInterference) {
  Simulator sim;
  CpuScheduler cpu(sim, 2.0, 0.5);
  std::vector<SimTime> done;
  cpu.submit(1000, [&] { done.push_back(sim.now()); });
  cpu.submit(2000, [&] { done.push_back(sim.now()); });
  sim.run_all();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], 1000);
  EXPECT_EQ(done[1], 2000);
}

TEST(CpuScheduler, TwoJobsShareOneCore) {
  Simulator sim;
  CpuScheduler cpu(sim, 1.0, 0.0);  // no overhead
  std::vector<SimTime> done;
  cpu.submit(1000, [&] { done.push_back(sim.now()); });
  cpu.submit(1000, [&] { done.push_back(sim.now()); });
  sim.run_all();
  ASSERT_EQ(done.size(), 2u);
  // Each runs at 0.5x: both finish at ~2000.
  EXPECT_NEAR(static_cast<double>(done[0]), 2000.0, 2.0);
  EXPECT_NEAR(static_cast<double>(done[1]), 2000.0, 2.0);
}

TEST(CpuScheduler, OverheadSlowsExcessConcurrency) {
  Simulator sim;
  const double beta = 1.0;
  CpuScheduler cpu(sim, 1.0, beta);
  std::vector<SimTime> done;
  cpu.submit(1000, [&] { done.push_back(sim.now()); });
  cpu.submit(1000, [&] { done.push_back(sim.now()); });
  sim.run_all();
  // rate per job = 0.5 / (1 + ln(2)) -> each finishes at 2000*(1+ln2).
  const double expected = 2000.0 * (1.0 + std::log(2.0));
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(static_cast<double>(done[1]), expected, 5.0);
}

TEST(CpuScheduler, ShorterJobFinishesFirst) {
  Simulator sim;
  CpuScheduler cpu(sim, 1.0, 0.0);
  std::vector<int> order;
  cpu.submit(3000, [&] { order.push_back(1); });
  cpu.submit(1000, [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(CpuScheduler, LateArrivalSharesRemaining) {
  Simulator sim;
  CpuScheduler cpu(sim, 1.0, 0.0);
  std::vector<SimTime> done;
  cpu.submit(2000, [&] { done.push_back(sim.now()); });
  sim.schedule_at(1000, [&] {
    cpu.submit(500, [&] { done.push_back(sim.now()); });
  });
  sim.run_all();
  // Job A: 1000 done at t=1000, then shares: remaining 1000 at 0.5x.
  // Job B: 500 at 0.5x -> done at t=2000. A done at t=2500.
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(static_cast<double>(done[0]), 2000.0, 3.0);
  EXPECT_NEAR(static_cast<double>(done[1]), 2500.0, 3.0);
}

TEST(CpuScheduler, SetCoresSpeedsUpInFlight) {
  Simulator sim;
  CpuScheduler cpu(sim, 1.0, 0.0);
  SimTime done_at = -1;
  cpu.submit(2000, [&] { done_at = sim.now(); });
  cpu.submit(2000, [&] {});
  // At t=1000 each job received 500us of service (rate 0.5), leaving 1500
  // each; doubling cores runs both at full speed: done at t=2500 instead of
  // t=4000.
  sim.schedule_at(1000, [&] { cpu.set_cores(2.0); });
  sim.run_all();
  EXPECT_NEAR(static_cast<double>(done_at), 2500.0, 3.0);
}

TEST(CpuScheduler, BusyIntegralSingleJob) {
  Simulator sim;
  CpuScheduler cpu(sim, 4.0, 0.0);
  cpu.submit(1000, [] {});
  sim.run_all();
  // One job on 4 cores occupies 1 core for 1000us.
  EXPECT_NEAR(cpu.busy_integral(), 1000.0, 1.0);
}

TEST(CpuScheduler, BusyIntegralCapsAtCores) {
  Simulator sim;
  CpuScheduler cpu(sim, 2.0, 0.0);
  for (int i = 0; i < 8; ++i) cpu.submit(1000, [] {});
  sim.run_all();
  // 8000us of work on 2 cores: busy 2 cores x 4000us = 8000 core-us.
  EXPECT_NEAR(cpu.busy_integral(), 8000.0, 10.0);
}

TEST(CpuScheduler, CompletionCallbackCanResubmit) {
  Simulator sim;
  CpuScheduler cpu(sim, 1.0, 0.0);
  int chain = 0;
  std::function<void()> next = [&] {
    if (++chain < 4) cpu.submit(100, next);
  };
  cpu.submit(100, next);
  sim.run_all();
  EXPECT_EQ(chain, 4);
  EXPECT_EQ(sim.now(), 400);
}

TEST(CpuScheduler, FractionalCores) {
  Simulator sim;
  CpuScheduler cpu(sim, 0.5, 0.0);
  SimTime done_at = -1;
  cpu.submit(1000, [&] { done_at = sim.now(); });
  sim.run_all();
  // Half a core: 1000us of work takes ~2000us wall (plus overhead of the
  // beta term: n=1 > cores=0.5 -> 1+beta*ln(2) with beta 0 -> none).
  EXPECT_NEAR(static_cast<double>(done_at), 2000.0, 3.0);
}

// Property: work conservation — total busy time equals total demand when
// concurrency never exceeds cores; wall time of the batch is close to
// total_demand / cores when always saturated.
class CpuWorkConservation : public ::testing::TestWithParam<int> {};

TEST_P(CpuWorkConservation, BatchTiming) {
  const int jobs = GetParam();
  Simulator sim;
  CpuScheduler cpu(sim, 2.0, 0.0);
  SimTime last = 0;
  for (int i = 0; i < jobs; ++i) {
    cpu.submit(1000, [&] { last = sim.now(); });
  }
  sim.run_all();
  const double total_work = 1000.0 * jobs;
  if (jobs >= 2) {
    EXPECT_NEAR(static_cast<double>(last), total_work / 2.0,
                total_work * 0.01 + 5.0);
    EXPECT_NEAR(cpu.busy_integral(), total_work, total_work * 0.01 + 5.0);
  }
  EXPECT_EQ(cpu.jobs_completed(), static_cast<std::uint64_t>(jobs));
  EXPECT_EQ(cpu.active_jobs(), 0);
}

INSTANTIATE_TEST_SUITE_P(JobCounts, CpuWorkConservation,
                         ::testing::Values(1, 2, 3, 5, 10, 50));

// Property: the overhead model is monotone — more concurrency never speeds
// up an individual job.
TEST(CpuScheduler, MonotoneSlowdownWithConcurrency) {
  SimTime prev_done = 0;
  for (int n : {1, 2, 4, 8, 16}) {
    Simulator sim;
    CpuScheduler cpu(sim, 2.0, 0.5);
    SimTime done = 0;
    for (int i = 0; i < n; ++i) {
      cpu.submit(1000, [&] { done = sim.now(); });
    }
    sim.run_all();
    EXPECT_GE(done, prev_done);
    prev_done = done;
  }
}


// -- differential check against a multimap reference model -------------------

/// The scheduler as it stood before its job heap: an ordered multimap from
/// finish tag to completion (equal tags in insertion order). Kept here only,
/// as the oracle the slab-and-heap scheduler must match event for event.
class ReferenceCpu {
 public:
  ReferenceCpu(Simulator& sim, double cores, double beta)
      : sim_(sim), cores_(cores), beta_(beta), last_advance_(sim.now()) {}

  void submit(SimTime demand, UniqueFunction done) {
    if (demand <= 0) {
      ++jobs_completed_;
      done();
      return;
    }
    advance();
    jobs_.emplace(v_ + static_cast<double>(demand), std::move(done));
    reschedule();
  }

  void set_cores(double cores) {
    advance();
    cores_ = cores;
    reschedule();
  }

  double busy_integral() const {
    double busy = busy_integral_;
    const auto n = static_cast<double>(jobs_.size());
    if (n > 0) {
      busy += static_cast<double>(sim_.now() - last_advance_) *
              std::min(n, cores_);
    }
    return busy;
  }

  int active_jobs() const { return static_cast<int>(jobs_.size()); }
  std::uint64_t jobs_completed() const { return jobs_completed_; }
  /// Jobs completed while their tag was still ahead of virtual time (the
  /// kTagEps batch): proof that a script exercised near ties.
  std::uint64_t early_completions() const { return early_completions_; }

 private:
  static constexpr double kTagEps = 1e-3;

  double rate(int n) const {
    if (n <= 0) return 1.0;
    const double nd = static_cast<double>(n);
    double r = std::min(1.0, cores_ / nd);
    if (nd > cores_) r /= 1.0 + beta_ * std::log1p((nd - cores_) / cores_);
    return r;
  }

  void advance() {
    const SimTime dt = sim_.now() - last_advance_;
    if (dt <= 0) return;
    const int n = active_jobs();
    if (n > 0) {
      v_ += static_cast<double>(dt) * rate(n);
      busy_integral_ +=
          static_cast<double>(dt) * std::min(static_cast<double>(n), cores_);
    }
    last_advance_ = sim_.now();
  }

  void reschedule() {
    completion_.cancel();
    if (jobs_.empty()) return;
    const double dt =
        std::max(jobs_.begin()->first - v_, 0.0) / rate(active_jobs());
    completion_ = sim_.schedule_after(
        std::max<SimTime>(0, static_cast<SimTime>(std::ceil(dt))),
        [this] { complete_front(); });
  }

  void complete_front() {
    advance();
    std::vector<UniqueFunction> done;
    while (!jobs_.empty() && jobs_.begin()->first <= v_ + kTagEps) {
      if (jobs_.begin()->first > v_) ++early_completions_;
      done.push_back(std::move(jobs_.begin()->second));
      jobs_.erase(jobs_.begin());
    }
    if (done.empty() && !jobs_.empty()) {
      done.push_back(std::move(jobs_.begin()->second));
      jobs_.erase(jobs_.begin());
    }
    jobs_completed_ += done.size();
    reschedule();
    for (auto& d : done) d();
  }

  Simulator& sim_;
  double cores_;
  double beta_;
  double v_ = 0.0;
  std::multimap<double, UniqueFunction> jobs_;
  SimTime last_advance_;
  EventHandle completion_;
  double busy_integral_ = 0.0;
  std::uint64_t jobs_completed_ = 0;
  std::uint64_t early_completions_ = 0;
};

/// One step of a scripted run: at `at`, submit a job of `demand`, or (when
/// `cores` > 0) change the CPU limit.
struct ScriptStep {
  SimTime at;
  SimTime demand;
  double cores;
};

/// A seeded script mixing bursts of equal demands at one instant, zero
/// demands, and CPU-limit changes mid-run. The fractional limits make
/// virtual time fractional, so finish tags of jobs submitted at different
/// instants land within kTagEps of each other now and then.
std::vector<ScriptStep> make_script(std::uint64_t seed) {
  static constexpr double kCores[] = {0.9995, 1.0, 2.0, 0.5, 3.0, 1.25};
  std::mt19937_64 rng(seed);
  std::vector<ScriptStep> steps;
  SimTime t = 0;
  for (int i = 0; i < 400; ++i) {
    if (rng() % 3 != 0) t += static_cast<SimTime>(rng() % 300);
    const SimTime shared = 1 + static_cast<SimTime>(rng() % 20);
    const int burst = 1 + static_cast<int>(rng() % 4);
    for (int b = 0; b < burst; ++b) {
      const std::uint64_t pick = rng() % 8;
      const SimTime demand = pick == 0   ? 0
                             : pick < 4 ? shared
                                        : 1 + static_cast<SimTime>(rng() % 900);
      steps.push_back(ScriptStep{t, demand, 0.0});
    }
    if (rng() % 16 == 0) {
      steps.push_back(ScriptStep{t, 0, kCores[rng() % std::size(kCores)]});
    }
  }
  return steps;
}

struct Outcome {
  std::vector<std::pair<int, SimTime>> completions;  ///< (job id, time)
  std::vector<double> busy;  ///< busy_integral() after every script step
  std::vector<int> active;   ///< active_jobs() after every script step
  std::uint64_t jobs_completed = 0;
  std::uint64_t early_completions = 0;
};

/// Run `script` on a fresh Simulator against scheduler type `Cpu`. Every
/// fourth job resubmits a follow-up from its completion callback, as a
/// service visit does.
template <typename Cpu>
Outcome run_script(const std::vector<ScriptStep>& script, double beta) {
  Simulator sim;
  Cpu cpu(sim, 1.0, beta);
  Outcome out;
  int next_id = 0;
  std::function<void(SimTime)> submit = [&](SimTime demand) {
    const int id = next_id++;
    cpu.submit(demand, [&, id] {
      out.completions.emplace_back(id, sim.now());
      if (id % 4 == 0) submit(static_cast<SimTime>(id % 7) * 50);
    });
  };
  for (const ScriptStep& step : script) {
    sim.schedule_at(step.at, [&, step] {
      if (step.cores > 0.0) {
        cpu.set_cores(step.cores);
      } else {
        submit(step.demand);
      }
      out.busy.push_back(cpu.busy_integral());
      out.active.push_back(cpu.active_jobs());
    });
  }
  sim.run_all();
  out.busy.push_back(cpu.busy_integral());
  out.jobs_completed = cpu.jobs_completed();
  if constexpr (std::is_same_v<Cpu, ReferenceCpu>) {
    out.early_completions = cpu.early_completions();
  }
  return out;
}

TEST(CpuSchedulerDifferential, MatchesMultimapReferenceOnSeededScripts) {
  std::uint64_t early = 0;
  std::uint64_t tied_instants = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const std::vector<ScriptStep> script = make_script(seed);
    const double beta = seed % 2 == 0 ? 0.0 : 0.6;
    const Outcome want = run_script<ReferenceCpu>(script, beta);
    const Outcome got = run_script<CpuScheduler>(script, beta);
    ASSERT_EQ(got.completions.size(), want.completions.size()) << seed;
    for (std::size_t i = 0; i < want.completions.size(); ++i) {
      ASSERT_EQ(got.completions[i], want.completions[i])
          << "seed " << seed << " completion " << i;
    }
    // Same arithmetic in the same order: equal to the last bit.
    ASSERT_EQ(got.busy, want.busy) << seed;
    ASSERT_EQ(got.active, want.active) << seed;
    EXPECT_EQ(got.jobs_completed, want.jobs_completed) << seed;
    early += want.early_completions;
    for (std::size_t i = 1; i < want.completions.size(); ++i) {
      if (want.completions[i].second == want.completions[i - 1].second) {
        ++tied_instants;
      }
    }
  }
  // The scripts did reach the cases the heap's (tag, seq) order is for.
  EXPECT_GT(early, 0u);
  EXPECT_GT(tied_instants, 0u);
}

// Two finish tags 0.0005 apart complete in one batch, in tag order, once
// virtual time reaches the first: job A (tag 10) started alone on 0.9995
// cores, job B (tag 9.9995) joined at t=1 as the limit rose to one core.
TEST(CpuSchedulerDifferential, NearTiesWithinTagEpsCompleteTogether) {
  const auto run = [](auto& cpu, Simulator& sim) {
    std::vector<std::pair<char, SimTime>> done;
    cpu.submit(10, [&] { done.emplace_back('A', sim.now()); });
    sim.schedule_at(1, [&] {
      cpu.set_cores(1.0);
      cpu.submit(9, [&] { done.emplace_back('B', sim.now()); });
    });
    sim.run_all();
    return done;
  };
  Simulator ref_sim;
  ReferenceCpu ref(ref_sim, 0.9995, 0.0);
  Simulator sim;
  CpuScheduler cpu(sim, 0.9995, 0.0);
  const auto want = run(ref, ref_sim);
  const auto got = run(cpu, sim);
  const std::vector<std::pair<char, SimTime>> expected{{'B', 19}, {'A', 19}};
  EXPECT_EQ(want, expected);
  EXPECT_EQ(got, expected);
  EXPECT_EQ(ref.early_completions(), 1u);
}

// A closed loop of eight jobs (each completion submits the next) reuses
// completion slots: the slab stops at eight however many jobs run.
TEST(CpuScheduler, CompletionSlabStopsGrowingAtSteadyJobCount) {
  Simulator sim;
  CpuScheduler cpu(sim, 2.0, 0.3);
  constexpr int kJobs = 8;
  std::function<void(int)> loop = [&](int k) {
    cpu.submit(100 + 37 * k, [&, k] { loop((k + 1) % kJobs); });
  };
  for (int k = 0; k < kJobs; ++k) loop(k);
  sim.run_until(10'000);
  const std::uint64_t warm = cpu.jobs_completed();
  EXPECT_EQ(cpu.job_slots(), static_cast<std::size_t>(kJobs));
  sim.run_until(1'000'000);
  EXPECT_GT(cpu.jobs_completed(), 100 * warm);
  EXPECT_EQ(cpu.active_jobs(), kJobs);
  EXPECT_EQ(cpu.job_slots(), static_cast<std::size_t>(kJobs));
}

}  // namespace
}  // namespace sora
