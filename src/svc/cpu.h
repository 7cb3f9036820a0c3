// Processor-sharing CPU model with concurrency overhead.
//
// Each service instance owns a CpuScheduler configured with a CPU limit
// (`cores`, fractional allowed — Kubernetes CPU quotas) and an overhead
// coefficient beta. Jobs submitted with a CPU demand (microseconds of work)
// share the cores: with n active jobs each progresses at rate
//
//     r(n) = min(1, cores/n) / (1 + beta * ln(1 + max(0, n - cores)/cores))
//
// The divisor models multithreading overhead (context switches, cache and
// scheduler contention) that grows once concurrency exceeds the core count;
// the logarithm saturates the penalty, matching the moderate (tens of
// percent, not multiples) capacity loss real servers show at very high
// oversubscription.
// This is the mechanism behind the paper's Figure 3: too few concurrent
// jobs leave cores idle (left side of the goodput curve), too many inflate
// everyone's latency (right side).
//
// Implementation uses the classic virtual-time formulation of PS so each
// arrival/completion costs O(log n): active jobs sit in a binary min-heap of
// small {finish tag, seq, slot} entries, their completions in a slab of
// pooled slots with a free list (the Simulator's event-slab pattern), so a
// scheduler with a steady job count allocates nothing per job.
#pragma once

#include <cstdint>
#include <vector>

#include "common/function.h"
#include "common/time.h"
#include "sim/simulator.h"

namespace sora {

class CpuScheduler {
 public:
  using Completion = UniqueFunction;

  CpuScheduler(Simulator& sim, double cores, double overhead_beta);

  /// Submit a job needing `demand` microseconds of CPU work; `done` runs at
  /// completion. Demands <= 0 complete immediately (synchronously).
  void submit(SimTime demand, Completion done);

  /// Change the CPU limit at runtime (vertical scaling). Takes effect
  /// immediately for all active jobs.
  void set_cores(double cores);

  double cores() const { return cores_; }
  double overhead_beta() const { return beta_; }
  int active_jobs() const { return static_cast<int>(heap_.size()); }
  /// Completion slots ever allocated: the slab's high-water mark of
  /// concurrent jobs (slots are reused, so a steady load stops growing it).
  std::size_t job_slots() const { return slab_.size(); }

  // -- metrics ---------------------------------------------------------------

  /// Cumulative busy time in core-microseconds up to now. Observers
  /// snapshot this and divide deltas by (elapsed * cores) for utilization.
  double busy_integral() const;

  std::uint64_t jobs_completed() const { return jobs_completed_; }

 private:
  static constexpr std::uint32_t kNilSlot = UINT32_MAX;

  /// One active job's pooled completion; `next_free` links free slots.
  struct Job {
    Completion done;
    std::uint32_t next_free = kNilSlot;
  };

  /// Heap entry of one active job. `seq` (submission order) breaks ties
  /// between equal finish tags first-in first-out.
  struct HeapEntry {
    double tag;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  /// Heap comparator: true when `a` finishes after `b` (std::*_heap with
  /// this ordering keeps the earliest (tag, seq) job on top).
  struct FinishesAfter {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.tag != b.tag) return a.tag > b.tag;
      return a.seq > b.seq;
    }
  };

  /// Per-job progress rate with n active jobs. Memoized per n (invalidated
  /// by set_cores): advance() calls this on every event affecting the
  /// instance and the log1p dominates otherwise.
  double rate(int n) const;
  double rate_uncached(int n) const;

  /// Fold elapsed wall time into virtual time and the busy integral.
  void advance();
  /// (Re)schedule the completion event for the earliest-finishing job.
  void reschedule();
  void complete_front();
  /// Remove the front job from the heap, free its slot and return its
  /// completion.
  Completion pop_front();

  Simulator& sim_;
  double cores_;
  double beta_;

  // Virtual time: every active job has received v_ service; a job with
  // finish tag f completes when v_ reaches f. The heap orders by finish tag.
  double v_ = 0.0;
  std::vector<HeapEntry> heap_;
  std::vector<Job> slab_;
  std::uint32_t free_head_ = kNilSlot;
  std::uint64_t next_seq_ = 0;
  SimTime last_advance_ = 0;
  EventHandle completion_event_;

  // busy integral: core-microseconds actually consumed
  double busy_integral_ = 0.0;

  // rate(n) memo, indexed by n; grown lazily, cleared on set_cores.
  mutable std::vector<double> rate_cache_;

  std::uint64_t jobs_completed_ = 0;
};

}  // namespace sora
