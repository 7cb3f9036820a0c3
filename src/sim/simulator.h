// Discrete-event simulation engine.
//
// A Simulator owns a binary min-heap of timestamped events. Events scheduled
// for the same instant fire in scheduling order (FIFO), which together with
// seeded RNGs makes every run bit-for-bit reproducible.
//
// The default engine is single-threaded by design: microsecond-scale event
// handlers dominate, and determinism is a hard requirement for the
// experiments. (Multiple Simulators may run concurrently on different
// threads — see harness::SweepRunner — but one Simulator is never shared
// across threads.)
//
// Sharded mode (conservative PDES, opt-in via configure_shards): the run is
// partitioned into `shards` lanes, each with its own event heap, clock and
// seq counter, plus one "global" lane for events scheduled outside any shard
// context (controllers, periodic ticks, fault plan, ctl safepoints). The
// global lane is lane 0 — the pre-configuration lane — so infrastructure
// wired up before configure_shards is global automatically; only schedules
// made under a ShardScope (or from a shard event) land in shard lanes.
// Lanes advance in lookahead windows: every shard executes events strictly
// before W = min(E + lookahead, G, until) — E being the earliest pending
// shard event and G the earliest global event — then cross-lane sends
// buffered in per-(src,dst) mailboxes are drained, then global events at
// exactly W run. Because cross-shard sends arrive no earlier than
// E + lookahead >= W, each window's inputs are sealed before it executes and
// the result is independent of lane execution order (and of the worker
// thread schedule). Same-arrival cross-lane sends are merged by
// (arrival, sender, send_idx) — a key that does not depend on the shard
// count — so shards=1 and shards=N runs order every event identically.
//
// Hot-path layout (per lane): event callbacks live in a slab of pooled
// records indexed by a free list, so steady-state scheduling performs no
// heap allocation (callback captures up to UniqueFunction::kInlineSize bytes
// included). The heap itself stores 24-byte (time, seq, slot, generation)
// entries. Cancellation bumps the slot's generation counter and frees the
// record immediately — including its callback captures — leaving only a
// stale heap entry behind, which is skipped on pop; when more than half of
// the heap is stale it is compacted in place. The unsharded path operates
// directly on the inline lane-0 members and is byte-identical to the
// pre-sharding engine.
#pragma once

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/function.h"
#include "common/time.h"

namespace sora {

namespace obs {
class MetricsRegistry;
}

class Simulator;

/// Handle to a scheduled event, usable to cancel it before it fires.
/// A handle is a (lane, slot, generation) ticket into the owning simulator's
/// event slab; it is cheap to copy and must not outlive the Simulator.
class EventHandle {
 public:
  EventHandle() = default;

  /// True if the event is still pending (not fired, not cancelled).
  bool pending() const;

  /// Cancel the event; a no-op if already fired or cancelled.
  void cancel();

 private:
  friend class Simulator;
  EventHandle(Simulator* sim, std::uint32_t lane, std::uint32_t slot,
              std::uint32_t gen)
      : sim_(sim), lane_(lane), slot_(slot), gen_(gen) {}

  Simulator* sim_ = nullptr;
  std::uint32_t lane_ = 0;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class Simulator {
 public:
  using Callback = UniqueFunction;

  /// Registers this simulator as the calling thread's log clock so SORA_LOG
  /// lines carry the current sim time (see common/log.h).
  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time (of the calling context's lane when sharded).
  SimTime now() const {
    if (!configured_) [[likely]] return lane0_.now;
    return current_lane_const().now;
  }

  /// Schedule `cb` at absolute time `at` (must be >= now()).
  /// Returns a handle that can cancel the event.
  EventHandle schedule_at(SimTime at, Callback cb);

  /// Schedule `cb` after a relative delay (>= 0).
  EventHandle schedule_after(SimTime delay, Callback cb) {
    return schedule_at(now() + delay, std::move(cb));
  }

  /// Schedule `cb` every `period` starting at now()+period, until the
  /// returned handle is cancelled or the simulation ends.
  EventHandle schedule_periodic(SimTime period, Callback cb);

  /// Run until the event queue is empty or `until` is reached. Events at
  /// exactly `until` are executed. Advances now() to `until` (or the last
  /// executed event time if the queue drains first and it is later).
  void run_until(SimTime until);

  /// Run until the event queue is completely empty.
  void run_all();

  /// Execute at most one event; returns false if the queue is empty.
  /// Unsharded mode only.
  bool step();

  // --- Sharding (conservative PDES) -------------------------------------

  /// Split the run into `shards` lanes synchronized by `lookahead` windows
  /// (the minimum cross-shard delivery latency; see sim/partition.h).
  /// Must be called before the first event executes; `shards` >= 1. With
  /// shards == 1 the window machinery still runs (one shard lane + the
  /// global lane), which is what makes shards=1 the parity baseline for
  /// shards=N. `threads` worker threads (>= 1) execute shard lanes within a
  /// window; the output is identical for any thread count because lanes are
  /// disjoint between barriers.
  void configure_shards(int shards, SimTime lookahead, int threads = 1);

  /// True once configure_shards has been called.
  bool sharding() const { return configured_; }
  int shards() const { return shards_; }
  SimTime lookahead() const { return lookahead_; }

  /// The shard lane the calling thread is currently executing, or -1 when
  /// outside any shard context (global events, wiring code, other threads).
  static int current_shard() { return tls_lane_; }

  /// Pins the calling thread's shard context for the scope's lifetime, so
  /// schedules made while wiring (e.g. workload generator start) land in a
  /// chosen shard lane instead of the global lane.
  class ShardScope {
   public:
    explicit ShardScope(int shard) : prev_(tls_lane_) { tls_lane_ = shard; }
    ~ShardScope() { tls_lane_ = prev_; }
    ShardScope(const ShardScope&) = delete;
    ShardScope& operator=(const ShardScope&) = delete;

   private:
    int prev_;
  };

  /// Cross-lane send: deliver `cb` on shard `dst_shard` at now() + delay.
  /// `sender` / `send_idx` form the deterministic merge key for same-arrival
  /// sends (sender is a stable id of the sending entity — service id — and
  /// send_idx its private monotone counter); they must not depend on the
  /// shard count. Requires sharding() and delay >= lookahead for cross-shard
  /// destinations (the conservative-window guarantee).
  void send_cross(int dst_shard, std::uint64_t sender, std::uint64_t send_idx,
                  SimTime delay, Callback cb);

  /// Invoked at every window barrier after shard lanes quiesce and mailboxes
  /// drain, before global events run — and once more when run_until returns.
  /// Used to merge per-shard side buffers (e.g. decision-log records) in
  /// deterministic order.
  void set_barrier_hook(UniqueFunction hook) { barrier_hook_ = std::move(hook); }

  // --- Introspection ----------------------------------------------------

  /// Opt-in event-stream fingerprint: when enabled, every executed event
  /// folds its (time, seq) pair into an FNV-1a digest. Two runs that execute
  /// the same events in the same order at the same times digest equal — the
  /// causal profiler uses this to prove its control re-run is byte-identical
  /// to the primary. Off by default: the hot loop pays only an untaken
  /// branch. Enable before the first event executes for a meaningful value.
  /// Sharded digests combine per-lane digests and are comparable between
  /// runs with the same shard count (not across shard counts — lane-local
  /// seqs differ; cross-shard-count parity is proven on trace/decision/log
  /// digests instead).
  void set_digest_enabled(bool enabled) { digest_enabled_ = enabled; }
  bool digest_enabled() const { return digest_enabled_; }
  std::uint64_t digest() const;

  std::uint64_t events_executed() const;
  /// Scheduled-and-not-yet-fired events (cancelled events excluded).
  std::size_t events_pending() const;
  /// Events cancelled before firing over the simulator's lifetime.
  std::uint64_t events_cancelled() const;
  /// Raw heap entries including stale (cancelled) ones, across all lanes.
  /// Exposed for compaction regression tests.
  std::size_t heap_entries() const;

  /// Publish event-loop state (events executed/cancelled, queue depth, sim
  /// clock) into a metrics registry. Called by periodic samplers; the hot
  /// event loop itself stays untouched.
  void publish_metrics(obs::MetricsRegistry& metrics) const;

 private:
  friend class EventHandle;

  static constexpr std::uint32_t kNilSlot = UINT32_MAX;
  /// Below this heap size, stale entries are too cheap to be worth a
  /// compaction pass.
  static constexpr std::size_t kCompactMinHeap = 64;

  /// Pooled per-event state. `gen` identifies the current occupancy of the
  /// slot: heap entries and handles carry the generation they were issued
  /// under and become stale when it changes.
  struct EventRecord {
    Callback cb;
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNilSlot;
    /// One-shot events own a heap entry; periodic chain anchors do not.
    bool queued = false;
  };

  struct HeapEntry {
    SimTime at;
    std::uint64_t seq;  // tie-break: FIFO among same-time events
    std::uint32_t slot;
    std::uint32_t gen;
  };

  /// Heap comparator: true when `a` fires after `b` (std::*_heap with this
  /// ordering keeps the earliest (time, seq) event on top).
  struct FiresAfter {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  /// One event loop: heap + record slab + clock + counters. The unsharded
  /// engine is exactly lane 0; sharded mode keeps lane 0 as the global lane
  /// and adds one lane per shard at indices 1..N. That assignment is what
  /// makes events scheduled before configure_shards (controller ticks,
  /// metrics exporters — anything wired up outside a shard scope) global
  /// events afterwards: their lane index, including the one captured inside
  /// periodic chains and outstanding EventHandles, stays 0.
  struct Lane {
    std::vector<HeapEntry> heap;
    std::vector<EventRecord> records;
    std::uint32_t free_head = kNilSlot;
    std::size_t stale_in_heap = 0;
    SimTime now = 0;
    std::uint64_t digest = 1469598103934665603ULL;  // FNV-1a offset basis
    std::uint64_t next_seq = 0;
    std::uint64_t events_executed = 0;
    std::uint64_t events_cancelled = 0;
  };

  /// A buffered cross-lane send, drained into the destination lane's heap
  /// at the next window barrier in (arrival, sender, send_idx) order.
  struct MailEntry {
    SimTime arrival;
    std::uint64_t sender;
    std::uint64_t send_idx;
    Callback cb;
  };

  std::uint32_t alloc_slot(Lane& lane);
  void release_slot(Lane& lane, std::uint32_t slot);
  bool slot_live(std::uint32_t lane, std::uint32_t slot,
                 std::uint32_t gen) const {
    const Lane& l = lane_const(lane);
    return slot < l.records.size() && l.records[slot].gen == gen;
  }
  void cancel_slot(std::uint32_t lane, std::uint32_t slot, std::uint32_t gen);

  /// Discard stale entries from the top of the heap; returns the earliest
  /// live entry, or nullptr when the queue is (effectively) empty.
  const HeapEntry* live_top(Lane& lane);
  /// Pop and execute the top entry (must be live).
  void execute_top(Lane& lane);
  /// Drop all stale entries and restore the heap invariant.
  void compact(Lane& lane);

  EventHandle schedule_in(Lane& lane, std::uint32_t lane_idx, SimTime at,
                          Callback cb);
  void schedule_tick(SimTime period, std::uint32_t lane_idx,
                     std::uint32_t chain_slot, std::uint32_t chain_gen);

  /// FNV-1a fold of one executed event's (time, seq) pair. Deliberately
  /// out of line: the digest branch in execute_top must stay a bare
  /// untaken test so the disabled-mode hot loop keeps its code layout.
  void fold_digest(Lane& lane, std::uint64_t at, std::uint64_t seq);

  // --- lane plumbing ----------------------------------------------------

  Lane& lane(std::uint32_t i) { return i == 0 ? lane0_ : *extra_[i - 1]; }
  const Lane& lane_const(std::uint32_t i) const {
    return i == 0 ? lane0_ : *extra_[i - 1];
  }
  std::uint32_t lane_count() const {
    return configured_ ? static_cast<std::uint32_t>(shards_) + 1 : 1;
  }
  std::uint32_t global_lane_index() const { return 0; }
  /// Lane index of shard `s` (shard ids are 0-based, lane 0 is global).
  std::uint32_t shard_lane_index(int s) const {
    return static_cast<std::uint32_t>(s) + 1;
  }
  /// Lane the calling context schedules into: the thread's shard lane, or
  /// the global lane outside any shard context. Unsharded: always lane 0.
  std::uint32_t current_lane_index() const {
    if (!configured_) return 0;
    const int s = tls_lane_;
    return s >= 0 ? shard_lane_index(s) : global_lane_index();
  }
  Lane& current_lane() { return lane(current_lane_index()); }
  const Lane& current_lane_const() const {
    return lane_const(current_lane_index());
  }

  // --- sharded window loop ----------------------------------------------

  void run_windows(SimTime until, bool drain_all);
  /// Earliest live event time across shard lanes (not the global lane).
  SimTime shard_min_top();
  /// Execute one lane's events with at < bound (or <= when inclusive), then
  /// advance its clock to bound.
  void run_lane(Lane& lane, SimTime bound, bool inclusive);
  /// Execute all shard lanes for one window, possibly on worker threads.
  void run_shards(SimTime bound, bool inclusive);
  /// Move buffered cross-lane sends into their destination lanes' heaps in
  /// deterministic (arrival, sender, send_idx) order.
  void drain_mailboxes();

  void start_workers(int threads);
  void stop_workers();
  void worker_main(int worker_idx);
  void run_claimed_lanes();

  Lane lane0_;  // unsharded engine; the global lane once configured
  std::vector<std::unique_ptr<Lane>> extra_;  // shard s at extra_[s]
  bool configured_ = false;
  bool digest_enabled_ = false;
  int shards_ = 1;
  SimTime lookahead_ = 0;

  /// mail_[src_lane][dst_shard]; src has shards_+1 entries (global sends).
  std::vector<std::vector<std::vector<MailEntry>>> mail_;
  std::vector<MailEntry> drain_scratch_;
  UniqueFunction barrier_hook_;

  // Worker pool (sharded mode with threads > 1).
  std::vector<std::thread> workers_;
  std::mutex pool_mu_;
  std::condition_variable pool_cv_;
  std::condition_variable pool_done_cv_;
  std::uint64_t job_gen_ = 0;
  SimTime job_bound_ = 0;
  bool job_inclusive_ = false;
  bool pool_stop_ = false;
  int lanes_remaining_ = 0;
  /// Next lane index to claim. Reset by a release store after the job
  /// parameters; claimed by acq_rel fetch_add, which is what orders a
  /// worker's reads of job_bound_/job_inclusive_ after their writes.
  std::atomic<std::uint32_t> next_claim_{0};

  static thread_local int tls_lane_;
};

inline bool EventHandle::pending() const {
  return sim_ != nullptr && sim_->slot_live(lane_, slot_, gen_);
}

inline void EventHandle::cancel() {
  if (sim_ != nullptr) sim_->cancel_slot(lane_, slot_, gen_);
}

}  // namespace sora
