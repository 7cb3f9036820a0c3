#include "sim/simulator.h"

#include <algorithm>
#include <utility>

#include "common/log.h"
#include "obs/metrics.h"

namespace sora {

namespace {
constexpr SimTime kNoEvent = std::numeric_limits<SimTime>::max();

SimTime sat_add(SimTime a, SimTime b) {
  if (a >= kNoEvent - b) return kNoEvent;
  return a + b;
}
}  // namespace

thread_local int Simulator::tls_lane_ = -1;

Simulator::Simulator() {
  set_log_clock(this, [](const void* ctx) {
    return static_cast<const Simulator*>(ctx)->now();
  });
}

Simulator::~Simulator() {
  stop_workers();
  clear_log_clock(this);
}

void Simulator::publish_metrics(obs::MetricsRegistry& metrics) const {
  metrics.counter("sim.events_executed").set_total(
      static_cast<double>(events_executed()));
  metrics.counter("sim.events_cancelled").set_total(
      static_cast<double>(events_cancelled()));
  metrics.gauge("sim.events_pending").set(
      static_cast<double>(events_pending()));
  metrics.gauge("sim.now_us").set(static_cast<double>(now()));
}

std::uint64_t Simulator::digest() const {
  if (!configured_) return lane0_.digest;
  // Combine per-lane digests in lane order. Comparable between runs with the
  // same shard count only; see the header note.
  std::uint64_t h = 1469598103934665603ULL;
  for (std::uint32_t i = 0; i < lane_count(); ++i) {
    std::uint64_t v = lane_const(i).digest;
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (b * 8)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

std::uint64_t Simulator::events_executed() const {
  std::uint64_t n = 0;
  for (std::uint32_t i = 0; i < lane_count(); ++i) {
    n += lane_const(i).events_executed;
  }
  return n;
}

std::uint64_t Simulator::events_cancelled() const {
  std::uint64_t n = 0;
  for (std::uint32_t i = 0; i < lane_count(); ++i) {
    n += lane_const(i).events_cancelled;
  }
  return n;
}

std::size_t Simulator::events_pending() const {
  std::size_t n = 0;
  for (std::uint32_t i = 0; i < lane_count(); ++i) {
    const Lane& l = lane_const(i);
    n += l.heap.size() - l.stale_in_heap;
  }
  for (const auto& per_src : mail_) {
    for (const auto& box : per_src) n += box.size();
  }
  return n;
}

std::size_t Simulator::heap_entries() const {
  std::size_t n = 0;
  for (std::uint32_t i = 0; i < lane_count(); ++i) {
    n += lane_const(i).heap.size();
  }
  return n;
}

std::uint32_t Simulator::alloc_slot(Lane& l) {
  if (l.free_head != kNilSlot) {
    const std::uint32_t slot = l.free_head;
    l.free_head = l.records[slot].next_free;
    return slot;
  }
  l.records.emplace_back();
  return static_cast<std::uint32_t>(l.records.size() - 1);
}

void Simulator::release_slot(Lane& l, std::uint32_t slot) {
  EventRecord& rec = l.records[slot];
  rec.cb.reset();
  ++rec.gen;  // invalidates outstanding handles and heap entries
  rec.queued = false;
  rec.next_free = l.free_head;
  l.free_head = slot;
}

void Simulator::cancel_slot(std::uint32_t lane_idx, std::uint32_t slot,
                            std::uint32_t gen) {
  if (!slot_live(lane_idx, slot, gen)) return;
  Lane& l = lane(lane_idx);
  const bool was_queued = l.records[slot].queued;
  release_slot(l, slot);  // frees the callback's captures immediately
  ++l.events_cancelled;
  if (was_queued) {
    ++l.stale_in_heap;
    if (l.heap.size() >= kCompactMinHeap &&
        l.stale_in_heap * 2 > l.heap.size()) {
      compact(l);
    }
  }
}

void Simulator::compact(Lane& l) {
  std::erase_if(l.heap, [&l](const HeapEntry& e) {
    return l.records[e.slot].gen != e.gen;
  });
  std::make_heap(l.heap.begin(), l.heap.end(), FiresAfter{});
  l.stale_in_heap = 0;
}

EventHandle Simulator::schedule_in(Lane& l, std::uint32_t lane_idx, SimTime at,
                                   Callback cb) {
  assert(at >= l.now && "cannot schedule in the past");
  const std::uint32_t slot = alloc_slot(l);
  EventRecord& rec = l.records[slot];
  rec.cb = std::move(cb);
  rec.queued = true;
  l.heap.push_back(HeapEntry{at, l.next_seq++, slot, rec.gen});
  std::push_heap(l.heap.begin(), l.heap.end(), FiresAfter{});
  return EventHandle(this, lane_idx, slot, rec.gen);
}

EventHandle Simulator::schedule_at(SimTime at, Callback cb) {
  const std::uint32_t idx = current_lane_index();
  return schedule_in(lane(idx), idx, at, std::move(cb));
}

EventHandle Simulator::schedule_periodic(SimTime period, Callback cb) {
  assert(period > 0);
  // The chain's user callback lives in an anchor slot that is never queued;
  // each firing is a small one-shot event referencing the anchor. Cancelling
  // the handle frees the anchor, so the next tick sees a stale generation
  // and the chain stops (and its state is already released).
  const std::uint32_t idx = current_lane_index();
  Lane& l = lane(idx);
  const std::uint32_t slot = alloc_slot(l);
  EventRecord& rec = l.records[slot];
  rec.cb = std::move(cb);
  const std::uint32_t gen = rec.gen;
  schedule_tick(period, idx, slot, gen);
  return EventHandle(this, idx, slot, gen);
}

void Simulator::schedule_tick(SimTime period, std::uint32_t lane_idx,
                              std::uint32_t chain_slot,
                              std::uint32_t chain_gen) {
  Lane& l = lane(lane_idx);
  schedule_in(l, lane_idx, l.now + period,
              [this, period, lane_idx, chain_slot, chain_gen] {
    if (!slot_live(lane_idx, chain_slot, chain_gen)) return;  // cancelled
    // Run the callback from a local so the slab may grow (or the chain
    // cancel itself) underneath us, then put it back if the chain survived.
    Callback cb = std::move(lane(lane_idx).records[chain_slot].cb);
    cb();
    if (slot_live(lane_idx, chain_slot, chain_gen)) {
      lane(lane_idx).records[chain_slot].cb = std::move(cb);
      schedule_tick(period, lane_idx, chain_slot, chain_gen);
    }
  });
}

const Simulator::HeapEntry* Simulator::live_top(Lane& l) {
  while (!l.heap.empty()) {
    const HeapEntry& top = l.heap.front();
    if (l.records[top.slot].gen == top.gen) return &top;
    std::pop_heap(l.heap.begin(), l.heap.end(), FiresAfter{});
    l.heap.pop_back();
    --l.stale_in_heap;
  }
  return nullptr;
}

void Simulator::execute_top(Lane& l) {
  const HeapEntry top = l.heap.front();
  std::pop_heap(l.heap.begin(), l.heap.end(), FiresAfter{});
  l.heap.pop_back();
  l.now = top.at;
  if (digest_enabled_) [[unlikely]] {
    fold_digest(l, static_cast<std::uint64_t>(top.at), top.seq);
  }
  // Free the slot before invoking so handles report !pending() inside the
  // callback and the slot is immediately reusable by new events.
  Callback cb = std::move(l.records[top.slot].cb);
  release_slot(l, top.slot);
  ++l.events_executed;
  cb();
}

void Simulator::fold_digest(Lane& l, std::uint64_t at, std::uint64_t seq) {
  // FNV-1a over the (time, seq) pair of every executed event: a full
  // fingerprint of the schedule without touching callback state.
  const auto fold = [&l](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      l.digest ^= (v >> (i * 8)) & 0xff;
      l.digest *= 1099511628211ULL;  // FNV prime
    }
  };
  fold(at);
  fold(seq);
}

bool Simulator::step() {
  assert(!configured_ && "step() is unsharded-only");
  if (live_top(lane0_) == nullptr) return false;
  execute_top(lane0_);
  return true;
}

void Simulator::run_until(SimTime until) {
  if (configured_) {
    run_windows(until, /*drain_all=*/false);
    for (std::uint32_t i = 0; i < lane_count(); ++i) {
      Lane& l = lane(i);
      if (l.now < until) l.now = until;
    }
    return;
  }
  Lane& l = lane0_;
  for (const HeapEntry* top;
       (top = live_top(l)) != nullptr && top->at <= until;) {
    execute_top(l);
  }
  if (l.now < until) l.now = until;
}

void Simulator::run_all() {
  if (configured_) {
    run_windows(kNoEvent, /*drain_all=*/true);
    return;
  }
  while (live_top(lane0_) != nullptr) {
    execute_top(lane0_);
  }
}

// --- Sharded mode ---------------------------------------------------------

void Simulator::configure_shards(int shards, SimTime lookahead, int threads) {
  assert(!configured_ && "configure_shards may only be called once");
  assert(shards >= 1);
  assert(lookahead > 0 && "conservative windows need a positive lookahead");
  configured_ = true;
  shards_ = shards;
  lookahead_ = lookahead;
  // Lane 0 (the inline members) becomes the global lane, keeping any events
  // scheduled before configuration — controller and observability wiring —
  // global, together with the lane index captured in their periodic chains
  // and handles. Shard s lives at extra_[s] (lane index s + 1).
  extra_.clear();
  for (int i = 0; i < shards; ++i) {
    extra_.push_back(std::make_unique<Lane>());
    extra_.back()->now = lane0_.now;
  }
  mail_.clear();
  mail_.resize(static_cast<std::size_t>(shards) + 1);
  for (auto& per_src : mail_) per_src.resize(static_cast<std::size_t>(shards));
  if (threads > shards) threads = shards;
  if (threads > 1) start_workers(threads);
}

void Simulator::send_cross(int dst_shard, std::uint64_t sender,
                           std::uint64_t send_idx, SimTime delay,
                           Callback cb) {
  assert(configured_);
  assert(dst_shard >= 0 && dst_shard < shards_);
  assert(delay >= lookahead_ &&
         "cross-lane delay below the conservative lookahead window");
  const std::uint32_t src = current_lane_index();
  mail_[src][static_cast<std::size_t>(dst_shard)].push_back(
      MailEntry{current_lane().now + delay, sender, send_idx, std::move(cb)});
}

SimTime Simulator::shard_min_top() {
  SimTime e = kNoEvent;
  for (int i = 0; i < shards_; ++i) {
    const HeapEntry* top = live_top(lane(shard_lane_index(i)));
    if (top != nullptr && top->at < e) e = top->at;
  }
  return e;
}

void Simulator::drain_mailboxes() {
  for (int dst = 0; dst < shards_; ++dst) {
    drain_scratch_.clear();
    for (auto& per_src : mail_) {
      auto& box = per_src[static_cast<std::size_t>(dst)];
      for (auto& entry : box) drain_scratch_.push_back(std::move(entry));
      box.clear();
    }
    if (drain_scratch_.empty()) continue;
    // The merge key is independent of the shard count: arrival time, then
    // the sending entity's stable id, then its private send counter. This is
    // what makes shards=1 and shards=N order same-arrival events alike.
    std::stable_sort(drain_scratch_.begin(), drain_scratch_.end(),
                     [](const MailEntry& a, const MailEntry& b) {
                       if (a.arrival != b.arrival) return a.arrival < b.arrival;
                       if (a.sender != b.sender) return a.sender < b.sender;
                       return a.send_idx < b.send_idx;
                     });
    Lane& l = lane(shard_lane_index(dst));
    for (auto& entry : drain_scratch_) {
      assert(entry.arrival >= l.now && "mailbox entry arrived in the past");
      schedule_in(l, shard_lane_index(dst), entry.arrival,
                  std::move(entry.cb));
    }
    drain_scratch_.clear();
  }
}

void Simulator::run_lane(Lane& l, SimTime bound, bool inclusive) {
  for (const HeapEntry* top; (top = live_top(l)) != nullptr;) {
    if (top->at > bound || (!inclusive && top->at == bound)) break;
    execute_top(l);
  }
  if (l.now < bound) l.now = bound;
}

void Simulator::run_shards(SimTime bound, bool inclusive) {
  if (workers_.empty()) {
    for (int i = 0; i < shards_; ++i) {
      tls_lane_ = i;
      run_lane(lane(shard_lane_index(i)), bound, inclusive);
      tls_lane_ = -1;
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    job_bound_ = bound;
    job_inclusive_ = inclusive;
    lanes_remaining_ = shards_;
    ++job_gen_;
    // Publishes the job parameters (and the lanes' state from the last
    // barrier) to a worker that claims through next_claim_ without taking
    // pool_mu_: one still looping from the previous job, say.
    next_claim_.store(0, std::memory_order_release);
  }
  pool_cv_.notify_all();
  run_claimed_lanes();
  std::unique_lock<std::mutex> lock(pool_mu_);
  pool_done_cv_.wait(lock, [this] { return lanes_remaining_ == 0; });
}

void Simulator::run_claimed_lanes() {
  for (;;) {
    const std::uint32_t i = next_claim_.fetch_add(1, std::memory_order_acq_rel);
    if (i >= static_cast<std::uint32_t>(shards_)) break;
    tls_lane_ = static_cast<int>(i);
    run_lane(lane(shard_lane_index(static_cast<int>(i))), job_bound_,
             job_inclusive_);
    tls_lane_ = -1;
    std::lock_guard<std::mutex> lock(pool_mu_);
    if (--lanes_remaining_ == 0) pool_done_cv_.notify_all();
  }
}

void Simulator::start_workers(int threads) {
  const int extra_workers = threads - 1;  // the driving thread participates
  workers_.reserve(static_cast<std::size_t>(extra_workers));
  for (int w = 0; w < extra_workers; ++w) {
    workers_.emplace_back([this, w] { worker_main(w); });
  }
}

void Simulator::worker_main(int /*worker_idx*/) {
  set_log_clock(this, [](const void* ctx) {
    return static_cast<const Simulator*>(ctx)->now();
  });
  std::uint64_t seen_gen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(pool_mu_);
      pool_cv_.wait(lock,
                    [&] { return pool_stop_ || job_gen_ != seen_gen; });
      if (pool_stop_) break;
      seen_gen = job_gen_;
    }
    run_claimed_lanes();
  }
  clear_log_clock(this);
}

void Simulator::stop_workers() {
  if (workers_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    pool_stop_ = true;
  }
  pool_cv_.notify_all();
  for (auto& t : workers_) t.join();
  workers_.clear();
}

void Simulator::run_windows(SimTime until, bool drain_all) {
  Lane& g = lane(global_lane_index());
  for (;;) {
    drain_mailboxes();
    const SimTime e = shard_min_top();
    const HeapEntry* gtop = live_top(g);
    const SimTime gt = gtop != nullptr ? gtop->at : kNoEvent;
    const SimTime next = std::min(e, gt);
    if (next == kNoEvent) break;  // all lanes and mailboxes empty
    if (!drain_all && next > until) break;
    SimTime w = std::min(sat_add(e, lookahead_), gt);
    if (!drain_all) w = std::min(w, until);
    // Shards execute strictly below the window edge (their state is disjoint
    // between barriers, so lane order and thread schedule cannot matter),
    // then per-shard side buffers merge, then global events at exactly the
    // edge run — the serial engine's globals-before-shard-work tie rule.
    run_shards(w, /*inclusive=*/false);
    if (barrier_hook_) barrier_hook_();
    run_lane(g, w, /*inclusive=*/true);
    if (!drain_all && w == until) {
      // Final edge: events at exactly `until` must fire (run_until contract)
      // and globals at `until` have already run. Mailbox sends made here
      // arrive at >= until + lookahead and stay pending for the next call.
      drain_mailboxes();
      if (shard_min_top() <= until) {
        run_shards(until, /*inclusive=*/true);
        if (barrier_hook_) barrier_hook_();
      }
    }
  }
  if (barrier_hook_) barrier_hook_();
}

}  // namespace sora
