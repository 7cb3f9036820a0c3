// Frozen calibration kernels. Host speed on a shared machine drifts by up
// to half over minutes as neighbours load the caches and the memory bus;
// CPU time measures that drift along with the program, and memory-bound
// work drifts more than compute-bound work. Two kernels track the two:
//
// - compute: a seeded mix of binary-heap and hash-table work on a 256 KiB
//   working set, which stays in the core's own caches;
// - memory: a dependent pointer chase through 64 MiB, one cache line per
//   step, which misses the core's caches on every step.
//
// Both share no code with the simulator, and every buffer they touch is
// allocated and written once, when the HostProbe is built, before the first
// rep. A timed run allocates nothing, so neither the simulator's heap state
// nor a change to the repository can move them.
#include <algorithm>
#include <functional>

#include "perfbench.h"

namespace perfbench {
namespace {

constexpr std::size_t kHeapSize = 4096;
constexpr std::size_t kTableSlots = 1 << 15;  // 256 KiB of uint64
constexpr int kComputeSteps = 150000;
constexpr std::size_t kChaseNodes = (std::size_t{64} << 20) / sizeof(HostProbe::Node);
constexpr int kChaseSteps = 150000;

}  // namespace

HostProbe::HostProbe()
    : heap_(kHeapSize), table_(kTableSlots), chase_(kChaseNodes) {
  // One cycle through every node in a seeded random order (Sattolo's
  // algorithm), so each step of the chase lands on an unpredictable cache
  // line. Built in place: a freed temporary would move the allocator's
  // thresholds before the first rep.
  for (std::size_t i = 0; i < kChaseNodes; ++i) {
    chase_[i].next = static_cast<std::uint32_t>(i);
  }
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (std::size_t i = kChaseNodes - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(chase_[i].next, chase_[x % i].next);
  }
  run();  // first touch of every page, outside any measurement
}

double HostProbe::resident_mb() const {
  const std::size_t bytes = heap_.capacity() * sizeof(heap_[0]) +
                            table_.capacity() * sizeof(table_[0]) +
                            chase_.capacity() * sizeof(chase_[0]);
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

HostProbe::Sample HostProbe::run() {
  std::uint64_t x = 88172645463325252ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::uint64_t sink = 0;

  const double t0 = cpu_seconds();
  for (std::size_t i = 0; i < kHeapSize; ++i) heap_[i] = next() % 1000000;
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
  for (int i = 0; i < kComputeSteps; ++i) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    const std::uint64_t top = heap_.back();
    heap_.back() = top + next() % 1000;
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    // Open addressing with linear probing over a bounded window.
    std::size_t slot = (top * 0x9E3779B97F4A7C15ULL) >> 49;
    for (int probe = 0; probe < 4 && table_[slot] != 0; ++probe) {
      sink += table_[slot];
      slot = (slot + 1) % kTableSlots;
    }
    table_[slot] = top | 1;
  }
  const double t1 = cpu_seconds();
  std::uint32_t at = static_cast<std::uint32_t>(sink % kChaseNodes);
  for (int i = 0; i < kChaseSteps; ++i) at = chase_[at].next;
  const double t2 = cpu_seconds();

  // Both results feed `sink`, and testing it keeps the loops from being
  // optimized away.
  sink += at;
  std::fill(table_.begin(), table_.end(), sink == 0 ? 1 : 0);
  return {t1 - t0, t2 - t1};
}

}  // namespace perfbench
