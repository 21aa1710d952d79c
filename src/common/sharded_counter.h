// A count that many threads add to at once without sharing a cache line.
//
// Each thread adds to a slot of its own, one 64-byte line per slot, and a
// read sums the slots. A shared atomic would move its line between the
// adding cores on every add; here the line stays in the adder's cache. The
// parallel tick's probe and packet counters use it (DESIGN.md §7).
//
// A thread takes the lowest free slot at its first add and gives it back
// when it exits, so the threads alive at once hold distinct slots. Past
// kSlots live adders the rest share the last slot: slower, never wrong,
// since every add is atomic.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace pingmesh {

/// The cache line the probe path pads per-thread and per-shard data to.
inline constexpr std::size_t kCacheLineBytes = 64;

class ShardedCounter {
 public:
  void add(std::uint64_t n = 1) {
    slots_[this_thread_slot()].value.fetch_add(n, std::memory_order_relaxed);
  }

  /// The sum of every add that happens-before the read (the driver reads
  /// between ticks, after the pool's barrier).
  [[nodiscard]] std::uint64_t read() const {
    std::uint64_t sum = 0;
    for (const Slot& s : slots_) sum += s.value.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  static constexpr std::size_t kSlots = 16;
  static constexpr std::uint32_t kAllTaken = (1u << kSlots) - 1;

  struct alignas(kCacheLineBytes) Slot {
    std::atomic<std::uint64_t> value{0};
  };

  /// One thread's claim on a slot, held from its first add until it exits.
  struct Lease {
    std::size_t slot = kSlots - 1;
    bool owned = false;
    Lease() {
      std::uint32_t taken = taken_.load(std::memory_order_relaxed);
      while (taken != kAllTaken) {
        const int free_slot = std::countr_one(taken);
        if (taken_.compare_exchange_weak(taken, taken | (1u << free_slot),
                                         std::memory_order_relaxed)) {
          slot = static_cast<std::size_t>(free_slot);
          owned = true;
          return;
        }
      }
    }
    ~Lease() {
      if (owned) taken_.fetch_and(~(1u << slot), std::memory_order_relaxed);
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
  };

  static std::size_t this_thread_slot() {
    thread_local const Lease lease;
    return lease.slot;
  }

  static inline std::atomic<std::uint32_t> taken_{0};
  std::array<Slot, kSlots> slots_;
};

}  // namespace pingmesh
