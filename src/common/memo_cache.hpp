// Bounded, sharded, thread-safe memoization cache: 64-bit key -> double.
//
// Built for the S2 SURF match-score memo of the matching stack, where the
// same key-frame pair is scored again and again across aggregation rounds and
// incremental re-runs. The value space is a plain double so the cache stays
// generic (any expensive pure function of a hashable identity fits).
//
// Concurrency model: the key space is split over `shards` independently
// locked maps, so parallel matchers rarely contend. Each shard is bounded to
// capacity/shards entries with FIFO eviction — the cache can only ever trade
// recomputation for memory, never change a result, so eviction is safe for
// bit-deterministic pipelines.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/annotations.hpp"

namespace crowdmap::common {

class BoundedMemoCache {
 public:
  /// `capacity` is the total entry bound across all shards (rounded up to at
  /// least one entry per shard). `shards` trades memory locality for lower
  /// lock contention; it is clamped to [1, capacity].
  explicit BoundedMemoCache(std::size_t capacity, std::size_t shards = 16)
      : capacity_(std::max<std::size_t>(capacity, 1)) {
    shards = std::clamp<std::size_t>(shards, 1, capacity_);
    per_shard_capacity_ = (capacity_ + shards - 1) / shards;
    shards_ = std::vector<Shard>(shards);
  }

  BoundedMemoCache(const BoundedMemoCache&) = delete;
  BoundedMemoCache& operator=(const BoundedMemoCache&) = delete;

  /// Cached value for `key`, or nullopt. Counts a hit or a miss.
  [[nodiscard]] std::optional<double> lookup(std::uint64_t key) {
    Shard& shard = shard_for(key);
    MutexLock lock(shard.mutex);
    const auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }

  /// Stores `value` under `key`, evicting the shard's oldest entry at
  /// capacity. A concurrent insert of the same key keeps the first value
  /// (memoized functions are pure, so both writers carry the same number).
  void insert(std::uint64_t key, double value) {
    Shard& shard = shard_for(key);
    MutexLock lock(shard.mutex);
    if (!shard.map.emplace(key, value).second) return;
    shard.order.push_back(key);
    if (shard.order.size() > per_shard_capacity_) {
      shard.map.erase(shard.order.front());
      shard.order.pop_front();
    }
  }

  /// lookup() then, on a miss, compute() + insert(). The computation runs
  /// outside the shard lock, so two threads may race to compute the same key;
  /// both get the (identical) value and the first insert wins.
  template <typename F>
  [[nodiscard]] double get_or_compute(std::uint64_t key, F&& compute) {
    if (const auto cached = lookup(key)) return *cached;
    const double value = compute();
    insert(key, value);
    return value;
  }

  [[nodiscard]] std::uint64_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Current entry count (sums the shards; approximate under concurrency).
  [[nodiscard]] std::size_t size() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) {
      MutexLock lock(shard.mutex);
      total += shard.map.size();
    }
    return total;
  }

  void clear() {
    for (Shard& shard : shards_) {
      MutexLock lock(shard.mutex);
      shard.map.clear();
      shard.order.clear();
    }
  }

 private:
  struct Shard {
    mutable Mutex mutex;
    // Entries are only ever looked up by key, never iterated in an
    // order-sensitive way, so hash-ordering nondeterminism cannot escape.
    std::unordered_map<std::uint64_t, double> map CM_GUARDED_BY(mutex);
    std::deque<std::uint64_t> order CM_GUARDED_BY(mutex);  // FIFO eviction
  };

  [[nodiscard]] Shard& shard_for(std::uint64_t key) noexcept {
    // High-quality mixing is the caller's job (keys come from hash_combine);
    // the low bits select the shard.
    return shards_[key % shards_.size()];
  }

  std::size_t capacity_;
  std::size_t per_shard_capacity_;
  std::vector<Shard> shards_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace crowdmap::common
