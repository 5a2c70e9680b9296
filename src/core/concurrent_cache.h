#ifndef SEMSIM_CORE_CONCURRENT_CACHE_H_
#define SEMSIM_CORE_CONCURRENT_CACHE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "graph/types.h"

namespace semsim {

/// Thread-safe, sharded, capacity-bounded cache from unordered node
/// pairs to doubles — the cross-query state behind the batch engine.
/// SLING and ProbeSim both show that single-source/top-k SimRank
/// throughput comes from shared, reusable per-pair state; this is that
/// state for SemSim's expensive pair function, the SO normalizer.
///
/// Layout: keys are canonicalized (min, max) and packed into one
/// uint64; shards are selected by key hash, each shard an
/// open-addressing table (linear probing, bounded probe window) under
/// its own mutex, so contention is striped and no rehash ever happens.
/// Capacity is fixed at construction. Every entry carries a one-byte
/// cost class (what recomputing it would cost, on a log scale) in an
/// array beside the slots. When every slot of a probe window is taken,
/// the insert displaces the cheapest entry of the window (the first of
/// them on ties), and an insert cheaper than every entry there is
/// dropped — so a stream of cheap pairs cannot flush the expensive
/// ones. With the default cost 0 this is plain "displace the window's
/// first entry". Values must be deterministic functions of the key — a
/// displaced or dropped entry is recomputed bit-identically later,
/// which is what keeps batch results independent of thread count and
/// cache history.
class ConcurrentPairCache {
 public:
  /// `capacity` is rounded up per shard to a power of two; total slot
  /// count ends up >= capacity. `num_shards` is rounded to a power of
  /// two and bounded by the slot count.
  explicit ConcurrentPairCache(size_t capacity = 1 << 20,
                               size_t num_shards = 64) {
    if (capacity == 0) capacity = 1;
    if (num_shards == 0) num_shards = 1;
    while (num_shards * kProbeWindow > RoundUpPow2(capacity) &&
           num_shards > 1) {
      num_shards /= 2;
    }
    num_shards = RoundUpPow2(num_shards);
    size_t per_shard = RoundUpPow2((capacity + num_shards - 1) / num_shards);
    if (per_shard < kProbeWindow) per_shard = kProbeWindow;
    shards_ = std::vector<Shard>(num_shards);
    for (Shard& s : shards_) {
      s.slots.assign(per_shard, Slot{kEmptyKey, 0.0});
      s.costs.assign(per_shard, 0);
    }
    shard_mask_ = num_shards - 1;
    slot_mask_ = per_shard - 1;
  }

  /// Returns true and sets *value when the pair is cached.
  bool Lookup(NodeId u, NodeId v, double* value) const {
    uint64_t key = PackKey(u, v);
    uint64_t h = Mix(key);
    const Shard& shard = shards_[h & shard_mask_];
    size_t base = (h >> kShardBits) & slot_mask_;
    std::lock_guard<std::mutex> lock(shard.mu);
    for (size_t i = 0; i < kProbeWindow; ++i) {
      const Slot& slot = shard.slots[(base + i) & slot_mask_];
      if (slot.key == key) {
        *value = slot.value;
        hits_.fetch_add(1, std::memory_order_relaxed);
        if (metric_hits_ != nullptr) metric_hits_->Add(1);
        return true;
      }
      if (slot.key == kEmptyKey) break;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (metric_misses_ != nullptr) metric_misses_->Add(1);
    return false;
  }

  /// Inserts (or refreshes) the pair with cost class `cost`. When the
  /// probe window is full the cheapest entry no costlier than `cost` is
  /// displaced (the first such slot on ties); when every entry there is
  /// costlier, the insert is dropped and counted as rejected.
  void Insert(NodeId u, NodeId v, double value, uint8_t cost = 0) {
    uint64_t key = PackKey(u, v);
    uint64_t h = Mix(key);
    Shard& shard = shards_[h & shard_mask_];
    size_t base = (h >> kShardBits) & slot_mask_;
    std::lock_guard<std::mutex> lock(shard.mu);
    size_t victim = base & slot_mask_;
    bool displaced = true;
    for (size_t i = 0; i < kProbeWindow; ++i) {
      size_t at = (base + i) & slot_mask_;
      Slot& slot = shard.slots[at];
      if (slot.key == key) {
        slot.value = value;
        shard.costs[at] = cost;
        return;
      }
      if (slot.key == kEmptyKey) {
        victim = at;
        ++shard.used;
        displaced = false;
        break;
      }
      if (shard.costs[at] < shard.costs[victim]) victim = at;
    }
    if (displaced) {
      if (cost < shard.costs[victim]) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        if (metric_rejected_ != nullptr) metric_rejected_->Add(1);
        return;
      }
      evictions_.fetch_add(1, std::memory_order_relaxed);
      if (metric_evictions_ != nullptr) metric_evictions_->Add(1);
    }
    shard.slots[victim] = Slot{key, value};
    shard.costs[victim] = cost;
  }

  void Clear() {
    for (Shard& s : shards_) {
      std::lock_guard<std::mutex> lock(s.mu);
      for (Slot& slot : s.slots) slot = Slot{kEmptyKey, 0.0};
      std::fill(s.costs.begin(), s.costs.end(), uint8_t{0});
      s.used = 0;
    }
    ResetCounters();
  }

  /// Occupied slots (exact; takes every shard lock).
  size_t size() const {
    size_t total = 0;
    for (const Shard& s : shards_) {
      std::lock_guard<std::mutex> lock(s.mu);
      total += s.used;
    }
    return total;
  }

  size_t capacity() const { return shards_.size() * (slot_mask_ + 1); }
  size_t num_shards() const { return shards_.size(); }

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  /// Displacing inserts: the probe window was full so an older pair was
  /// overwritten. A high rate relative to misses means the capacity is
  /// too small for the working set.
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// Dropped inserts: the probe window was full of costlier entries, so
  /// the pair was not cached. Counts the cheap traffic that cost-aware
  /// replacement kept from flushing expensive entries.
  uint64_t rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }
  double hit_rate() const {
    uint64_t h = hits(), m = misses();
    return h + m == 0 ? 0.0 : static_cast<double>(h) / (h + m);
  }
  void ResetCounters() {
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
    evictions_.store(0, std::memory_order_relaxed);
    rejected_.store(0, std::memory_order_relaxed);
  }

  /// Additionally routes this cache's traffic into the global
  /// MetricsRegistry as
  /// `semsim_cache_<name>_{hits,misses,evictions,rejected}_total`
  /// (shared with any other cache bound to the same name). Unbound caches
  /// pay only the local atomics.
  void BindMetrics(std::string_view name) {
    MetricsRegistry& registry = MetricsRegistry::Global();
    std::string base = "semsim_cache_" + std::string(name) + "_";
    metric_hits_ = registry.GetCounter(base + "hits_total");
    metric_misses_ = registry.GetCounter(base + "misses_total");
    metric_evictions_ = registry.GetCounter(base + "evictions_total");
    metric_rejected_ = registry.GetCounter(base + "rejected_total");
  }

  size_t MemoryBytes() const {
    return capacity() * (sizeof(Slot) + sizeof(uint8_t));
  }

 private:
  struct Slot {
    uint64_t key;
    double value;
  };
  struct Shard {
    mutable std::mutex mu;
    std::vector<Slot> slots;
    std::vector<uint8_t> costs;  // cost class of slots[i]
    size_t used = 0;

    Shard() = default;
    // vector<Shard> construction only; never copied while live.
    Shard(const Shard& o) : slots(o.slots), costs(o.costs), used(o.used) {}
  };

  // (kInvalidNode, kInvalidNode) cannot name a real pair.
  static constexpr uint64_t kEmptyKey = ~0ULL;
  static constexpr size_t kProbeWindow = 8;
  static constexpr int kShardBits = 16;  // hash bits consumed by sharding

  static size_t RoundUpPow2(size_t x) {
    size_t p = 1;
    while (p < x) p <<= 1;
    return p;
  }

  static uint64_t PackKey(NodeId u, NodeId v) {
    NodeId lo = u <= v ? u : v;
    NodeId hi = u <= v ? v : u;
    return (static_cast<uint64_t>(lo) << 32) | hi;
  }

  // SplitMix64 finalizer (same mix as NodePairHash).
  static uint64_t Mix(uint64_t k) {
    k = (k ^ (k >> 30)) * 0xBF58476D1CE4E5B9ULL;
    k = (k ^ (k >> 27)) * 0x94D049BB133111EBULL;
    return k ^ (k >> 31);
  }

  std::vector<Shard> shards_;
  size_t shard_mask_ = 0;
  size_t slot_mask_ = 0;
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> rejected_{0};
  Counter* metric_hits_ = nullptr;
  Counter* metric_misses_ = nullptr;
  Counter* metric_evictions_ = nullptr;
  Counter* metric_rejected_ = nullptr;
};

}  // namespace semsim

#endif  // SEMSIM_CORE_CONCURRENT_CACHE_H_
