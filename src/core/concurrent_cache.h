#ifndef SEMSIM_CORE_CONCURRENT_CACHE_H_
#define SEMSIM_CORE_CONCURRENT_CACHE_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
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
/// open-addressing table (linear probing, bounded probe window), so no
/// rehash ever happens. Capacity is fixed at construction.
///
/// Reads take no lock and write no shared memory (DESIGN.md §5). Each
/// shard carries a sequence number that is even while the shard is
/// stable; writers serialize on the shard mutex and make the sequence
/// odd around every slot write. Lookup reads the sequence, the probe
/// window and the sequence again, and a probe that overlapped a writer
/// counts as a miss. The hit/miss/eviction counters are
/// per-thread sharded `Counter`s, so a probe touches no cache line that
/// another thread writes unless a writer is working on the same shard.
///
/// Replacement is positional: an insert takes the first empty slot of
/// its probe window, and when the window is full it displaces the
/// window's first entry. Values must be deterministic functions of the
/// key — a displaced entry, or a probe torn by a writer, is recomputed
/// bit-identically later, which is what keeps batch results independent
/// of thread count and cache history.
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
    shards_ = std::make_unique<Shard[]>(num_shards);
    for (size_t i = 0; i < num_shards; ++i) {
      shards_[i].slots = std::vector<Slot>(per_shard);
    }
    shard_mask_ = num_shards - 1;
    slot_mask_ = per_shard - 1;
  }

  /// Returns true and sets *value when the pair is cached. Lock-free:
  /// a probe that overlapped a writer on its shard reports a miss.
  bool Lookup(NodeId u, NodeId v, double* value) const {
    uint64_t key = PackKey(u, v);
    uint64_t h = Mix(key);
    const Shard& shard = shards_[h & shard_mask_];
    size_t base = (h >> kShardBits) & slot_mask_;
    const uint64_t seq = shard.seq.load(std::memory_order_acquire);
    if ((seq & 1) == 0) {
      for (size_t i = 0; i < kProbeWindow; ++i) {
        const Slot& slot = shard.slots[(base + i) & slot_mask_];
        const uint64_t k = slot.key.load(std::memory_order_acquire);
        if (k == key) {
          const uint64_t bits = slot.bits.load(std::memory_order_acquire);
          // The acquire loads above keep this read after them: a window
          // that saw any write of a concurrent writer also sees its odd
          // sequence here.
          if (shard.seq.load(std::memory_order_relaxed) != seq) break;
          *value = std::bit_cast<double>(bits);
          hits_.Add(1);
          if (metric_hits_ != nullptr) metric_hits_->Add(1);
          return true;
        }
        if (k == kEmptyKey) break;
      }
    }
    misses_.Add(1);
    if (metric_misses_ != nullptr) metric_misses_->Add(1);
    return false;
  }

  /// Inserts (or refreshes) the pair. When the probe window is full its
  /// first entry is displaced and counted as an eviction.
  void Insert(NodeId u, NodeId v, double value) {
    uint64_t key = PackKey(u, v);
    uint64_t h = Mix(key);
    Shard& shard = shards_[h & shard_mask_];
    size_t base = (h >> kShardBits) & slot_mask_;
    std::lock_guard<std::mutex> lock(shard.mu);
    for (size_t i = 0; i < kProbeWindow; ++i) {
      size_t at = (base + i) & slot_mask_;
      const uint64_t k =
          shard.slots[at].key.load(std::memory_order_relaxed);
      if (k == key) {
        shard.Write(at, key, value);
        return;
      }
      if (k == kEmptyKey) {
        ++shard.used;
        shard.Write(at, key, value);
        return;
      }
    }
    evictions_.Add(1);
    if (metric_evictions_ != nullptr) metric_evictions_->Add(1);
    shard.Write(base, key, value);
  }

  void Clear() {
    for (size_t i = 0; i < num_shards(); ++i) {
      Shard& s = shards_[i];
      std::lock_guard<std::mutex> lock(s.mu);
      const uint64_t seq = s.seq.load(std::memory_order_relaxed);
      s.seq.store(seq + 1, std::memory_order_release);
      for (Slot& slot : s.slots) {
        slot.key.store(kEmptyKey, std::memory_order_release);
        slot.bits.store(0, std::memory_order_release);
      }
      s.seq.store(seq + 2, std::memory_order_release);
      s.used = 0;
    }
    ResetCounters();
  }

  /// Occupied slots (exact; takes every shard lock).
  size_t size() const {
    size_t total = 0;
    for (size_t i = 0; i < num_shards(); ++i) {
      std::lock_guard<std::mutex> lock(shards_[i].mu);
      total += shards_[i].used;
    }
    return total;
  }

  size_t capacity() const { return num_shards() * (slot_mask_ + 1); }
  size_t num_shards() const { return shard_mask_ + 1; }

  uint64_t hits() const { return hits_.Value(); }
  uint64_t misses() const { return misses_.Value(); }
  /// Displacing inserts: the probe window was full so an older pair was
  /// overwritten. A high rate relative to misses means the capacity is
  /// too small for the working set.
  uint64_t evictions() const { return evictions_.Value(); }
  double hit_rate() const {
    uint64_t h = hits(), m = misses();
    return h + m == 0 ? 0.0 : static_cast<double>(h) / (h + m);
  }
  void ResetCounters() {
    hits_.Reset();
    misses_.Reset();
    evictions_.Reset();
  }

  /// Additionally routes this cache's traffic into the global
  /// MetricsRegistry as
  /// `semsim_cache_<name>_{hits,misses,evictions}_total`
  /// (shared with any other cache bound to the same name). Unbound caches
  /// pay only the local counters.
  void BindMetrics(std::string_view name) {
    MetricsRegistry& registry = MetricsRegistry::Global();
    std::string base = "semsim_cache_" + std::string(name) + "_";
    metric_hits_ = registry.GetCounter(base + "hits_total");
    metric_misses_ = registry.GetCounter(base + "misses_total");
    metric_evictions_ = registry.GetCounter(base + "evictions_total");
  }

  size_t MemoryBytes() const { return capacity() * sizeof(Slot); }

 private:
  // (kInvalidNode, kInvalidNode) cannot name a real pair.
  static constexpr uint64_t kEmptyKey = ~0ULL;

  // 16 B like a plain {key, double}; the value is stored as its bits.
  struct Slot {
    std::atomic<uint64_t> key{kEmptyKey};
    std::atomic<uint64_t> bits{0};
  };
  // One cache line per shard header, so a writer bumping one shard's
  // sequence does not invalidate the line readers of its neighbour load.
  struct alignas(64) Shard {
    std::atomic<uint64_t> seq{0};  // odd while a writer is mid-write
    mutable std::mutex mu;         // serializes writers
    std::vector<Slot> slots;
    size_t used = 0;               // under mu

    // Under mu. Release stores throughout: a reader whose acquire load
    // sees the new key or bits also sees the odd sequence after it.
    void Write(size_t at, uint64_t key, double value) {
      const uint64_t s = seq.load(std::memory_order_relaxed);
      seq.store(s + 1, std::memory_order_release);
      slots[at].key.store(key, std::memory_order_release);
      slots[at].bits.store(std::bit_cast<uint64_t>(value),
                           std::memory_order_release);
      seq.store(s + 2, std::memory_order_release);
    }
  };

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

  std::unique_ptr<Shard[]> shards_;
  size_t shard_mask_ = 0;
  size_t slot_mask_ = 0;
  mutable Counter hits_;
  mutable Counter misses_;
  Counter evictions_;
  Counter* metric_hits_ = nullptr;
  Counter* metric_misses_ = nullptr;
  Counter* metric_evictions_ = nullptr;
};

}  // namespace semsim

#endif  // SEMSIM_CORE_CONCURRENT_CACHE_H_
