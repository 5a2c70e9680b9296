#include "core/concurrent_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>


namespace semsim {
namespace {

// The deterministic "expensive function" the cache is assumed to front.
double PairValue(NodeId u, NodeId v) {
  NodeId lo = u <= v ? u : v;
  NodeId hi = u <= v ? v : u;
  return static_cast<double>(lo) * 1000.0 + hi + 0.25;
}

TEST(ConcurrentPairCache, InsertLookupRoundTrip) {
  ConcurrentPairCache cache(1024);
  double value = 0;
  EXPECT_FALSE(cache.Lookup(1, 2, &value));
  cache.Insert(1, 2, 3.5);
  ASSERT_TRUE(cache.Lookup(1, 2, &value));
  EXPECT_EQ(value, 3.5);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ConcurrentPairCache, KeyIsUnordered) {
  ConcurrentPairCache cache(1024);
  cache.Insert(7, 3, 1.25);
  double value = 0;
  ASSERT_TRUE(cache.Lookup(3, 7, &value));
  EXPECT_EQ(value, 1.25);
  // Refreshing through the reversed orientation hits the same slot.
  cache.Insert(3, 7, 2.5);
  ASSERT_TRUE(cache.Lookup(7, 3, &value));
  EXPECT_EQ(value, 2.5);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ConcurrentPairCache, CapacityStaysBounded) {
  ConcurrentPairCache cache(/*capacity=*/256, /*num_shards=*/4);
  for (NodeId u = 0; u < 200; ++u) {
    for (NodeId v = u; v < 200; ++v) cache.Insert(u, v, PairValue(u, v));
  }
  // Far more inserts than slots: displacement keeps occupancy within the
  // fixed allocation and every surviving entry still holds its value.
  EXPECT_LE(cache.size(), cache.capacity());
  EXPECT_GE(cache.capacity(), 256u);
  size_t survivors = 0;
  for (NodeId u = 0; u < 200; ++u) {
    for (NodeId v = u; v < 200; ++v) {
      double value = 0;
      if (cache.Lookup(u, v, &value)) {
        ++survivors;
        ASSERT_EQ(value, PairValue(u, v));
      }
    }
  }
  EXPECT_GT(survivors, 0u);
  EXPECT_LE(survivors, cache.capacity());
}

TEST(ConcurrentPairCache, CountersTrackHitsAndMisses) {
  ConcurrentPairCache cache(1024);
  double value = 0;
  cache.Lookup(1, 2, &value);
  cache.Insert(1, 2, 1.0);
  cache.Lookup(1, 2, &value);
  cache.Lookup(1, 2, &value);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_NEAR(cache.hit_rate(), 2.0 / 3.0, 1e-12);
  cache.ResetCounters();
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(ConcurrentPairCache, ClearEmptiesTheTable) {
  ConcurrentPairCache cache(1024);
  cache.Insert(1, 2, 1.0);
  cache.Insert(3, 4, 2.0);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  double value = 0;
  EXPECT_FALSE(cache.Lookup(1, 2, &value));
}

// One shard of kProbeWindow slots: every probe window spans the whole
// table, so the first eight distinct pairs fill every window.
constexpr size_t kOneWindow = 8;

bool Cached(const ConcurrentPairCache& cache, NodeId u, NodeId v) {
  double value = 0;
  return cache.Lookup(u, v, &value);
}

// Where a pair's probe window starts in a one-shard cache of kOneWindow
// slots: the cache mixes the packed (lo, hi) key with the same SplitMix64
// finalizer as NodePairHash and takes the window start from the bits
// above the 16 it reserves for shard selection.
size_t WindowStart(NodeId u, NodeId v) {
  const NodePair key = u <= v ? NodePair{u, v} : NodePair{v, u};
  return (NodePairHash{}(key) >> 16) & (kOneWindow - 1);
}

TEST(ConcurrentPairCache, FullWindowDisplacesExactlyItsFirstEntry) {
  ConcurrentPairCache cache(kOneWindow, /*num_shards=*/1);
  ASSERT_EQ(cache.capacity(), kOneWindow);
  // Eight pairs (i, 100) whose windows start at eight distinct slots, so
  // each lands on its own window start and slot s holds resident[s].
  std::vector<NodeId> resident(kOneWindow, kInvalidNode);
  size_t placed = 0;
  for (NodeId i = 0; placed < kOneWindow; ++i) {
    ASSERT_LT(i, 10000u);
    NodeId& at = resident[WindowStart(i, 100)];
    if (at != kInvalidNode) continue;
    at = i;
    ++placed;
  }
  for (NodeId i : resident) cache.Insert(i, 100, PairValue(i, 100));
  EXPECT_EQ(cache.size(), kOneWindow);
  EXPECT_EQ(cache.evictions(), 0u);

  const NodeId newcomer = 20000;
  const NodeId victim = resident[WindowStart(newcomer, 100)];
  cache.Insert(newcomer, 100, PairValue(newcomer, 100));
  double value = 0;
  ASSERT_TRUE(cache.Lookup(newcomer, 100, &value));
  EXPECT_EQ(value, PairValue(newcomer, 100));
  for (NodeId i : resident) {
    EXPECT_EQ(Cached(cache, i, 100), i != victim) << "entry " << i;
  }
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.size(), kOneWindow);

  // A refresh of a resident pair rewrites its slot and evicts nothing.
  cache.Insert(100, newcomer, PairValue(newcomer, 100));
  EXPECT_EQ(cache.evictions(), 1u);
}

// Many threads hammering overlapping pairs: every successful lookup must
// return exactly the deterministic value for its pair (a torn or
// misfiled entry would surface as a wrong value). Run under TSan in the
// sanitizer CI job.
void OverlappingStress(size_t capacity) {
  ConcurrentPairCache cache(capacity);
  constexpr int kThreads = 8;
  constexpr int kRounds = 40;
  constexpr NodeId kUniverse = 64;  // small → heavy overlap across threads
  std::vector<std::thread> threads;
  std::vector<int> wrong(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (NodeId u = 0; u < kUniverse; ++u) {
          for (NodeId v = 0; v < kUniverse; ++v) {
            double value = 0;
            if (cache.Lookup(u, v, &value)) {
              if (value != PairValue(u, v)) ++wrong[t];
            } else {
              cache.Insert(u, v, PairValue(u, v));
            }
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(wrong[t], 0) << "thread " << t;
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_LE(cache.size(), cache.capacity());
}

TEST(ConcurrentPairCache, ConcurrentOverlappingStress) {
  OverlappingStress(1 << 14);
}

TEST(ConcurrentPairCache, ConcurrentOverlappingStressDisplacing) {
  // 2080 distinct pairs over 512 slots: windows fill, so inserts race
  // displacement of each other's entries.
  OverlappingStress(512);
}

// Torn-read stress for the lock-free probe: one shard of one window, so
// every insert lands in the slots every reader probes. Writers keep
// displacing and refreshing 24 pairs through the 8 slots while readers
// probe them; a probe that mixed the key of one write with the value of
// another would return a value that is not PairValue(u, v). Run under
// TSan in the sanitizer CI job.
TEST(ConcurrentPairCache, TornReadsNeverReturnAWrongValue) {
  ConcurrentPairCache cache(kOneWindow, /*num_shards=*/1);
  ASSERT_EQ(cache.capacity(), kOneWindow);
  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr int kLookupsPerReader = 100000;
  constexpr NodeId kPairs = 3 * kOneWindow;
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      NodeId i = static_cast<NodeId>(w);
      while (!done.load(std::memory_order_relaxed)) {
        cache.Insert(i % kPairs, 100, PairValue(i % kPairs, 100));
        i += 1 + static_cast<NodeId>(w);
      }
    });
  }
  std::vector<int> wrong(kReaders, 0);
  std::vector<int> hits(kReaders, 0);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      // Probe only once the writers have filled the window; on a loaded
      // host the readers could otherwise finish before the first insert.
      while (cache.size() < kOneWindow) std::this_thread::yield();
      for (int n = 0; n < kLookupsPerReader; ++n) {
        const NodeId u = static_cast<NodeId>((n * 7 + r) % kPairs);
        double value = 0;
        if (cache.Lookup(100, u, &value)) {
          ++hits[r];
          if (value != PairValue(u, 100)) ++wrong[r];
        }
      }
    });
  }
  for (auto& th : readers) th.join();
  done.store(true, std::memory_order_relaxed);
  for (auto& th : threads) th.join();
  for (int r = 0; r < kReaders; ++r) {
    EXPECT_EQ(wrong[r], 0) << "reader " << r;
    EXPECT_GT(hits[r], 0) << "reader " << r;
  }
  EXPECT_EQ(cache.size(), kOneWindow);
}

// The per-thread sharded counters lose no probe: every lookup, hit or
// miss (torn ones included), is counted exactly once.
TEST(ConcurrentPairCache, CountersAreExactUnderConcurrency) {
  ConcurrentPairCache cache(1024, /*num_shards=*/4);
  constexpr int kThreads = 4;
  constexpr int kLookupsPerThread = 5000;
  constexpr NodeId kUniverse = 48;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int n = 0; n < kLookupsPerThread; ++n) {
        const NodeId u = static_cast<NodeId>((n + t) % kUniverse);
        const NodeId v = static_cast<NodeId>((n / kUniverse) % kUniverse);
        double value = 0;
        if (!cache.Lookup(u, v, &value)) {
          cache.Insert(u, v, PairValue(u, v));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(cache.hits() + cache.misses(),
            uint64_t{kThreads} * kLookupsPerThread);
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GT(cache.misses(), 0u);
}

}  // namespace
}  // namespace semsim
