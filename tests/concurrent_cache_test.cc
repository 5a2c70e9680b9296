#include "core/concurrent_cache.h"

#include <gtest/gtest.h>

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

TEST(ConcurrentPairCache, CheapInsertIntoFullWindowIsRejected) {
  ConcurrentPairCache cache(kOneWindow, /*num_shards=*/1);
  ASSERT_EQ(cache.capacity(), kOneWindow);
  for (NodeId i = 0; i < kOneWindow; ++i) {
    cache.Insert(i, 100, PairValue(i, 100), static_cast<uint8_t>(5 + i));
  }
  cache.Insert(50, 100, PairValue(50, 100), /*cost=*/4);
  EXPECT_FALSE(Cached(cache, 50, 100));
  for (NodeId i = 0; i < kOneWindow; ++i) {
    EXPECT_TRUE(Cached(cache, i, 100)) << "entry " << i;
  }
  EXPECT_EQ(cache.rejected(), 1u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.size(), kOneWindow);
}

TEST(ConcurrentPairCache, CostlierInsertDisplacesTheCheapestEntry) {
  ConcurrentPairCache cache(kOneWindow, /*num_shards=*/1);
  // Costs 9, 8, ..., 2: the cheapest entry is the last one inserted.
  for (NodeId i = 0; i < kOneWindow; ++i) {
    cache.Insert(i, 100, PairValue(i, 100), static_cast<uint8_t>(9 - i));
  }
  cache.Insert(50, 100, PairValue(50, 100), /*cost=*/6);
  double value = 0;
  ASSERT_TRUE(cache.Lookup(50, 100, &value));
  EXPECT_EQ(value, PairValue(50, 100));
  EXPECT_FALSE(Cached(cache, kOneWindow - 1, 100));
  for (NodeId i = 0; i + 1 < kOneWindow; ++i) {
    EXPECT_TRUE(Cached(cache, i, 100)) << "entry " << i;
  }
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.rejected(), 0u);
  EXPECT_EQ(cache.size(), kOneWindow);
}

TEST(ConcurrentPairCache, EqualCostDisplacesExactlyOneEntry) {
  // As with the default cost everywhere: a full window of equal-cost
  // entries still admits the newcomer by displacing one of them.
  for (uint8_t cost : {uint8_t{0}, uint8_t{7}}) {
    ConcurrentPairCache cache(kOneWindow, /*num_shards=*/1);
    for (NodeId i = 0; i < kOneWindow; ++i) {
      cache.Insert(i, 100, PairValue(i, 100), cost);
    }
    cache.Insert(50, 100, PairValue(50, 100), cost);
    EXPECT_TRUE(Cached(cache, 50, 100));
    size_t survivors = 0;
    for (NodeId i = 0; i < kOneWindow; ++i) survivors += Cached(cache, i, 100);
    EXPECT_EQ(survivors, kOneWindow - 1) << "cost " << int{cost};
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.rejected(), 0u);
  }
}

TEST(ConcurrentPairCache, RefreshUpdatesValueAndCost) {
  ConcurrentPairCache cache(kOneWindow, /*num_shards=*/1);
  for (NodeId i = 0; i < kOneWindow; ++i) {
    cache.Insert(i, 100, PairValue(i, 100), /*cost=*/3);
  }
  // Raising entry 0 to cost 9 protects it: a cost-3 newcomer must take
  // one of the other seven slots.
  cache.Insert(0, 100, PairValue(0, 100), /*cost=*/9);
  cache.Insert(50, 100, PairValue(50, 100), /*cost=*/3);
  EXPECT_TRUE(Cached(cache, 0, 100));
  EXPECT_TRUE(Cached(cache, 50, 100));
  EXPECT_EQ(cache.size(), kOneWindow);
}

TEST(ConcurrentPairCache, RejectionsReachTheRegistry) {
  ConcurrentPairCache cache(kOneWindow, /*num_shards=*/1);
  cache.BindMetrics("cost_test");
  Counter* rejected = MetricsRegistry::Global().GetCounter(
      "semsim_cache_cost_test_rejected_total");
  const uint64_t before = rejected->Value();
  for (NodeId i = 0; i < kOneWindow; ++i) {
    cache.Insert(i, 100, PairValue(i, 100), /*cost=*/2);
  }
  cache.Insert(50, 100, PairValue(50, 100), /*cost=*/1);
  cache.Insert(51, 100, PairValue(51, 100), /*cost=*/0);
  EXPECT_EQ(rejected->Value() - before, 2u);
  EXPECT_EQ(cache.rejected(), 2u);
  cache.ResetCounters();
  EXPECT_EQ(cache.rejected(), 0u);
}

// Many threads hammering overlapping pairs: every successful lookup must
// return exactly the deterministic value for its pair (a torn or
// misfiled entry would surface as a wrong value). `cost` picks each
// pair's cost class. Run under TSan in the sanitizer CI job.
void OverlappingStress(size_t capacity, uint8_t (*cost)(NodeId, NodeId)) {
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
              cache.Insert(u, v, PairValue(u, v), cost(u, v));
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
  OverlappingStress(1 << 14, [](NodeId, NodeId) { return uint8_t{0}; });
}

TEST(ConcurrentPairCache, ConcurrentOverlappingStressMixedCosts) {
  // 2080 distinct pairs over 512 slots: windows fill, so inserts race
  // displacement and rejection across every cost class.
  OverlappingStress(512, [](NodeId u, NodeId v) {
    return static_cast<uint8_t>((u * 7 + v * 13) % 11);
  });
}

}  // namespace
}  // namespace semsim
