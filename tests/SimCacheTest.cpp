//===----------------------------------------------------------------------===//
// Unit tests for the set-associative LLC model.
//===----------------------------------------------------------------------===//

#include "sim/CacheSim.h"

#include <gtest/gtest.h>

using namespace atmem::sim;

namespace {

CacheConfig tinyCache() {
  CacheConfig Config;
  Config.SizeBytes = 4096; // 64 lines.
  Config.Ways = 4;
  Config.LineBytes = 64;
  return Config;
}

TEST(CacheSimTest, ColdMissThenHit) {
  CacheSim Cache(tinyCache());
  EXPECT_FALSE(Cache.access(0x1000));
  EXPECT_TRUE(Cache.access(0x1000));
}

TEST(CacheSimTest, SameLineSharesEntry) {
  CacheSim Cache(tinyCache());
  Cache.access(0x1000);
  EXPECT_TRUE(Cache.access(0x1030)); // Offset 48, same 64-byte line.
  EXPECT_FALSE(Cache.access(0x1040)); // Next line.
}

TEST(CacheSimTest, SizeRoundsToPowerOfTwoSets) {
  CacheConfig Config;
  Config.SizeBytes = 100 * 64; // 100 lines, 4 ways -> 25 sets -> 16 sets.
  Config.Ways = 4;
  Config.LineBytes = 64;
  CacheSim Cache(Config);
  EXPECT_EQ(Cache.sizeBytes(), 16u * 4 * 64);
}

TEST(CacheSimTest, CapacityEviction) {
  CacheSim Cache(tinyCache()); // 64 lines total.
  // Touch 128 distinct lines; all miss.
  for (uint64_t L = 0; L < 128; ++L)
    EXPECT_FALSE(Cache.access(L * 64));
  // Re-touch the first lines: they were evicted.
  EXPECT_FALSE(Cache.access(0));
}

TEST(CacheSimTest, WorkingSetWithinCapacityHits) {
  CacheSim Cache(tinyCache());
  uint64_t Hits = 0;
  for (int Pass = 0; Pass < 3; ++Pass)
    for (uint64_t L = 0; L < 32; ++L)
      Hits += Cache.access(L * 64);
  // Second and third passes hit: 64 hits (32 lines x 2 passes).
  EXPECT_EQ(Hits, 64u);
}

TEST(CacheSimTest, LruKeepsHotLine) {
  CacheConfig Config;
  Config.SizeBytes = 4 * 64; // One set, 4 ways.
  Config.Ways = 4;
  Config.LineBytes = 64;
  CacheSim Cache(Config);
  Cache.access(0 * 64);
  for (uint64_t L = 1; L < 4; ++L)
    Cache.access(L * 64);
  Cache.access(0); // Refresh line 0; line 1 is now LRU.
  Cache.access(4 * 64); // Evicts line 1.
  EXPECT_TRUE(Cache.access(0));
  EXPECT_FALSE(Cache.access(1 * 64));
}

TEST(CacheSimTest, LruEvictsOldestOfTwoWays) {
  // The scenario that once caught 32-bit recency stamps wrapping (B's
  // stamp read as older than A's): the victim must be the true LRU line.
  CacheConfig Config;
  Config.SizeBytes = 2 * 64; // One set, 2 ways.
  Config.Ways = 2;
  Config.LineBytes = 64;
  CacheSim Cache(Config);
  Cache.access(0 * 64); // A.
  Cache.access(1 * 64); // B.
  Cache.access(2 * 64); // C must evict A, the true LRU line, not B.
  EXPECT_TRUE(Cache.access(1 * 64));
  EXPECT_FALSE(Cache.access(0 * 64));
}

TEST(CacheSimTest, FlushAllEmptiesCache) {
  CacheSim Cache(tinyCache());
  Cache.access(0x40);
  Cache.flushAll();
  EXPECT_FALSE(Cache.access(0x40));
}

TEST(CacheSimTest, SequentialScanMissesOncePerLine) {
  CacheSim Cache(tinyCache());
  uint64_t Misses = 0;
  // 16 4-byte elements per 64-byte line.
  for (uint64_t Off = 0; Off < 1024; Off += 4)
    Misses += !Cache.access(Off);
  EXPECT_EQ(Misses, 16u);
}

} // namespace
