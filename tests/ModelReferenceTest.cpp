//===----------------------------------------------------------------------===//
// Model-vs-reference property tests: the optimized cache and TLB models
// must agree, access for access, with naive dictionary-based reference
// implementations on randomized traces; the migration cost model must be
// monotone in its inputs.
//===----------------------------------------------------------------------===//

#include "sim/CacheSim.h"
#include "sim/FrameAllocator.h"
#include "sim/CostModel.h"
#include "sim/Tlb.h"
#include "support/Prng.h"

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <unordered_map>
#include <vector>

using namespace atmem;
using namespace atmem::sim;

namespace {

/// Naive set-associative LRU cache: per-set list of tags, front = MRU.
class ReferenceCache {
public:
  ReferenceCache(uint32_t Sets, uint32_t Ways, uint32_t LineBytes)
      : Sets(Sets), Ways(Ways), LineBytes(LineBytes), Contents(Sets) {}

  bool access(uint64_t Va) {
    uint64_t Line = Va / LineBytes;
    auto Set = static_cast<uint32_t>(Line % Sets);
    uint64_t Tag = Line / Sets;
    auto &List = Contents[Set];
    for (auto It = List.begin(); It != List.end(); ++It) {
      if (*It == Tag) {
        List.erase(It);
        List.push_front(Tag);
        return true;
      }
    }
    List.push_front(Tag);
    if (List.size() > Ways)
      List.pop_back();
    return false;
  }

  /// Drops the entry holding \p Va's line, if present.
  void remove(uint64_t Va) {
    uint64_t Line = Va / LineBytes;
    Contents[Line % Sets].remove(Line / Sets);
  }

  void flushAll() {
    for (auto &List : Contents)
      List.clear();
  }

private:
  uint32_t Sets;
  uint32_t Ways;
  uint32_t LineBytes;
  std::vector<std::list<uint64_t>> Contents;
};

class CacheEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CacheEquivalenceTest, MatchesReferenceAccessForAccess) {
  struct Geometry {
    uint32_t Sets, Ways;
  };
  // The historical small config, the shipped LLC geometries at the
  // perfbench scale (NVM 1/256: 128 x 16, MCDRAM 1/256: 64 x 16), and a
  // single set whose width is not a multiple of the 4-way SIMD group.
  for (Geometry G : {Geometry{64, 4}, Geometry{128, 16}, Geometry{64, 16},
                     Geometry{1, 6}}) {
    CacheConfig Config;
    Config.SizeBytes = uint64_t{G.Sets} * G.Ways * 64;
    Config.Ways = G.Ways;
    Config.LineBytes = 64;
    CacheSim Model(Config);
    ASSERT_EQ(Model.sizeBytes(), Config.SizeBytes);
    ReferenceCache Reference(G.Sets, G.Ways, 64);

    Xoshiro256 Rng(GetParam());
    uint64_t HotBytes = 2 * Config.SizeBytes;
    for (int I = 0; I < 50000; ++I) {
      if (I % 12500 == 12499) {
        Model.flushAll();
        Reference.flushAll();
      }
      // A hot window around the capacity (MRU hits and deep LRU hits), a
      // cold stream (misses with eviction), and same-set strides that walk
      // one row through every recency position.
      uint64_t Va;
      switch (Rng.nextBounded(3)) {
      case 0:
        Va = Rng.nextBounded(HotBytes);
        break;
      case 1:
        Va = Rng.nextBounded(1ull << 30);
        break;
      default:
        Va = Rng.nextBounded(2 * G.Ways) * G.Sets * 64 + Rng.nextBounded(64);
        break;
      }
      ASSERT_EQ(Model.access(Va), Reference.access(Va))
          << G.Sets << "x" << G.Ways << ", access " << I;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheEquivalenceTest,
                         ::testing::Range<uint64_t>(40, 48));

/// Naive TLB array reference, mirroring ReferenceCache for pages.
class TlbEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TlbEquivalenceTest, SmallArrayMatchesReference) {
  TlbArray Model(/*Entries=*/32, /*Ways=*/4, SmallPageBytes);
  ReferenceCache Reference(8, 4, SmallPageBytes);
  Xoshiro256 Rng(GetParam());
  for (int I = 0; I < 50000; ++I) {
    uint64_t Va = Rng.nextBounded(2) ? Rng.nextBounded(1ull << 18)
                                     : Rng.nextBounded(1ull << 24);
    if (Rng.nextBounded(8) == 0) {
      // Shootdowns, present or not, interleaved with the lookups.
      Model.flushPage(Va);
      Reference.remove(Va);
      continue;
    }
    ASSERT_EQ(Model.access(Va), Reference.access(Va)) << "access " << I;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TlbEquivalenceTest,
                         ::testing::Range<uint64_t>(60, 66));

//===----------------------------------------------------------------------===//
// Cost model monotonicity
//===----------------------------------------------------------------------===//

TEST(CostModelMonotonicityTest, MigrationTimeGrowsWithBytes) {
  MachineConfig Config = nvmDramTestbed();
  MigrationCostModel Model(Config);
  double Previous = 0.0;
  for (uint64_t Mib = 1; Mib <= 256; Mib *= 4) {
    MigrationWork Work;
    Work.Bytes = Mib << 20;
    Work.PtesTouched = Work.Bytes / SmallPageBytes;
    double T = Model.atmemSeconds(Work);
    EXPECT_GT(T, Previous);
    Previous = T;
  }
}

TEST(CostModelMonotonicityTest, MoreCopyThreadsNeverSlower) {
  MachineConfig Config = nvmDramTestbed();
  MigrationCostModel Model(Config);
  double Previous = 0.0;
  for (uint32_t Threads : {1u, 4u, 16u, 64u}) {
    double Bw = Model.copyBandwidth(TierId::Slow, TierId::Fast, Threads);
    EXPECT_GE(Bw, Previous);
    Previous = Bw;
  }
}

TEST(CostModelMonotonicityTest, KernelTimeGrowsWithSlowMisses) {
  MachineConfig Config = nvmDramTestbed();
  KernelCostModel Model(Config);
  double Previous = 0.0;
  for (uint64_t Misses = 1000; Misses <= 64000000; Misses *= 8) {
    AccessStats Stats;
    Stats.Accesses = Misses;
    Stats.TierMisses[tierIndex(TierId::Slow)] = Misses;
    double T = Model.estimate(Stats).seconds();
    EXPECT_GT(T, Previous);
    Previous = T;
  }
}

TEST(CostModelMonotonicityTest, ShiftingMissesToFastNeverHurts) {
  MachineConfig Config = nvmDramTestbed();
  KernelCostModel Model(Config);
  constexpr uint64_t Total = 10000000;
  double Previous = 1e300;
  for (uint64_t OnFast = 0; OnFast <= Total; OnFast += Total / 10) {
    AccessStats Stats;
    Stats.Accesses = Total;
    Stats.TierMisses[tierIndex(TierId::Fast)] = OnFast;
    Stats.TierMisses[tierIndex(TierId::Slow)] = Total - OnFast;
    double T = Model.estimate(Stats).seconds();
    EXPECT_LE(T, Previous) << "fast share " << OnFast;
    Previous = T;
  }
}

TEST(CostModelMonotonicityTest, HugePtesCheaperThanSmallForSamePayload) {
  MachineConfig Config = mcdramDramTestbed();
  MigrationCostModel Model(Config);
  MigrationWork Small;
  Small.Bytes = 64ull << 20;
  Small.PtesTouched = Small.Bytes / SmallPageBytes;
  MigrationWork Huge = Small;
  Huge.PtesTouched = Small.Bytes / HugePageBytes;
  EXPECT_LT(Model.atmemSeconds(Huge), Model.atmemSeconds(Small));
  EXPECT_LT(Model.mbindSeconds(Huge), Model.mbindSeconds(Small));
}

} // namespace
