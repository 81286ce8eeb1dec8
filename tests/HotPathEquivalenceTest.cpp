//===----------------------------------------------------------------------===//
// Equivalence suite for the hot paths. Every optimized path — arithmetic
// sample selection, indexed attribution, bulk trace append,
// translation-cached TLB replay, split-probe cache/TLB victim scans, and
// the shard drain that strings them together — is pinned bit-for-bit
// against a plain reference implementation (tests/ReferenceDrain.h and
// the in-file reference models). These tests are the contract that lets
// the perf work evolve without moving any observable result.
//===----------------------------------------------------------------------===//

#include "ReferenceDrain.h"
#include "TestTempDir.h"

#include "core/Runtime.h"
#include "mem/DataObjectRegistry.h"
#include "profiler/SamplingProfiler.h"
#include "profiler/TraceFile.h"
#include "sim/CacheSim.h"
#include "sim/Machine.h"
#include "sim/SimdProbe.h"
#include "sim/Tlb.h"
#include "sim/TranslationCache.h"
#include "support/Prng.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

using namespace atmem;

namespace {

/// Machine small enough that random walks over a few MiB mostly miss.
sim::MachineConfig smallCacheTestbed() {
  sim::MachineConfig Config = sim::nvmDramTestbed(1.0 / 64);
  Config.Cache.SizeBytes = 1 << 16;
  Config.Cache.Ways = 4;
  return Config;
}

/// Profiler tuned so a modest miss stream crosses the sample budget
/// several times (mid-batch period doubling is the hard case).
prof::ProfilerConfig fastAdaptConfig() {
  prof::ProfilerConfig Config;
  Config.InitialPeriod = 4;
  Config.MinSampleBudget = 256;
  Config.SamplesPerChunk = 1.0;
  return Config;
}

std::vector<char> readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(In)),
                           std::istreambuf_iterator<char>());
}

std::string tmpTracePath(const char *Tag) {
  return testutil::tempPath("hotpath_" + std::string(Tag) + ".mtrace");
}

/// A synthetic miss stream over two objects plus deliberate strays into
/// the unmapped guard gaps between allocations.
std::vector<uint64_t> makeMissStream(mem::DataObjectRegistry &Reg,
                                     mem::ObjectId A, mem::ObjectId B,
                                     size_t N, uint64_t Seed) {
  Xoshiro256 Rng(Seed);
  const mem::DataObject &ObjA = Reg.object(A);
  const mem::DataObject &ObjB = Reg.object(B);
  std::vector<uint64_t> Stream;
  Stream.reserve(N);
  for (size_t I = 0; I < N; ++I) {
    uint64_t Roll = Rng.nextBounded(100);
    if (Roll < 55)
      Stream.push_back(ObjA.va() + Rng.nextBounded(ObjA.sizeBytes()));
    else if (Roll < 95)
      Stream.push_back(ObjB.va() + Rng.nextBounded(ObjB.sizeBytes()));
    else // Guard-gap stray: attributable to no object.
      Stream.push_back(ObjA.va() + ObjA.mappedBytes() + 64 +
                       Rng.nextBounded(1024));
  }
  return Stream;
}

void expectProfilesEqual(const prof::ObjectProfile &Ref,
                         const prof::ObjectProfile &Got) {
  ASSERT_EQ(Ref.Samples.size(), Got.Samples.size());
  for (size_t C = 0; C < Ref.Samples.size(); ++C) {
    EXPECT_EQ(Ref.Samples[C], Got.Samples[C]) << "chunk " << C;
    // Bit-identical, not approximately equal: commit order preserves the
    // reference drain's floating-point accumulation order.
    EXPECT_EQ(Ref.EstimatedMisses[C], Got.EstimatedMisses[C]) << "chunk " << C;
  }
}

//===----------------------------------------------------------------------===//
// Profiler: batched selection vs the per-miss reference countdown.
//===----------------------------------------------------------------------===//

TEST(HotPathProfilerTest, BatchMatchesPerMissAcrossPeriodDoubling) {
  sim::Machine M(smallCacheTestbed());
  mem::DataObjectRegistry Reg(M);
  mem::ObjectId A =
      Reg.create("a", 2u << 20, mem::InitialPlacement::Slow).id();
  mem::ObjectId B =
      Reg.create("b", 1u << 20, mem::InitialPlacement::Slow).id();

  testref::ReferenceProfiler Ref(Reg, fastAdaptConfig(), 1);
  prof::SamplingProfiler Batched(Reg, fastAdaptConfig());
  Batched.start(1);
  ASSERT_EQ(Ref.period(), 4u);
  ASSERT_EQ(Batched.period(), 4u);

  // Enough misses for several budget crossings: 256 samples at period 4
  // is only 1024 misses, so a 200k stream doubles the period repeatedly,
  // including in the middle of batches.
  std::vector<uint64_t> Stream = makeMissStream(Reg, A, B, 200000, 42);
  for (uint64_t Va : Stream)
    Ref.onMiss(Va);

  // Feed the same stream in randomly sized batches (including size 0 and
  // sizes far larger than the period) so stride arithmetic is exercised
  // across every batch-boundary phase; attribute and commit each batch's
  // samples in order, as the drain does.
  Xoshiro256 Rng(7);
  mem::AttributionHint Hint;
  std::vector<prof::PendingSample> Pending;
  size_t Pos = 0;
  while (Pos < Stream.size()) {
    size_t N = Rng.nextBounded(4096);
    N = std::min(N, Stream.size() - Pos);
    Pending.clear();
    Batched.selectSamples(Stream.data() + Pos, N, Pending);
    for (const prof::PendingSample &S : Pending) {
      mem::Attribution Attr;
      bool Attributed = Reg.attributeIndexed(S.Va, Attr, Hint);
      Batched.commitSample(S, Attributed, Attr);
    }
    Pos += N;
  }

  EXPECT_EQ(Ref.missesSeen(), Batched.missesSeen());
  EXPECT_EQ(Ref.sampleCount(), Batched.sampleCount());
  EXPECT_EQ(Ref.period(), Batched.period());
  EXPECT_GT(Ref.period(), Ref.initialPeriod()) << "test never adapted";
  expectProfilesEqual(Ref.profileFor(A), Batched.profileFor(A));
  expectProfilesEqual(Ref.profileFor(B), Batched.profileFor(B));
}

TEST(HotPathProfilerTest, InlineNotifyMissMatchesReference) {
  sim::Machine M(smallCacheTestbed());
  mem::DataObjectRegistry Reg(M);
  mem::ObjectId A =
      Reg.create("a", 1u << 20, mem::InitialPlacement::Slow).id();
  mem::ObjectId B =
      Reg.create("b", 1u << 20, mem::InitialPlacement::Slow).id();

  testref::ReferenceProfiler Ref(Reg, fastAdaptConfig(), 2);
  prof::SamplingProfiler Inline(Reg, fastAdaptConfig());
  Inline.start(2);

  std::vector<uint64_t> Stream = makeMissStream(Reg, A, B, 50000, 9);
  for (uint64_t Va : Stream) {
    Ref.onMiss(Va);
    Inline.notifyMiss(Va);
  }

  EXPECT_EQ(Ref.missesSeen(), Inline.missesSeen());
  EXPECT_EQ(Ref.sampleCount(), Inline.sampleCount());
  EXPECT_EQ(Ref.period(), Inline.period());
  expectProfilesEqual(Ref.profileFor(A), Inline.profileFor(A));
  expectProfilesEqual(Ref.profileFor(B), Inline.profileFor(B));
}

//===----------------------------------------------------------------------===//
// Registry: indexed attribution vs the linear reference walk.
//===----------------------------------------------------------------------===//

TEST(HotPathAttributionTest, IndexedMatchesLinearIncludingAfterDestroy) {
  sim::Machine M(smallCacheTestbed());
  mem::DataObjectRegistry Reg(M);
  std::vector<mem::ObjectId> Ids;
  for (int I = 0; I < 5; ++I)
    Ids.push_back(Reg.create("obj" + std::to_string(I), (I + 1) * 256 * 1024,
                             mem::InitialPlacement::Slow)
                      .id());

  uint64_t Lo = Reg.object(Ids.front()).va() - 8192;
  uint64_t Hi = Reg.object(Ids.back()).va() +
                Reg.object(Ids.back()).mappedBytes() + 8192;
  auto CheckSweep = [&](uint64_t Seed) {
    Xoshiro256 Rng(Seed);
    mem::AttributionHint Hint;
    for (int I = 0; I < 20000; ++I) {
      uint64_t Va = Lo + Rng.nextBounded(Hi - Lo);
      mem::Attribution Linear, Indexed;
      bool LinearOk = testref::referenceAttribute(Reg, Va, Linear);
      bool IndexedOk = Reg.attributeIndexed(Va, Indexed, Hint);
      ASSERT_EQ(LinearOk, IndexedOk) << "va " << std::hex << Va;
      if (LinearOk) {
        EXPECT_EQ(Linear.Object, Indexed.Object);
        EXPECT_EQ(Linear.Chunk, Indexed.Chunk);
      }
    }
  };

  CheckSweep(1);
  // Destroying a middle object punches a hole in the index; the hole must
  // attribute to nothing and its neighbours must keep resolving.
  Reg.destroy(Ids[2]);
  CheckSweep(2);
  // A stale hint pointing at the rebuilt index must still be safe.
  Reg.destroy(Ids[0]);
  CheckSweep(3);
}

//===----------------------------------------------------------------------===//
// Trace writer: batch append produces byte-identical files.
//===----------------------------------------------------------------------===//

TEST(HotPathTraceTest, RecordBatchBytesIdenticalToPerEvent) {
  Xoshiro256 Rng(13);
  // Cross the writer's 64k-event flush threshold so batching interacts
  // with mid-stream flushes, not just the final one.
  std::vector<uint64_t> Events(100000);
  for (uint64_t &E : Events)
    E = Rng.next();

  std::string RefPath = tmpTracePath("ref");
  std::string BatchPath = tmpTracePath("batch");
  {
    prof::TraceWriter Ref;
    ASSERT_TRUE(Ref.open(RefPath));
    for (uint64_t E : Events)
      Ref.record(E);
    ASSERT_TRUE(Ref.finish());
  }
  {
    prof::TraceWriter Batch;
    ASSERT_TRUE(Batch.open(BatchPath));
    size_t Pos = 0;
    while (Pos < Events.size()) {
      size_t N = std::min<size_t>(Rng.nextBounded(30000), Events.size() - Pos);
      Batch.recordBatch(Events.data() + Pos, N);
      Pos += N;
    }
    ASSERT_TRUE(Batch.finish());
  }

  std::vector<char> RefBytes = readFileBytes(RefPath);
  std::vector<char> BatchBytes = readFileBytes(BatchPath);
  ASSERT_FALSE(RefBytes.empty());
  EXPECT_EQ(RefBytes, BatchBytes);
  std::remove(RefPath.c_str());
  std::remove(BatchPath.c_str());
}

//===----------------------------------------------------------------------===//
// Translation cache: transparent across page-table mutations.
//===----------------------------------------------------------------------===//

TEST(HotPathTranslationCacheTest, TransparentAcrossMutations) {
  sim::Machine M(smallCacheTestbed());
  mem::DataObjectRegistry Reg(M);
  mem::DataObject &Obj =
      Reg.create("graph", 8u << 20, mem::InitialPlacement::Slow);
  sim::PageTable &PT = M.pageTable();
  sim::TranslationCache Cache(PT);

  auto CheckSweep = [&](uint64_t Seed) {
    Xoshiro256 Rng(Seed);
    for (int I = 0; I < 5000; ++I) {
      // Revisit a small set of pages so the cache actually serves hits,
      // plus strays past the mapping for negative lookups.
      uint64_t Va = Obj.va() + Rng.nextBounded(Obj.mappedBytes() + 16384);
      sim::Translation Cached, Direct;
      bool CachedOk = Cache.translate(Va, Cached);
      bool DirectOk = PT.translate(Va, Direct);
      ASSERT_EQ(CachedOk, DirectOk) << "va " << std::hex << Va;
      if (CachedOk) {
        EXPECT_EQ(Cached.PageVa, Direct.PageVa);
        EXPECT_EQ(Cached.PageBytes, Direct.PageBytes);
        EXPECT_EQ(Cached.FrameBase, Direct.FrameBase);
        EXPECT_EQ(Cached.Tier, Direct.Tier);
      }
    }
  };

  CheckSweep(1);
  EXPECT_GT(Cache.hits(), 0u);

  // mbind-style single-page moves (these split huge pages) interleaved
  // with full-range ATMem remaps; every mutation bumps the epoch and the
  // next cached lookup must reflect the new table.
  Xoshiro256 Rng(99);
  for (int Round = 0; Round < 4; ++Round) {
    for (int I = 0; I < 8; ++I) {
      uint64_t PageVa =
          Obj.va() + (Rng.nextBounded(Obj.mappedBytes()) & ~uint64_t{4095});
      PT.movePage(PageVa, Round % 2 ? sim::TierId::Slow : sim::TierId::Fast);
    }
    CheckSweep(100 + Round);
    ASSERT_TRUE(PT.remapRange(Obj.va(), Obj.mappedBytes(),
                              Round % 2 ? sim::TierId::Fast : sim::TierId::Slow,
                              /*PreferHuge=*/true));
    CheckSweep(200 + Round);
  }
}

//===----------------------------------------------------------------------===//
// CacheSim's recency-ordered rows and the TLB's split probe/victim scans
// vs the fused stamp-LRU reference loops.
//===----------------------------------------------------------------------===//

/// The historical fused stamp-LRU loop of the LLC model, kept as an
/// executable specification: walk the set once, noting a hit or
/// accumulating the victim (invalid way preferred — last invalid wins via
/// VictimStamp 0 — else strictly minimal stamp, first occurrence).
class ReferenceLru {
public:
  ReferenceLru(const sim::CacheConfig &Config)
      : LineBytes(Config.LineBytes), Ways(Config.Ways),
        Sets(std::max<uint32_t>(
            1, static_cast<uint32_t>(Config.SizeBytes /
                                     (uint64_t{Config.Ways} *
                                      Config.LineBytes)))),
        Tags(uint64_t{Sets} * Ways, ~0ull),
        Stamps(uint64_t{Sets} * Ways, 0), Valid(uint64_t{Sets} * Ways, 0) {}

  bool access(uint64_t Va) {
    uint64_t Line = Va / LineBytes;
    uint64_t Base = uint64_t{static_cast<uint32_t>(Line % Sets)} * Ways;
    ++Clock;
    uint32_t VictimIdx = 0;
    uint64_t VictimStamp = ~0ull;
    for (uint32_t W = 0; W < Ways; ++W) {
      uint64_t I = Base + W;
      if (Valid[I] && Tags[I] == Line) {
        Stamps[I] = Clock;
        return true;
      }
      if (!Valid[I]) {
        VictimIdx = W;
        VictimStamp = 0;
      } else if (Stamps[I] < VictimStamp) {
        VictimIdx = W;
        VictimStamp = Stamps[I];
      }
    }
    uint64_t I = Base + VictimIdx;
    Tags[I] = Line;
    Stamps[I] = Clock;
    Valid[I] = 1;
    return false;
  }

private:
  uint32_t LineBytes, Ways, Sets;
  uint64_t Clock = 0;
  std::vector<uint64_t> Tags, Stamps;
  std::vector<uint8_t> Valid;
};

TEST(HotPathCacheSimTest, SplitProbeMatchesFusedReference) {
  // 64 sets x {4, 16} ways: heavy conflict traffic, at 4 ways and at the
  // shipped LLC associativity (16).
  for (uint32_t Ways : {4u, 16u}) {
    sim::CacheConfig Config;
    Config.SizeBytes = 64 * Ways * 64;
    Config.Ways = Ways;
    Config.LineBytes = 64;
    sim::CacheSim Cache(Config);
    ReferenceLru Ref(Config);

    Xoshiro256 Rng(5);
    uint64_t Hits = 0;
    for (int I = 0; I < 200000; ++I) {
      // Mix of a hot window (hits + LRU churn) and cold strides (victim
      // selection among invalid and valid ways).
      uint64_t Va = Rng.nextBounded(2) ? Rng.nextBounded(Ways << 13)
                                       : Rng.nextBounded(1ull << 26);
      bool Hit = Cache.access(Va);
      ASSERT_EQ(Ref.access(Va), Hit) << Ways << " ways, access " << I;
      Hits += Hit;
    }
    EXPECT_GT(Hits, 0u) << Ways << " ways";
    EXPECT_LT(Hits, 200000u) << Ways << " ways";
  }
}

/// The historical fused stamp-LRU TLB set walk: hit updates the stamp;
/// otherwise the victim is the last invalid way, else the lowest-stamp
/// valid way (stamps compared only while the victim is still valid).
/// flushPage() invalidates the matching way in place, leaving a hole.
class ReferenceTlbArray {
public:
  ReferenceTlbArray(uint32_t Entries, uint32_t Ways, uint64_t PageBytes)
      : Ways(Ways), Sets(std::max<uint32_t>(1, Entries / Ways)),
        PageBytes(PageBytes), Slots(uint64_t{Sets} * Ways) {}

  bool access(uint64_t Va) {
    uint64_t Vpn = Va / PageBytes;
    uint64_t Base = uint64_t{static_cast<uint32_t>(Vpn % Sets)} * Ways;
    ++Clock;
    Way *Victim = &Slots[Base];
    for (uint32_t W = 0; W < Ways; ++W) {
      Way &Entry = Slots[Base + W];
      if (Entry.Valid && Entry.Vpn == Vpn) {
        Entry.Stamp = Clock;
        return true;
      }
      if (!Entry.Valid)
        Victim = &Entry;
      else if (Victim->Valid && Entry.Stamp < Victim->Stamp)
        Victim = &Entry;
    }
    Victim->Vpn = Vpn;
    Victim->Stamp = Clock;
    Victim->Valid = true;
    return false;
  }

  void flushPage(uint64_t Va) {
    uint64_t Vpn = Va / PageBytes;
    uint64_t Base = uint64_t{static_cast<uint32_t>(Vpn % Sets)} * Ways;
    for (uint32_t W = 0; W < Ways; ++W)
      if (Slots[Base + W].Valid && Slots[Base + W].Vpn == Vpn)
        Slots[Base + W].Valid = false;
  }

private:
  struct Way {
    uint64_t Vpn = ~0ull;
    uint64_t Stamp = 0;
    bool Valid = false;
  };
  uint32_t Ways, Sets;
  uint64_t PageBytes;
  uint64_t Clock = 0;
  std::vector<Way> Slots;
};

TEST(HotPathTlbTest, SplitProbeMatchesFusedReference) {
  sim::TlbConfig Config; // 64x4 small, 32x4 huge: the default geometry.
  sim::Tlb Tlb(Config);
  ReferenceTlbArray RefSmall(Config.SmallEntries, Config.SmallWays, 4096);
  ReferenceTlbArray RefHuge(Config.HugeEntries, Config.HugeWays, 2u << 20);

  Xoshiro256 Rng(17);
  for (int I = 0; I < 200000; ++I) {
    bool Huge = Rng.nextBounded(4) == 0;
    uint64_t Va = Rng.nextBounded(2) ? Rng.nextBounded(1u << 20)
                                     : Rng.nextBounded(1ull << 32);
    if (Rng.nextBounded(16) == 0) {
      // Shootdowns punch invalid holes into a set (or miss it); the next
      // miss must refill the hole before evicting a valid way.
      (Huge ? RefHuge : RefSmall).flushPage(Va);
      Tlb.flushPage(Va, Huge ? 2u << 20 : 4096);
      continue;
    }
    bool RefHit = Huge ? RefHuge.access(Va) : RefSmall.access(Va);
    ASSERT_EQ(RefHit, Tlb.access(Va, Huge ? 2u << 20 : 4096)) << "access " << I;
  }
  EXPECT_GT(Tlb.hits(), 0u);
  EXPECT_GT(Tlb.misses(), 0u);
}

//===----------------------------------------------------------------------===//
// SimContext: recycled miss buffers keep their high-water capacity.
//===----------------------------------------------------------------------===//

TEST(HotPathContextTest, MissBufferRecycleKeepsHighWaterCapacity) {
  sim::CacheConfig Shard;
  Shard.SizeBytes = 1 << 12;
  Shard.Ways = 4;
  core::SimContext Ctx(Shard);
  Ctx.setBufferMisses(true);

  Ctx.beginIteration();
  for (uint64_t I = 0; I < 10000; ++I)
    Ctx.missBuffer().push_back(I);
  Ctx.recycleMissBuffer();
  EXPECT_TRUE(Ctx.missBuffer().empty());

  Ctx.beginIteration();
  EXPECT_GE(Ctx.missBuffer().capacity(), 10000u)
      << "beginIteration must pre-reserve the previous drain volume";
}

//===----------------------------------------------------------------------===//
// End to end: the runtime's shard drain vs the reference drain on the same
// buffered miss stream.
//===----------------------------------------------------------------------===//

/// Config for a SimThreads=2 runtime whose shards miss heavily and whose
/// profiler doubles its period inside the profiled iterations.
core::RuntimeConfig drainTestConfig() {
  core::RuntimeConfig Config;
  Config.Machine = smallCacheTestbed();
  Config.Profiler = fastAdaptConfig();
  Config.SimThreads = 2;
  return Config;
}

/// A profiler that samples like \p Rt's freshly armed one.
testref::ReferenceProfiler referenceProfilerFor(core::Runtime &Rt) {
  return testref::ReferenceProfiler(Rt.registry(), Rt.config().Profiler,
                                    Rt.config().Machine.Exec.Threads);
}

/// SimThreads>1 miss streams are not run-to-run deterministic (dynamic
/// chunk scheduling), so the kernel runs once and the reference drain
/// consumes the shard buffers the runtime is about to drain, in thread
/// order, before endIteration() drains them.
TEST(HotPathDrainTest, BatchedDrainMatchesReferenceDrain) {
  core::Runtime Rt(drainTestConfig());
  core::TrackedArray<uint64_t> Arr = Rt.allocate<uint64_t>("x", 1u << 19);
  core::TrackedArray<uint32_t> Aux = Rt.allocate<uint32_t>("y", 1u << 18);

  sim::Tlb Tlb = Rt.machine().makeTlb();
  sim::Tlb RefTlb = Rt.machine().makeTlb();
  Rt.setReplayTlb(&Tlb);

  std::string Path = tmpTracePath("drain");
  std::string RefPath = tmpTracePath("drain_ref");
  prof::TraceWriter Trace, RefTrace;
  ASSERT_TRUE(Trace.open(Path));
  ASSERT_TRUE(RefTrace.open(RefPath));
  Rt.setMissTrace(&Trace);

  Rt.profilingStart();
  testref::ReferenceProfiler RefProf = referenceProfilerFor(Rt);
  testref::ReferenceDrain Ref{&RefProf, &RefTrace, &RefTlb,
                              &Rt.machine().pageTable()};

  for (int Iter = 0; Iter < 3; ++Iter) {
    Rt.beginIteration();

    // Pseudo-random gather over both arrays; enough misses per iteration
    // (~hundreds of thousands) to push sample counts past the budget.
    Rt.parallelTracked(0, 1u << 18, [&](uint32_t, uint64_t B, uint64_t E) {
      uint64_t State = 0x9e3779b97f4a7c15ull + Iter;
      for (uint64_t I = B; I < E; ++I) {
        State = State * 6364136223846793005ull + 1442695040888963407ull;
        uint64_t V = Arr[(State >> 11) & ((1u << 19) - 1)];
        // Odd-multiplier index: a bijection of I over the 2^18 range, so
        // the scattered writes stay race-free across pool workers while
        // still walking Aux pseudo-randomly; V feeds the value so the
        // gather load cannot be optimized away.
        Aux[(I * 6364136223846793005ull) & ((1u << 18) - 1)] =
            static_cast<uint32_t>(V ^ I);
      }
    });

    sim::AccessStats Merged;
    for (uint32_t T = 0; T < Rt.simThreads(); ++T) {
      ASSERT_FALSE(Rt.simContext(T).missBuffer().empty());
      Ref.drain(Rt.simContext(T).missBuffer());
      Merged += Rt.simContext(T).stats();
    }
    Rt.endIteration();

    const sim::AccessStats &Got = Rt.iterationStats();
    EXPECT_EQ(Merged.Accesses, Got.Accesses);
    EXPECT_EQ(Merged.LlcHits, Got.LlcHits);
    EXPECT_EQ(Merged.TierMisses[0], Got.TierMisses[0]);
    EXPECT_EQ(Merged.TierMisses[1], Got.TierMisses[1]);
    EXPECT_EQ(RefTlb.hits(), Tlb.hits()) << "iteration " << Iter;
    EXPECT_EQ(RefTlb.misses(), Tlb.misses()) << "iteration " << Iter;
  }

  Rt.profilingStop();

  prof::SamplingProfiler &P = Rt.profiler();
  EXPECT_EQ(RefProf.missesSeen(), P.missesSeen());
  EXPECT_GT(P.missesSeen(), 0u);
  EXPECT_EQ(RefProf.sampleCount(), P.sampleCount());
  EXPECT_EQ(RefProf.period(), P.period());
  EXPECT_GT(P.period(), P.initialPeriod())
      << "workload never crossed the sample budget";
  expectProfilesEqual(RefProf.profileFor(Arr.objectId()),
                      P.profileFor(Arr.objectId()));
  expectProfilesEqual(RefProf.profileFor(Aux.objectId()),
                      P.profileFor(Aux.objectId()));

  ASSERT_TRUE(Trace.finish());
  ASSERT_TRUE(RefTrace.finish());
  std::vector<char> Bytes = readFileBytes(Path);
  std::vector<char> RefBytes = readFileBytes(RefPath);
  ASSERT_FALSE(RefBytes.empty());
  EXPECT_EQ(RefBytes, Bytes) << "miss-trace bytes diverged";
  std::remove(Path.c_str());
  std::remove(RefPath.c_str());
}

/// The cached TLB replay against the uncached reference when the page
/// table mutates between drains (the epoch-invalidation path end to end).
TEST(HotPathDrainTest, CachedTlbReplayTracksPageTableMutations) {
  core::Runtime Rt(drainTestConfig());
  core::TrackedArray<uint64_t> Arr = Rt.allocate<uint64_t>("x", 1u << 19);

  sim::Tlb Tlb = Rt.machine().makeTlb();
  sim::Tlb RefTlb = Rt.machine().makeTlb();
  Rt.setReplayTlb(&Tlb);
  testref::ReferenceDrain Ref;
  Ref.Tlb = &RefTlb;
  Ref.PT = &Rt.machine().pageTable();

  for (int Iter = 0; Iter < 3; ++Iter) {
    Rt.beginIteration();
    Rt.parallelTracked(0, 1u << 17, [&](uint32_t, uint64_t B, uint64_t E) {
      // Every chunk seeds the same LCG, so two chunks hit the same index
      // sequence: reads only, to keep cross-worker accesses race-free
      // (the misses driving the replay don't care about stores).
      uint64_t State = 0xdeadbeef + Iter;
      uint64_t Sink = 0;
      for (uint64_t I = B; I < E; ++I) {
        State = State * 6364136223846793005ull + 1442695040888963407ull;
        Sink ^= Arr[(State >> 13) & ((1u << 19) - 1)];
      }
      if (Sink == 0x5ca1ab1e)
        std::fprintf(stderr, "sink\n");
    });
    for (uint32_t T = 0; T < Rt.simThreads(); ++T)
      Ref.drain(Rt.simContext(T).missBuffer());
    Rt.endIteration();
    ASSERT_EQ(RefTlb.hits(), Tlb.hits()) << "iteration " << Iter;
    ASSERT_EQ(RefTlb.misses(), Tlb.misses()) << "iteration " << Iter;

    // Mutate the page table between iterations: the cached replay must
    // observe the new mappings, not yesterday's.
    uint64_t Quarter = (Rt.registry().object(Arr.objectId()).mappedBytes() /
                        4) & ~uint64_t{2097151};
    if (Quarter != 0) {
      sim::TierId To = Iter % 2 ? sim::TierId::Slow : sim::TierId::Fast;
      ASSERT_TRUE(Rt.machine().pageTable().remapRange(Arr.va(), Quarter, To,
                                                      /*PreferHuge=*/true));
    }
  }
}

//===----------------------------------------------------------------------===//
// SIMD probe and huge-page translation primitives: the vectorized 4-way
// tag compare and the replay loop's one-load huge-map probe, each pinned
// against the scalar semantics it shortcuts.
//===----------------------------------------------------------------------===//

TEST(HotPathSimdProbeTest, ProbeWay4MatchesScalarFirstMatchScan) {
  // Half-match adversaries for the SSE2 32-bit emulation: lanes agreeing
  // in exactly one 32-bit half must not report equality.
  const uint64_t Lo = 0x00000001'00000002ull;
  {
    uint64_t Row[4] = {Lo, 0x00000009'00000002ull, 0x00000001'00000003ull,
                       ~0ull};
    EXPECT_EQ(sim::probeWay4(Row, Lo), 0);
    EXPECT_EQ(sim::probeWay4(Row, 0x00000009'00000003ull), -1);
  }
  // Duplicate keys: the contract is the LOWEST matching way, same as a
  // first-match scalar scan.
  {
    uint64_t Row[4] = {7, 9, 9, 9};
    EXPECT_EQ(sim::probeWay4(Row, 9), 1);
  }

  Xoshiro256 Rng(23);
  for (int I = 0; I < 200000; ++I) {
    uint64_t Row[4];
    // A small key universe forces frequent matches in every way position
    // (and occasional duplicates); ~0 mimics invalid-slot sentinels.
    for (uint64_t &Slot : Row)
      Slot = Rng.nextBounded(8) == 0 ? ~0ull : Rng.nextBounded(12);
    uint64_t Key = Rng.nextBounded(16) == 0 ? ~0ull : Rng.nextBounded(12);
    int Ref = -1;
    for (int W = 0; W < 4 && Ref < 0; ++W)
      if (Row[W] == Key)
        Ref = W;
    ASSERT_EQ(sim::probeWay4(Row, Key), Ref)
        << Row[0] << "," << Row[1] << "," << Row[2] << "," << Row[3]
        << " key " << Key;
  }
}

TEST(HotPathTlbTest, DirectArrayAccessVpnMatchesDispatchedAccess) {
  // The batched drain resolves the page size once per translation run and
  // feeds the run's misses straight to the owning array via accessVpn();
  // verdicts and counters must be exactly those of the dispatched
  // per-access path.
  sim::TlbConfig Config;
  sim::Tlb Dispatched(Config);
  sim::Tlb Direct(Config);

  Xoshiro256 Rng(31);
  for (int I = 0; I < 200000; ++I) {
    bool Huge = Rng.nextBounded(4) == 0;
    uint64_t PageBytes = Huge ? 2u << 20 : 4096;
    uint64_t Va = Rng.nextBounded(2) ? Rng.nextBounded(1u << 20)
                                     : Rng.nextBounded(1ull << 32);
    bool RefHit = Dispatched.access(Va, PageBytes);
    bool GotHit = Huge ? Direct.hugeArray().accessVpn(Va >> 21)
                       : Direct.smallArray().accessVpn(Va >> 12);
    ASSERT_EQ(RefHit, GotHit) << "access " << I;
  }
  EXPECT_EQ(Dispatched.hits(), Direct.hits());
  EXPECT_EQ(Dispatched.misses(), Direct.misses());
  EXPECT_GT(Direct.hits(), 0u);
  EXPECT_GT(Direct.misses(), 0u);
}

TEST(HotPathTranslationCacheTest, IsCachedHugeAgreesWithPageTable) {
  sim::Machine M(smallCacheTestbed());
  mem::DataObjectRegistry Reg(M);
  mem::DataObject &Obj =
      Reg.create("graph", 8u << 20, mem::InitialPlacement::Slow);
  sim::PageTable &PT = M.pageTable();
  sim::TranslationCache Cache(PT);

  // Warm-then-probe sweep: after translate(Va) filled the slot for a
  // live mapping, isCachedHuge must say "huge" exactly when the page
  // table maps the address with a 2 MiB page.
  auto CheckSweep = [&](uint64_t Seed) {
    Xoshiro256 Rng(Seed);
    for (int I = 0; I < 3000; ++I) {
      uint64_t Va = Obj.va() + Rng.nextBounded(Obj.mappedBytes());
      sim::Translation Direct;
      ASSERT_TRUE(PT.translate(Va, Direct));
      sim::Translation Cached;
      ASSERT_TRUE(Cache.translate(Va, Cached));
      EXPECT_EQ(Cache.isCachedHuge(Va >> 21), Direct.PageBytes == (2u << 20))
          << "va " << std::hex << Va;
    }
  };

  CheckSweep(3);
  // Split pages out of the huge mapping (mbind-style single-page moves),
  // then rebuild huge pages with a full-range remap; every mutation bumps
  // the epoch, and translate()'s revalidation must keep the one-load
  // probe truthful — a stale huge tag after a split would misroute the
  // whole 512-page region in the replay loop.
  Xoshiro256 Rng(77);
  for (int Round = 0; Round < 3; ++Round) {
    for (int I = 0; I < 8; ++I) {
      uint64_t PageVa =
          Obj.va() + (Rng.nextBounded(Obj.mappedBytes()) & ~uint64_t{4095});
      PT.movePage(PageVa, Round % 2 ? sim::TierId::Fast : sim::TierId::Slow);
    }
    Cache.revalidate();
    CheckSweep(100 + Round);
    ASSERT_TRUE(PT.remapRange(Obj.va(), Obj.mappedBytes(),
                              Round % 2 ? sim::TierId::Slow : sim::TierId::Fast,
                              /*PreferHuge=*/true));
    Cache.revalidate();
    CheckSweep(200 + Round);
  }
}

//===----------------------------------------------------------------------===//
// Shard-drain matrix: the runtime vs the reference drain across shard
// counts and every combination of attached miss consumers, on randomized
// miss streams that cross period doublings, with mbind-style page splits
// between drains.
//===----------------------------------------------------------------------===//

/// Which miss consumers a matrix case attaches.
struct DrainConsumers {
  bool Profiler = false;
  bool Trace = false;
  bool Tlb = false;
};

void runShardedDrainCase(uint32_t SimThreads, DrainConsumers On) {
  std::string Tag = "t" + std::to_string(SimThreads) +
                    (On.Profiler ? "_prof" : "") + (On.Trace ? "_trace" : "") +
                    (On.Tlb ? "_tlb" : "");
  SCOPED_TRACE(Tag);
  core::RuntimeConfig Config;
  Config.Machine = smallCacheTestbed();
  Config.Profiler = fastAdaptConfig();
  Config.SimThreads = SimThreads;
  core::Runtime Rt(Config);
  core::TrackedArray<uint64_t> Arr = Rt.allocate<uint64_t>("x", 1u << 18);
  core::TrackedArray<uint32_t> Aux = Rt.allocate<uint32_t>("y", 1u << 17);
  sim::PageTable &PT = Rt.machine().pageTable();

  testref::ReferenceDrain Ref;
  sim::Tlb Tlb = Rt.machine().makeTlb();
  sim::Tlb RefTlb = Rt.machine().makeTlb();
  if (On.Tlb) {
    Rt.setReplayTlb(&Tlb);
    Ref.Tlb = &RefTlb;
    Ref.PT = &PT;
  }
  std::string Path = tmpTracePath(("shard_" + Tag).c_str());
  std::string RefPath = tmpTracePath(("shard_ref_" + Tag).c_str());
  prof::TraceWriter Trace, RefTrace;
  if (On.Trace) {
    ASSERT_TRUE(Trace.open(Path));
    ASSERT_TRUE(RefTrace.open(RefPath));
    Rt.setMissTrace(&Trace);
    Ref.Trace = &RefTrace;
  }
  std::optional<testref::ReferenceProfiler> RefProf;
  if (On.Profiler) {
    Rt.profilingStart();
    RefProf.emplace(referenceProfilerFor(Rt));
    Ref.Profiler = &*RefProf;
  }

  // The serial engine has no shard buffers — misses reach the consumers
  // inline — so the reference replays the same gather through its own
  // copy of the LLC model to find the misses.
  sim::CacheSim RefLlc(Config.Machine.Cache);
  Xoshiro256 Rng(1000 + SimThreads);
  uint64_t Splits = 0;
  for (int Iter = 0; Iter < 3; ++Iter) {
    Rt.beginIteration();
    sim::AccessStats Expected;
    if (SimThreads == 1) {
      for (int I = 0; I < 60000; ++I) {
        uint64_t Idx = Rng.nextBounded(1u << 18);
        volatile uint64_t Sink = Arr[Idx];
        (void)Sink;
        uint64_t Va = Arr.va() + Idx * sizeof(uint64_t);
        ++Expected.Accesses;
        if (RefLlc.access(Va))
          ++Expected.LlcHits;
        else
          Ref.onMiss(Va);
      }
    } else {
      for (uint32_t T = 0; T < SimThreads; ++T) {
        // Random per-shard stats: the drain must merge them all.
        sim::AccessStats &Shard = Rt.simContext(T).stats();
        Shard.Accesses = 100000 + Rng.nextBounded(100000);
        Shard.LlcHits = Rng.nextBounded(50000);
        Shard.TierMisses[0] = Rng.nextBounded(25000);
        Shard.TierMisses[1] = Rng.nextBounded(25000);
        Expected += Shard;
        std::vector<uint64_t> Stream =
            makeMissStream(Rt.registry(), Arr.objectId(), Aux.objectId(),
                           2000 + Rng.nextBounded(20000), Rng.next());
        Ref.drain(Stream);
        Rt.simContext(T).missBuffer() = std::move(Stream);
      }
    }
    Rt.endIteration();

    const sim::AccessStats &Got = Rt.iterationStats();
    EXPECT_EQ(Expected.Accesses, Got.Accesses) << "iteration " << Iter;
    EXPECT_EQ(Expected.LlcHits, Got.LlcHits) << "iteration " << Iter;
    if (SimThreads > 1) {
      EXPECT_EQ(Expected.TierMisses[0], Got.TierMisses[0]);
      EXPECT_EQ(Expected.TierMisses[1], Got.TierMisses[1]);
    }
    ASSERT_EQ(RefTlb.hits(), Tlb.hits()) << "iteration " << Iter;
    ASSERT_EQ(RefTlb.misses(), Tlb.misses()) << "iteration " << Iter;

    // mbind-style single-page moves between drains split huge pages; the
    // next drain's cached replay must see the fragmented mapping.
    for (int I = 0; I < 4; ++I) {
      uint64_t PageVa = Arr.va() + (Rng.nextBounded(1u << 21) & ~uint64_t{4095});
      bool Split = false;
      ASSERT_TRUE(PT.movePage(
          PageVa, Iter % 2 ? sim::TierId::Slow : sim::TierId::Fast, &Split));
      Splits += Split;
    }
  }
  EXPECT_GT(Splits, 0u) << "no page move split a huge page";

  if (On.Profiler) {
    Rt.profilingStop();
    prof::SamplingProfiler &P = Rt.profiler();
    EXPECT_EQ(RefProf->missesSeen(), P.missesSeen());
    EXPECT_GT(P.missesSeen(), 0u);
    EXPECT_EQ(RefProf->sampleCount(), P.sampleCount());
    EXPECT_EQ(RefProf->period(), P.period());
    EXPECT_GT(P.period(), P.initialPeriod())
        << "stream never crossed the sample budget";
    expectProfilesEqual(RefProf->profileFor(Arr.objectId()),
                        P.profileFor(Arr.objectId()));
    expectProfilesEqual(RefProf->profileFor(Aux.objectId()),
                        P.profileFor(Aux.objectId()));
  }
  if (On.Trace) {
    ASSERT_TRUE(Trace.finish());
    ASSERT_TRUE(RefTrace.finish());
    std::vector<char> Bytes = readFileBytes(Path);
    std::vector<char> RefBytes = readFileBytes(RefPath);
    ASSERT_FALSE(RefBytes.empty());
    EXPECT_EQ(RefBytes, Bytes) << "miss-trace bytes diverged";
    std::remove(Path.c_str());
    std::remove(RefPath.c_str());
  }
}

TEST(HotPathShardedDrainTest, MatrixMatchesReferenceDrain) {
  for (uint32_t SimThreads : {1u, 2u, 4u, 8u})
    for (uint32_t Mask = 0; Mask < 8; ++Mask)
      runShardedDrainCase(SimThreads, {(Mask & 1) != 0, (Mask & 2) != 0,
                                       (Mask & 4) != 0});
}

} // namespace
