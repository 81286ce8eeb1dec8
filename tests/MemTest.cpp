//===----------------------------------------------------------------------===//
// Unit tests for the mem layer: address space, adaptive chunks, data
// objects, and the registry.
//===----------------------------------------------------------------------===//

#include "mem/AddressSpace.h"
#include "mem/DataObjectRegistry.h"
#include "sim/Machine.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

using namespace atmem;
using namespace atmem::mem;
using namespace atmem::sim;

namespace {

TEST(AddressSpaceTest, RegionsAre2MiBAligned) {
  AddressSpace Space;
  for (uint64_t Size : {1ull, 4096ull, 1000000ull, (8ull << 20) + 5}) {
    uint64_t Va = Space.reserve(Size);
    EXPECT_EQ(Va % HugePageBytes, 0u) << "size " << Size;
  }
}

TEST(AddressSpaceTest, RegionsAreDisjoint) {
  AddressSpace Space;
  uint64_t A = Space.reserve(10 << 20);
  uint64_t B = Space.reserve(4096);
  EXPECT_GE(B, A + (10ull << 20));
}

TEST(AddressSpaceTest, ReservedBytesTracksPageRoundedSizes) {
  AddressSpace Space;
  Space.reserve(1);      // Rounds to 4 KiB.
  Space.reserve(8192);   // Exactly two pages.
  EXPECT_EQ(Space.reservedBytes(), 4096u + 8192u);
}

TEST(AdaptiveChunkTest, SmallObjectSingleMinimumChunk) {
  EXPECT_EQ(adaptiveChunkBytes(100), SmallPageBytes);
  EXPECT_EQ(adaptiveChunkBytes(0), SmallPageBytes);
}

TEST(AdaptiveChunkTest, LargeObjectScalesChunks) {
  // 1 GiB / 1024 target = 1 MiB chunks.
  EXPECT_EQ(adaptiveChunkBytes(1ull << 30), 1ull << 20);
}

TEST(AdaptiveChunkTest, PowerOfTwoAndClamped) {
  for (uint64_t Size :
       {1ull << 12, 3ull << 16, 999999ull, 1ull << 34, 1ull << 40}) {
    uint64_t Chunk = adaptiveChunkBytes(Size);
    EXPECT_EQ(Chunk & (Chunk - 1), 0u) << Size;
    EXPECT_GE(Chunk, SmallPageBytes);
    EXPECT_LE(Chunk, 64ull << 20);
  }
}

TEST(AdaptiveChunkTest, TargetChunksParameter) {
  EXPECT_GT(adaptiveChunkBytes(1ull << 30, 64),
            adaptiveChunkBytes(1ull << 30, 4096));
}

TEST(DataObjectTest, ChunkGeometry) {
  DataObject Obj(0, "x", 0x1000000, 100000, 4096);
  EXPECT_EQ(Obj.mappedBytes(), 102400u); // 25 pages.
  EXPECT_EQ(Obj.numChunks(), 25u);
  EXPECT_EQ(Obj.chunkOf(0), 0u);
  EXPECT_EQ(Obj.chunkOf(4095), 0u);
  EXPECT_EQ(Obj.chunkOf(4096), 1u);
}

TEST(DataObjectTest, PartialLastChunkRange) {
  DataObject Obj(0, "x", 0x1000000, 3 * 4096 + 1, 8192);
  // Mapped = 4 pages = 16384; chunks of 8 KiB -> 2 chunks.
  EXPECT_EQ(Obj.numChunks(), 2u);
  auto [Begin, End] = Obj.rangeBytes({1, 1});
  EXPECT_EQ(Begin, 8192u);
  EXPECT_EQ(End, 16384u);
}

TEST(DataObjectTest, TierBookkeeping) {
  DataObject Obj(0, "x", 0x1000000, 16384, 4096);
  EXPECT_EQ(Obj.bytesOn(sim::TierId::Slow), 16384u);
  Obj.setChunkTier(1, sim::TierId::Fast);
  EXPECT_EQ(Obj.bytesOn(sim::TierId::Fast), 4096u);
  Obj.setAllChunkTiers(sim::TierId::Fast);
  EXPECT_EQ(Obj.bytesOn(sim::TierId::Fast), 16384u);
}

TEST(DataObjectTest, HostBufferZeroInitialized) {
  // Dirty and free a block of each object's mapped size first, so the
  // allocator may hand the same dirty memory back: every byte of the new
  // object must still read zero (one page, a partial last page, several
  // pages, and a buffer past the allocator's mmap threshold).
  for (uint64_t Size : {4096ull, 3 * 4096ull + 1, 64 * 4096ull, 8ull << 20}) {
    uint64_t Mapped = (Size + 4095) / 4096 * 4096;
    {
      std::unique_ptr<std::byte[]> Dirty(new std::byte[Mapped]);
      std::memset(Dirty.get(), 0xA5, Mapped);
      // Keep the compiler from eliding the stores to a buffer it frees.
      asm volatile("" : : "r"(Dirty.get()) : "memory");
    }
    DataObject Obj(0, "x", 0x1000000, Size, 4096);
    ASSERT_EQ(Obj.mappedBytes(), Mapped);
    for (uint64_t I = 0; I < Mapped; ++I)
      ASSERT_EQ(Obj.data()[I], std::byte{0})
          << "size " << Size << " byte " << I;
  }
}

class RegistryTest : public ::testing::Test {
protected:
  RegistryTest() : M(nvmDramTestbed(1.0 / 1024)), Registry(M) {}
  Machine M;
  DataObjectRegistry Registry;
};

TEST_F(RegistryTest, CreateMapsOnSlowByDefaultPolicy) {
  DataObject &Obj =
      Registry.create("a", 1 << 20, InitialPlacement::Slow);
  EXPECT_EQ(Obj.bytesOn(TierId::Slow), Obj.mappedBytes());
  EXPECT_EQ(M.pageTable().tierOf(Obj.va()), TierId::Slow);
}

TEST_F(RegistryTest, CreateFastPlacement) {
  DataObject &Obj = Registry.create("a", 1 << 20, InitialPlacement::Fast);
  EXPECT_EQ(M.pageTable().tierOf(Obj.va()), TierId::Fast);
  EXPECT_EQ(Obj.bytesOn(TierId::Fast), Obj.mappedBytes());
}

TEST_F(RegistryTest, PreferredPlacementOverflows) {
  uint64_t FastCap = M.allocator(TierId::Fast).capacityBytes();
  DataObject &Obj = Registry.create("big", FastCap * 2,
                                    InitialPlacement::PreferredFast);
  EXPECT_GT(Obj.bytesOn(TierId::Fast), 0u);
  EXPECT_GT(Obj.bytesOn(TierId::Slow), 0u);
}

TEST_F(RegistryTest, AttributeResolvesObjectAndChunk) {
  DataObject &A = Registry.create("a", 1 << 20, InitialPlacement::Slow);
  DataObject &B = Registry.create("b", 1 << 20, InitialPlacement::Slow);
  Attribution Attr;
  AttributionHint Hint;
  ASSERT_TRUE(Registry.attributeIndexed(A.va() + 5000, Attr, Hint));
  EXPECT_EQ(Attr.Object, A.id());
  EXPECT_EQ(Attr.Chunk, A.chunkOf(5000));
  ASSERT_TRUE(Registry.attributeIndexed(B.va(), Attr, Hint));
  EXPECT_EQ(Attr.Object, B.id());
}

TEST_F(RegistryTest, AttributeRejectsForeignAddresses) {
  Registry.create("a", 1 << 20, InitialPlacement::Slow);
  Attribution Attr;
  AttributionHint Hint;
  EXPECT_FALSE(Registry.attributeIndexed(0x10, Attr, Hint));
}

TEST_F(RegistryTest, DestroyUnmapsAndForgets) {
  DataObject &Obj = Registry.create("a", 1 << 20, InitialPlacement::Slow);
  uint64_t Va = Obj.va();
  ObjectId Id = Obj.id();
  Attribution Attr;
  // A hint warmed on the live object must not resolve it after destroy.
  AttributionHint Hint;
  ASSERT_TRUE(Registry.attributeIndexed(Va, Attr, Hint));
  Registry.destroy(Id);
  EXPECT_FALSE(Registry.attributeIndexed(Va, Attr, Hint));
  EXPECT_EQ(Registry.liveObjects().size(), 0u);
  EXPECT_EQ(M.allocator(TierId::Slow).usedBytes(), 0u);
}

TEST_F(RegistryTest, TotalsAcrossObjects) {
  Registry.create("a", 1 << 20, InitialPlacement::Slow);
  Registry.create("b", 2 << 20, InitialPlacement::Fast);
  EXPECT_EQ(Registry.totalMappedBytes(), 3ull << 20);
  EXPECT_EQ(Registry.totalBytesOn(TierId::Fast), 2ull << 20);
  EXPECT_EQ(Registry.totalBytesOn(TierId::Slow), 1ull << 20);
}

TEST_F(RegistryTest, ChunkOverrideRespected) {
  DataObject &Obj =
      Registry.create("a", 1 << 20, InitialPlacement::Slow, 65536);
  EXPECT_EQ(Obj.chunkBytes(), 65536u);
  EXPECT_EQ(Obj.numChunks(), 16u);
}

TEST_F(RegistryTest, ScratchVaDoesNotCollide) {
  DataObject &Obj = Registry.create("a", 1 << 20, InitialPlacement::Slow);
  uint64_t Scratch = Registry.reserveScratchVa(1 << 20);
  EXPECT_TRUE(Scratch >= Obj.va() + Obj.mappedBytes() ||
              Scratch + (1 << 20) <= Obj.va());
}

} // namespace
