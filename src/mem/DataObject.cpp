#include "mem/DataObject.h"

#include "support/Error.h"

#include <algorithm>
#include <bit>
#include <cassert>

using namespace atmem;
using namespace atmem::mem;

uint64_t mem::adaptiveChunkBytes(uint64_t SizeBytes, uint32_t TargetChunks) {
  assert(TargetChunks > 0 && "need a positive chunk target");
  uint64_t MinChunk = sim::SmallPageBytes;
  uint64_t MaxChunk = 64ull << 20;
  if (SizeBytes == 0)
    return MinChunk;
  uint64_t Raw = SizeBytes / TargetChunks;
  Raw = std::clamp(Raw, MinChunk, MaxChunk);
  return std::bit_ceil(Raw);
}

DataObject::DataObject(ObjectId Id, std::string Name, uint64_t Va,
                       uint64_t SizeBytes, uint64_t ChunkBytes)
    : Id(Id), Name(std::move(Name)), Va(Va), SizeBytes(SizeBytes),
      ChunkBytes(ChunkBytes) {
  if (!std::has_single_bit(ChunkBytes) || ChunkBytes < sim::SmallPageBytes)
    reportFatalError("chunk size must be a power of two >= 4 KiB");
  ChunkShift = static_cast<uint32_t>(std::countr_zero(ChunkBytes));
  uint64_t Pages =
      (SizeBytes + sim::SmallPageBytes - 1) / sim::SmallPageBytes;
  if (Pages == 0)
    Pages = 1;
  MappedBytes = Pages * sim::SmallPageBytes;
  NumChunks = static_cast<uint32_t>((MappedBytes + ChunkBytes - 1) /
                                    ChunkBytes);
  // make_unique value-initializes: the host buffer starts zeroed.
  Host = std::make_unique<std::byte[]>(MappedBytes);
  ChunkTiers.assign(NumChunks, static_cast<uint8_t>(sim::TierId::Slow));
}

uint64_t DataObject::bytesOn(sim::TierId Tier) const {
  uint64_t Bytes = 0;
  for (uint32_t C = 0; C < NumChunks; ++C)
    if (chunkTier(C) == Tier) {
      auto [Begin, End] = rangeBytes({C, 1});
      Bytes += End - Begin;
    }
  return Bytes;
}

std::pair<uint64_t, uint64_t>
DataObject::rangeBytes(const ChunkRange &Range) const {
  assert(Range.FirstChunk + Range.NumChunks <= NumChunks &&
         "chunk range out of bounds");
  uint64_t Begin = static_cast<uint64_t>(Range.FirstChunk) << ChunkShift;
  uint64_t End = Begin + (static_cast<uint64_t>(Range.NumChunks) << ChunkShift);
  End = std::min(End, MappedBytes);
  return {Begin, End};
}
