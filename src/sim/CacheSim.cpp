#include "sim/CacheSim.h"

#include "support/Error.h"

#include <bit>

using namespace atmem;
using namespace atmem::sim;

CacheSim::CacheSim(const CacheConfig &Config)
    : Ways(Config.Ways), LineBytes(Config.LineBytes) {
  if (Config.Ways == 0)
    reportFatalError("cache must have at least one way");
  if (!std::has_single_bit(Config.LineBytes))
    reportFatalError("cache line size must be a nonzero power of two");
  LineShift = static_cast<uint32_t>(std::countr_zero(Config.LineBytes));
  uint64_t WantedSets = Config.SizeBytes / Config.LineBytes / Config.Ways;
  // Round the set count down to a power of two so indexing is a mask.
  uint64_t Sets = WantedSets == 0 ? 1 : std::bit_floor(WantedSets);
  SetMask = Sets - 1;
  SetShift = static_cast<uint32_t>(std::countr_zero(Sets));
  Tags.assign(Sets * Ways, ~0ull);
}

bool CacheSim::accessBeyondMru(uint64_t *Row, uint64_t Tag) {
  // One move-to-front pass: each way is overwritten by its predecessor
  // until the tag turns up (a hit at position P shifts Row[0, P) back by
  // one) or the row ends (a miss shifts the whole row and drops the tail).
  // Either way the tag lands in way 0. Hits sit near the MRU end, so the
  // early exit beats a full SIMD probe followed by a memmove.
  uint64_t Prev = Tag;
  for (uint32_t I = 0; I < Ways; ++I) {
    uint64_t Cur = Row[I];
    Row[I] = Prev;
    if (Cur == Tag)
      return true;
    Prev = Cur;
  }
  return false;
}

void CacheSim::flushAll() {
  for (uint64_t &Tag : Tags)
    Tag = ~0ull;
}
