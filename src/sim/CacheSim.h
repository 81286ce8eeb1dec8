//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Set-associative last-level cache model. Every tracked access from the
/// graph kernels passes through this model; its miss verdicts are both the
/// profiler's sampling signal (PEBS samples LLC-miss loads, Eq. 1 of the
/// paper) and the cost model's timing signal. The model is deliberately a
/// plain LRU cache: the paper's observation that graph workloads defeat
/// cache optimization is exactly reproduced by skewed miss concentration in
/// the hot chunks.
///
//===----------------------------------------------------------------------===//

#ifndef ATMEM_SIM_CACHESIM_H
#define ATMEM_SIM_CACHESIM_H

#include "sim/MachineConfig.h"

#include <cstdint>
#include <vector>

namespace atmem {
namespace sim {

/// LRU set-associative cache indexed by simulated virtual address.
///
/// Each set is one row of tags kept in recency order: way 0 holds the most
/// recently used line, the least recently used line sits at the tail, and
/// invalid ways (the ~0 sentinel) only ever sit at the tail. The row order
/// IS the recency order, so no stamps or clock are kept. Verdicts are
/// those of a stamp-based LRU, access for access: stamps within a set were
/// unique, so sorting a set by stamp gives the row order, and the stamp
/// victim (an invalid way, else the minimal stamp) is the tail. Which way
/// a line occupied was never observable.
class CacheSim {
public:
  /// Aborts via reportFatalError on zero ways or a line size that is zero
  /// or not a power of two.
  explicit CacheSim(const CacheConfig &Config);

  /// Records an access to \p Va. Returns true on a hit. Inline up to the
  /// MRU probe, which decides most accesses of the shipped kernels (a
  /// sweep touches the same line several times in a row); the rest of the
  /// set is scanned and reordered out of line.
  bool access(uint64_t Va) {
    uint64_t Line = Va >> LineShift;
    uint64_t *Row = Tags.data() + (Line & SetMask) * Ways;
    uint64_t Tag = Line >> SetShift;
    if (Row[0] == Tag)
      return true;
    return accessBeyondMru(Row, Tag);
  }

  /// Empties the cache (used between measured iterations when cold-cache
  /// behaviour is wanted).
  void flushAll();

  uint32_t lineBytes() const { return LineBytes; }
  uint64_t sizeBytes() const { return (SetMask + 1) * Ways * LineBytes; }

private:
  /// The access() slow path for a tag that is not in way 0 of \p Row.
  bool accessBeyondMru(uint64_t *Row, uint64_t Tag);

  uint64_t SetMask = 0; ///< Sets - 1; the set count is a power of two.
  uint32_t SetShift = 0;
  uint32_t Ways;
  uint32_t LineBytes;
  uint32_t LineShift = 0;
  /// Sets*Ways tags, one recency-ordered row per set; ~0 marks an invalid
  /// way. Real tags are below 2^58 (the line offset is shifted out).
  std::vector<uint64_t> Tags;
};

} // namespace sim
} // namespace atmem

#endif // ATMEM_SIM_CACHESIM_H
