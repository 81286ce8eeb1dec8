//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Test-local reference implementation of the miss drain: the simplest
/// code that states what the runtime's profiler, attribution and TLB
/// replay must compute for an ordered miss stream. It is the oracle the
/// equivalence suite pins the production drain against, bit for bit.
///
///   - ReferenceProfiler: one countdown step per miss; every Nth miss is a
///     sample weighted by the period in force, and the period doubles each
///     time the sample count reaches the budget.
///   - referenceAttribute: a linear walk over the registry's live objects.
///   - referenceReplayTlb: an uncached PageTable::translate → Tlb::access.
///
//===----------------------------------------------------------------------===//

#ifndef ATMEM_TESTS_REFERENCEDRAIN_H
#define ATMEM_TESTS_REFERENCEDRAIN_H

#include "mem/DataObjectRegistry.h"
#include "profiler/SamplingProfiler.h"
#include "profiler/TraceFile.h"
#include "sim/PageTable.h"
#include "sim/Tlb.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace atmem {
namespace testref {

/// Resolves \p Va to its (object, chunk) by walking every live object.
inline bool referenceAttribute(const mem::DataObjectRegistry &Reg,
                               uint64_t Va, mem::Attribution &Out) {
  for (const mem::DataObject *Obj : Reg.liveObjects())
    if (Va >= Obj->va() && Va < Obj->va() + Obj->mappedBytes()) {
      Out.Object = Obj->id();
      Out.Chunk = Obj->chunkOf(Va - Obj->va());
      return true;
    }
  return false;
}

/// Replays one miss against \p Tlb through a direct page-table walk.
inline void referenceReplayTlb(const sim::PageTable &PT, sim::Tlb &Tlb,
                               uint64_t Va) {
  sim::Translation T;
  if (PT.translate(Va, T))
    Tlb.access(Va, T.PageBytes);
}

/// Per-miss sampling profiler with the same arming rules as
/// prof::SamplingProfiler::start().
class ReferenceProfiler {
public:
  ReferenceProfiler(const mem::DataObjectRegistry &Reg,
                    const prof::ProfilerConfig &Config, uint32_t Threads)
      : Reg(Reg) {
    uint64_t TotalChunks = 0, TotalBytes = 0;
    for (const mem::DataObject *Obj : Reg.liveObjects()) {
      TotalChunks += Obj->numChunks();
      TotalBytes += Obj->mappedBytes();
    }
    Budget = static_cast<uint64_t>(std::clamp<double>(
        Config.SamplesPerChunk * static_cast<double>(TotalChunks),
        static_cast<double>(Config.MinSampleBudget),
        static_cast<double>(Config.MaxSampleBudget)));
    Period = Config.InitialPeriod != 0
                 ? Config.InitialPeriod
                 : prof::SamplingProfiler::deriveInitialPeriod(
                       TotalChunks, TotalBytes, std::max(1u, Threads));
    StartPeriod = Period;
    Countdown = Period;
  }

  void onMiss(uint64_t Va) {
    ++MissesSeen;
    if (--Countdown != 0)
      return;
    ++SamplesTaken;
    mem::Attribution Attr;
    if (referenceAttribute(Reg, Va, Attr)) {
      prof::ObjectProfile &Profile = profileSlot(Attr.Object);
      ++Profile.Samples[Attr.Chunk];
      Profile.EstimatedMisses[Attr.Chunk] += static_cast<double>(Period);
    }
    if (SamplesTaken % Budget == 0)
      Period *= 2;
    Countdown = Period;
  }

  uint64_t period() const { return Period; }
  uint64_t initialPeriod() const { return StartPeriod; }
  uint64_t sampleCount() const { return SamplesTaken; }
  uint64_t missesSeen() const { return MissesSeen; }

  /// Profile of \p Id, zero-filled when it received no samples (the
  /// production profiler's profileFor() contract).
  prof::ObjectProfile profileFor(mem::ObjectId Id) const {
    if (Id < Profiles.size() && !Profiles[Id].Samples.empty())
      return Profiles[Id];
    prof::ObjectProfile Empty;
    uint32_t Chunks = Reg.object(Id).numChunks();
    Empty.Samples.assign(Chunks, 0);
    Empty.EstimatedMisses.assign(Chunks, 0.0);
    return Empty;
  }

private:
  prof::ObjectProfile &profileSlot(mem::ObjectId Id) {
    if (Profiles.size() <= Id)
      Profiles.resize(Id + 1);
    prof::ObjectProfile &Profile = Profiles[Id];
    if (Profile.Samples.empty()) {
      uint32_t Chunks = Reg.object(Id).numChunks();
      Profile.Samples.assign(Chunks, 0);
      Profile.EstimatedMisses.assign(Chunks, 0.0);
    }
    return Profile;
  }

  const mem::DataObjectRegistry &Reg;
  uint64_t Budget = 1;
  uint64_t Period = 1;
  uint64_t StartPeriod = 1;
  uint64_t Countdown = 1;
  uint64_t MissesSeen = 0;
  uint64_t SamplesTaken = 0;
  std::vector<prof::ObjectProfile> Profiles;
};

/// The reference drain: every miss, in order, through whichever of the
/// three consumers is attached (null members are detached).
struct ReferenceDrain {
  ReferenceProfiler *Profiler = nullptr;
  prof::TraceWriter *Trace = nullptr;
  sim::Tlb *Tlb = nullptr;
  const sim::PageTable *PT = nullptr;

  void onMiss(uint64_t Va) {
    if (Profiler)
      Profiler->onMiss(Va);
    if (Trace)
      Trace->record(Va);
    if (Tlb)
      referenceReplayTlb(*PT, *Tlb, Va);
  }

  void drain(const std::vector<uint64_t> &Misses) {
    for (uint64_t Va : Misses)
      onMiss(Va);
  }
};

} // namespace testref
} // namespace atmem

#endif // ATMEM_TESTS_REFERENCEDRAIN_H
