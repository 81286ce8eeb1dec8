//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// planted_recorder: deterministic multi-epoch planted-hot-set workload
/// that records a decision log for the replay drift check.
///
/// Every epoch drives the same 1 MiB array through the full profiled
/// pipeline with a *known* traffic split:
///
///   * a stable contiguous hot block (a quarter of the chunks) that stays
///     hot in every epoch — the pattern a placement should keep resident;
///   * transient scattered spikes (an eighth of the chunks, re-drawn from
///     a seeded PRNG each epoch) that are individually hotter per chunk
///     than the stable block but never recur;
///   * a uniform background over the rest.
///
/// Under a budget that fits the stable block but not block + spikes, the
/// selection order decides the next-epoch hit fraction tools/atmem_replay
/// reports. The recorded atdl log is byte-deterministic for a given
/// (seed, epochs), making it suitable as a committed golden artifact:
///
///   planted_recorder --out tests/golden/planted_hotset.atdl
///   atmem_replay tests/golden/planted_hotset.atdl --budget $((66 * 4096))
///
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"
#include "obs/Export.h"
#include "support/Options.h"
#include "support/Prng.h"

#include <algorithm>
#include <cstdio>
#include <vector>

using namespace atmem;

int main(int Argc, const char **Argv) {
  OptionParser Parser(
      "record a deterministic multi-epoch planted-hot-set decision log");
  Parser.addString("out", "planted_hotset.atdl",
                   "decision-log output path (atdl-v1)");
  Parser.addUnsigned("epochs", 8, "profiled optimize() epochs to record");
  Parser.addUnsigned("seed", 42, "PRNG seed for layout and traffic");
  Parser.addUnsigned("accesses", 400000, "array accesses per epoch");
  if (!Parser.parse(Argc, Argv))
    return 1;
  uint64_t Epochs = std::max<uint64_t>(Parser.getUnsigned("epochs"), 2);
  uint64_t Seed = Parser.getUnsigned("seed");
  uint64_t Accesses = Parser.getUnsigned("accesses");

  core::RuntimeConfig Config;
  Config.Machine = sim::nvmDramTestbed(1.0 / 1024);
  Config.Telemetry.DecisionLogPath = Parser.getString("out");
  core::Runtime Rt(Config);

  constexpr size_t Elements = 1 << 17; // 1 MiB of uint64.
  auto Arr = Rt.allocate<uint64_t>("planted", Elements);
  const mem::DataObject &Obj = Rt.registry().object(Arr.objectId());
  uint32_t Chunks = Obj.numChunks();
  uint64_t ElementsPerChunk = Elements / Chunks;

  // Stable block: a quarter of the chunks, contiguous, fixed offset.
  uint32_t StableChunks = std::max(Chunks / 4, 1u);
  uint32_t StableStart = Chunks / 8;
  // Transient spikes: an eighth of the chunks, re-drawn every epoch
  // outside the stable block.
  uint32_t SpikeChunks = std::max(Chunks / 8, 1u);

  std::printf("planted_recorder: %u chunks x %llu bytes; stable block "
              "[%u, %u), %u transient spikes/epoch\n",
              Chunks, static_cast<unsigned long long>(Obj.chunkBytes()),
              StableStart, StableStart + StableChunks, SpikeChunks);
  std::printf("planted_recorder: suggested replay plan budget: %llu bytes "
              "(stable block + 2 chunks)\n",
              static_cast<unsigned long long>(
                  (StableChunks + 2) * Obj.chunkBytes()));

  Xoshiro256 Rng(Seed);
  for (uint64_t E = 0; E < Epochs; ++E) {
    std::vector<uint32_t> Spikes;
    while (Spikes.size() < SpikeChunks) {
      auto C = static_cast<uint32_t>(Rng.nextBounded(Chunks));
      if (C >= StableStart && C < StableStart + StableChunks)
        continue;
      if (std::find(Spikes.begin(), Spikes.end(), C) != Spikes.end())
        continue;
      Spikes.push_back(C);
    }

    Rt.profilingStart();
    Rt.beginIteration();
    for (uint64_t I = 0; I < Accesses; ++I) {
      double Pick = Rng.nextDouble();
      size_t Index;
      if (Pick < 0.50) {
        // Stable block: 50% of traffic over a quarter of the chunks.
        uint32_t C = StableStart +
                     static_cast<uint32_t>(Rng.nextBounded(StableChunks));
        Index = C * ElementsPerChunk + Rng.nextBounded(ElementsPerChunk);
      } else if (Pick < 0.85) {
        // Spikes: 35% over an eighth — hotter per chunk than the block,
        // but gone next epoch.
        uint32_t C = Spikes[Rng.nextBounded(Spikes.size())];
        Index = C * ElementsPerChunk + Rng.nextBounded(ElementsPerChunk);
      } else {
        Index = Rng.nextBounded(Elements);
      }
      Arr[Index] += 1;
    }
    Rt.endIteration();
    Rt.profilingStop();

    mem::MigrationResult Migration = Rt.optimize();
    std::printf("epoch %llu: migrated %llu bytes in %llu range(s)\n",
                static_cast<unsigned long long>(E),
                static_cast<unsigned long long>(Migration.BytesMoved),
                static_cast<unsigned long long>(Migration.Ranges));
  }

  if (!obs::exportIfConfigured(Config.Telemetry)) {
    std::fprintf(stderr, "planted_recorder: telemetry export failed\n");
    return 1;
  }
  std::printf("decision log written to %s\n",
              Parser.getString("out").c_str());
  return 0;
}
