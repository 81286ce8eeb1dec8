//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Microbenchmark of the decision-log sinks — the cost question behind
/// "always-on" observability: what does one recorded decision cost when
/// the stream goes to the flat file sink, to the crash-resilient mmap
/// ring (rotation included), and to the null sink (pure serializer cost),
/// against the disabled baseline of one relaxed load + branch per site.
///
/// Each mode replays the same workload: E epochs, each an EpochBegin, one
/// ObjectEpoch, a run of ChunkDecision records and a MigrationEvent — the
/// shape a real optimize() emits. The ring runs on default geometry, so
/// long runs exercise segment rotation and NameDef replay exactly as a
/// serving process would.
///
/// Results land in BENCH_obs.json (provenance-stamped like the other
/// BENCH_*.json trajectories). The acceptance bar this bench guards: the
/// ring's per-record cost stays within 2x of the flat file sink's.
///
//===----------------------------------------------------------------------===//

#include "obs/DecisionLog.h"
#include "obs/RingLog.h"
#include "support/BuildInfo.h"
#include "support/Options.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

using namespace atmem;
using namespace atmem::obs;

namespace {

double nowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One epoch of the representative record mix; returns records emitted.
uint64_t emitEpoch(DecisionLog &Log, uint32_t Chunks) {
  Log.beginEpoch();
  ObjectEpochRecord Obj;
  Obj.Object = 1;
  Obj.NameId = Log.nameId("bench-object");
  Obj.NumChunks = Chunks;
  Obj.ChunkBytes = 1 << 18;
  Obj.SamplePeriod = 64;
  Obj.Weight = 0.5;
  Obj.Theta = 0.25;
  Log.recordObject(Obj);
  ChunkDecisionRecord Chunk;
  Chunk.Object = 1;
  Chunk.Samples = 7;
  Chunk.EstimatedMisses = 448.0;
  Chunk.Priority = 0.125;
  Chunk.Flags = DecisionChunkSampledCritical;
  for (uint32_t C = 0; C < Chunks; ++C) {
    Chunk.Chunk = C;
    Log.recordChunk(Chunk);
  }
  MigrationEventRecord Event;
  Event.Object = 1;
  Event.FirstChunk = 0;
  Event.NumChunks = Chunks;
  Event.TargetFast = 1;
  Event.Phase = DecisionPhase::Committed;
  Log.recordMigration(Event);
  return 3 + Chunks; // EpochBegin + ObjectEpoch + chunks + MigrationEvent.
}

struct ModeResult {
  uint64_t Records = 0;
  double WallMs = 0.0;
  double nsPerRecord() const {
    return Records ? WallMs * 1e6 / static_cast<double>(Records) : 0.0;
  }
};

/// Replays the workload into whatever sink is currently open (or none).
ModeResult runWorkload(uint64_t Epochs, uint32_t Chunks) {
  DecisionLog &Log = DecisionLog::instance();
  ModeResult R;
  double Start = nowMs();
  for (uint64_t E = 0; E < Epochs; ++E)
    R.Records += emitEpoch(Log, Chunks);
  R.WallMs = nowMs() - Start;
  return R;
}

} // namespace

int main(int Argc, const char **Argv) {
  OptionParser Parser(
      "micro_obs: per-record cost of the decision-log sinks (flat file, "
      "crash-resilient ring, null) vs the disabled baseline");
  Parser.addUnsigned("epochs", 2000, "workload epochs per mode");
  Parser.addUnsigned("chunks", 32, "chunk decisions per epoch");
  Parser.addFlag("quick", "1/10th workload for CI smoke runs");
  Parser.addString("json", "BENCH_obs.json",
                   "machine-readable results path ('' disables)");
  Parser.addString("workdir", "/tmp",
                   "directory for the transient log/ring files");
  if (!Parser.parse(Argc, Argv))
    return 1;

  uint64_t Epochs = Parser.getUnsigned("epochs");
  uint32_t Chunks = Parser.getUnsigned32("chunks");
  if (Parser.getFlag("quick"))
    Epochs = std::max<uint64_t>(1, Epochs / 10);
  std::string Dir = Parser.getString("workdir");

  DecisionLog &Log = DecisionLog::instance();
  std::string Error;

  std::printf("micro_obs: %llu epochs x %u chunk decisions per mode\n\n",
              static_cast<unsigned long long>(Epochs), Chunks);

  // Disabled baseline: every site pays one relaxed load + branch.
  Log.close();
  ModeResult Disabled = runWorkload(Epochs, Chunks);

  // Null sink: serializer cost with the bytes discarded.
  if (!openDecisionLogNull()) {
    std::fprintf(stderr, "error: cannot open null sink\n");
    return 1;
  }
  ModeResult Null = runWorkload(Epochs, Chunks);
  Log.close();

  // Flat file sink (the atdl-v1 reference destination).
  std::string FilePath = Dir + "/micro_obs.atdl";
  if (!Log.open(FilePath, &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  ModeResult File = runWorkload(Epochs, Chunks);
  if (!Log.close(&Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }

  // Ring sink on default geometry: rotation and NameDef replay included.
  std::string RingPath = Dir + "/micro_obs.atdr";
  if (!openDecisionLogRing(RingPath, RingLogOptions(), &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  ModeResult Ring = runWorkload(Epochs, Chunks);
  if (!Log.close(&Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }

  std::remove(FilePath.c_str());
  for (const std::string &Segment : ringSegmentFiles(RingPath))
    std::remove(Segment.c_str());

  double RingVsFile =
      File.nsPerRecord() > 0.0 ? Ring.nsPerRecord() / File.nsPerRecord()
                               : 0.0;

  std::printf("%-10s %12s %12s %14s\n", "mode", "records", "wall_ms",
              "ns/record");
  auto Row = [](const char *Name, const ModeResult &R) {
    std::printf("%-10s %12llu %12.3f %14.1f\n", Name,
                static_cast<unsigned long long>(R.Records), R.WallMs,
                R.nsPerRecord());
  };
  Row("disabled", Disabled);
  Row("null", Null);
  Row("file", File);
  Row("ring", Ring);
  std::printf("\nring/file per-record ratio: %.3f (bar: <= 2.0)\n",
              RingVsFile);

  std::string JsonPath = Parser.getString("json");
  if (!JsonPath.empty()) {
    std::FILE *Out = std::fopen(JsonPath.c_str(), "w");
    if (!Out) {
      std::fprintf(stderr, "warning: cannot write '%s'\n", JsonPath.c_str());
    } else {
      auto Mode = [Out](const char *Name, const ModeResult &R,
                        const char *Sep) {
        std::fprintf(Out,
                     "  \"%s\": {\"records\": %llu, \"wall_ms\": %.3f, "
                     "\"ns_per_record\": %.1f}%s\n",
                     Name, static_cast<unsigned long long>(R.Records),
                     R.WallMs, R.nsPerRecord(), Sep);
      };
      std::fprintf(Out,
                   "{\n"
                   "  \"bench\": \"micro_obs\",\n"
                   "  \"quick\": %s,\n"
                   "  \"epochs\": %llu,\n"
                   "  \"chunks_per_epoch\": %u,\n"
                   "  \"host_hardware_threads\": %u,\n"
                   "  \"git_sha\": \"%s\",\n"
                   "  \"compiler\": \"%s\",\n"
                   "  \"cpu_model\": \"%s\",\n"
                   "  \"peak_rss_bytes\": %llu,\n",
                   Parser.getFlag("quick") ? "true" : "false",
                   static_cast<unsigned long long>(Epochs), Chunks,
                   std::max(1u, std::thread::hardware_concurrency()),
                   support::gitSha(), support::compilerId(),
                   support::cpuModel().c_str(),
                   static_cast<unsigned long long>(support::peakRssBytes()));
      Mode("disabled", Disabled, ",");
      Mode("null_sink", Null, ",");
      Mode("file_sink", File, ",");
      Mode("ring_sink", Ring, ",");
      std::fprintf(Out, "  \"ring_vs_file_ratio\": %.3f\n}\n", RingVsFile);
      std::fclose(Out);
      std::printf("results written to %s\n", JsonPath.c_str());
    }
  }

  // The bar the tentpole promises: always-on ring capture costs no more
  // than twice the flat file sink per record.
  if (RingVsFile > 2.0) {
    std::fprintf(stderr,
                 "FAIL: ring sink %.3fx the file sink (bar: 2.0x)\n",
                 RingVsFile);
    return 1;
  }
  return 0;
}
