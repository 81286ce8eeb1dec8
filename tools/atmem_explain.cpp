//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// atmem_explain: provenance queries over a placement-decision flight
/// recorder file (written by atmem_run/benches via --decision-log).
///
/// Examples:
///   atmem_explain run.atdl --summary
///   atmem_explain run.atdl --why obj=rank chunk=17 iter=3
///   atmem_explain run.atdl --heatmap obj=rank
///   atmem_explain run.atdl --diff other.atdl
///   atmem_explain run.atdl --jsonl decisions.jsonl
///
//===----------------------------------------------------------------------===//

#include "obs/DecisionExplain.h"
#include "obs/DecisionLog.h"
#include "obs/RingLog.h"
#include "support/StringUtils.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace atmem;

namespace {

int usage(const char *Prog) {
  std::fprintf(
      stderr,
      "usage: %s <decision-log.bin | ring-base-path> [action]\n"
      "\n"
      "accepts flat atdl-v1 logs and crash-resilient atdr-v1 rings\n"
      "(pass the ring base path or any <base>.NNNNNN segment file)\n"
      "\n"
      "actions (default: --summary):\n"
      "  --summary                     per-epoch, per-object overview\n"
      "  --why obj=NAME chunk=N [iter=K]\n"
      "                                causal chain of one placement "
      "decision\n"
      "                                (iter defaults to the last epoch)\n"
      "  --heatmap obj=NAME [cols=N]   chunk-state heatmap over epochs\n"
      "  --diff OTHER.bin              placement differences vs another "
      "run\n"
      "  --jsonl OUT.jsonl             export all records as JSON lines\n",
      Prog);
  return 2;
}

/// Parses a "key=value" token; returns false when the key does not match.
bool keyValue(const char *Arg, const char *Key, std::string &Out) {
  size_t KeyLen = std::strlen(Key);
  if (std::strncmp(Arg, Key, KeyLen) != 0 || Arg[KeyLen] != '=')
    return false;
  Out = Arg + KeyLen + 1;
  return true;
}

} // namespace

int main(int Argc, const char **Argv) {
  if (Argc < 2 || std::strcmp(Argv[1], "--help") == 0 ||
      std::strcmp(Argv[1], "-h") == 0)
    return usage(Argv[0]);

  std::string LogPath = Argv[1];
  obs::DecisionArtifact Artifact;
  obs::RingRecoveryStats Recovery;
  bool WasRing = false;
  std::string Error;
  // Flat atdl files and atdr rings (base path or any segment) are both
  // accepted; rings go through the crash-recovery reader, so a log from a
  // killed run explains its complete epochs like any other.
  if (!obs::readDecisionLogAny(LogPath, Artifact, &Error, &Recovery,
                               &WasRing)) {
    std::fprintf(stderr, "error: %s: %s\n", LogPath.c_str(), Error.c_str());
    return 1;
  }
  if (WasRing && !Recovery.CleanClose)
    std::fprintf(stderr,
                 "note: %s: crash-recovered ring (%llu epochs salvaged, "
                 "%llu tail records of the in-flight epoch dropped)\n",
                 LogPath.c_str(),
                 static_cast<unsigned long long>(Recovery.SalvagedEpochs),
                 static_cast<unsigned long long>(Recovery.DroppedTail));
  if (!obs::validateDecisionLog(Artifact, &Error)) {
    std::fprintf(stderr, "error: %s: invalid decision log: %s\n",
                 LogPath.c_str(), Error.c_str());
    return 1;
  }

  std::string Action = Argc >= 3 ? Argv[2] : "--summary";
  std::vector<const char *> Rest(Argv + std::min(Argc, 3), Argv + Argc);

  if (Action == "--summary") {
    std::fputs(obs::summarizeDecisions(Artifact).c_str(), stdout);
    return 0;
  }

  if (Action == "--why") {
    obs::WhyQuery Query;
    bool HaveChunk = false;
    for (const char *Arg : Rest) {
      std::string Value;
      if (keyValue(Arg, "obj", Query.Object))
        continue;
      if (keyValue(Arg, "chunk", Value)) {
        uint64_t N;
        if (!tryParseUnsigned(Value, N) || N > UINT32_MAX) {
          std::fprintf(stderr, "error: bad chunk '%s'\n", Value.c_str());
          return 2;
        }
        Query.Chunk = static_cast<uint32_t>(N);
        HaveChunk = true;
        continue;
      }
      if (keyValue(Arg, "iter", Value) || keyValue(Arg, "epoch", Value)) {
        uint64_t N;
        if (!tryParseUnsigned(Value, N)) {
          std::fprintf(stderr, "error: bad iter '%s'\n", Value.c_str());
          return 2;
        }
        Query.Epoch = static_cast<int64_t>(N);
        continue;
      }
      std::fprintf(stderr, "error: unknown --why argument '%s'\n", Arg);
      return 2;
    }
    if (Query.Object.empty() || !HaveChunk) {
      std::fprintf(stderr,
                   "error: --why needs obj=NAME and chunk=N arguments\n");
      return 2;
    }
    std::string Out;
    if (!obs::explainChunk(Artifact, Query, Out, &Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    std::fputs(Out.c_str(), stdout);
    return 0;
  }

  if (Action == "--heatmap") {
    std::string Object;
    uint64_t Cols = 96;
    for (const char *Arg : Rest) {
      std::string Value;
      if (keyValue(Arg, "obj", Object))
        continue;
      if (keyValue(Arg, "cols", Value) && tryParseUnsigned(Value, Cols) &&
          Cols > 0 && Cols <= UINT32_MAX)
        continue;
      std::fprintf(stderr, "error: unknown --heatmap argument '%s'\n", Arg);
      return 2;
    }
    if (Object.empty()) {
      std::fprintf(stderr, "error: --heatmap needs an obj=NAME argument\n");
      return 2;
    }
    std::fputs(obs::renderHeatmap(Artifact, Object,
                                  static_cast<uint32_t>(Cols))
                   .c_str(),
               stdout);
    return 0;
  }

  if (Action == "--diff") {
    if (Rest.empty()) {
      std::fprintf(stderr, "error: --diff needs a second log path\n");
      return 2;
    }
    obs::DecisionArtifact Other;
    if (!obs::readDecisionLogAny(Rest[0], Other, &Error)) {
      std::fprintf(stderr, "error: %s: %s\n", Rest[0], Error.c_str());
      return 1;
    }
    if (!obs::validateDecisionLog(Other, &Error)) {
      std::fprintf(stderr, "error: %s: invalid decision log: %s\n", Rest[0],
                   Error.c_str());
      return 1;
    }
    std::string Diff = obs::diffDecisions(Artifact, Other);
    std::fputs(Diff.c_str(), stdout);
    // Scriptable: exit 0 on identical placement, 3 on any difference.
    return Diff.find("identical") != std::string::npos ? 0 : 3;
  }

  if (Action == "--jsonl") {
    if (Rest.empty()) {
      std::fprintf(stderr, "error: --jsonl needs an output path\n");
      return 2;
    }
    if (!obs::writeDecisionJsonl(Artifact, Rest[0], &Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    std::printf("wrote %zu records to %s\n", Artifact.Records.size(),
                Rest[0]);
    return 0;
  }

  std::fprintf(stderr, "error: unknown action '%s'\n", Action.c_str());
  return usage(Argv[0]);
}
