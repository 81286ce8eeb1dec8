//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// atmem_replay: deterministic re-execution of recorded placement
/// decisions.
///
/// The tool reconstructs every epoch's analyzer inputs from an atdl/atdr
/// decision log, re-runs the Eq. 1-5 heuristic on them, and verifies the
/// replayed selection against the recorded verdicts (atmem_explain --diff
/// semantics: any drift exits 3). It reports the replayed plans'
/// fast-tier hit fraction, placed chunks, plan bytes, and migration churn.
///
/// Examples:
///   atmem_replay run.atdl
///   atmem_replay run.atdl --budget 262144
///   atmem_replay run.atdl --json
///
//===----------------------------------------------------------------------===//

#include "analyzer/ReplayHarness.h"
#include "obs/RingLog.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace atmem;

namespace {

int usage(const char *Prog) {
  std::fprintf(
      stderr,
      "usage: %s <decision-log.atdl | ring-base-path> [options]\n"
      "\n"
      "replays a recorded decision log through the analyzer and checks\n"
      "the replayed heuristic against the recorded placements\n"
      "\n"
      "options:\n"
      "  --budget BYTES      cap every epoch's plan (default: unbudgeted)\n"
      "  --json              emit the report as JSON instead of text\n"
      "  --no-drift-gate     report drift but do not exit 3 on it\n"
      "\n"
      "exit status: 0 ok, 2 usage, 1 read/parse failure, 3 placement "
      "drift\n",
      Prog);
  return 2;
}

} // namespace

int main(int Argc, const char **Argv) {
  if (Argc < 2 || std::strcmp(Argv[1], "--help") == 0 ||
      std::strcmp(Argv[1], "-h") == 0)
    return usage(Argv[0]);

  std::string LogPath = Argv[1];
  uint64_t BudgetBytes = 0;
  bool Json = false;
  bool DriftGate = true;
  for (int I = 2; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--budget") == 0 && I + 1 < Argc) {
      if (!tryParseUnsigned(Argv[++I], BudgetBytes)) {
        std::fprintf(stderr, "atmem_replay: bad --budget '%s'\n", Argv[I]);
        return 2;
      }
    } else if (std::strcmp(Argv[I], "--json") == 0) {
      Json = true;
    } else if (std::strcmp(Argv[I], "--no-drift-gate") == 0) {
      DriftGate = false;
    } else {
      return usage(Argv[0]);
    }
  }

  obs::DecisionArtifact Artifact;
  std::string Error;
  if (!obs::readDecisionLogAny(LogPath, Artifact, &Error)) {
    std::fprintf(stderr, "atmem_replay: %s: %s\n", LogPath.c_str(),
                 Error.c_str());
    return 1;
  }

  std::vector<analyzer::ReplayEpoch> Epochs;
  if (!analyzer::replayEpochsFromArtifact(Artifact, Epochs, &Error)) {
    std::fprintf(stderr, "atmem_replay: %s: %s\n", LogPath.c_str(),
                 Error.c_str());
    return 1;
  }

  analyzer::ReplayReport Report = analyzer::replayHeuristic(
      Epochs, analyzer::AnalyzerConfig(), BudgetBytes);

  std::string Text = Json ? analyzer::replayReportJson(Report)
                          : analyzer::replayReportText(Report);
  std::fputs(Text.c_str(), stdout);

  if (DriftGate && Report.Drift.Mismatches > 0)
    return 3;
  return 0;
}
