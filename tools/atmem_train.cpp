//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// atmem_train: offline learning-to-rank trainer over recorded decision
/// logs.
///
/// Fits the dependency-free atmem-ranker-v1 linear model on (feature,
/// label) rows extracted from an atdl/atdr log — features come from each
/// recorded (epoch, object, chunk), the label from whether the *next*
/// epoch's recorded selection kept the chunk. Candidates are ridge
/// least-squares solutions over an L2 sweep plus the exact Eq. 1-5 mimic
/// model; each candidate is scored by the replay A/B harness on the
/// training log, and the winner must beat or match the heuristic on
/// next-epoch fast-tier hit fraction while keeping migration churn within
/// 10% — the mimic always satisfies both (it reproduces the heuristic
/// verdicts exactly), so training can never emit a model worse than the
/// heuristic. The whole pipeline is deterministic: same log in, same
/// model bytes out.
///
/// Examples:
///   atmem_train run.atdl --out ranker.json
///   atmem_train run.atdl --out ranker.json --budget 262144 --report
///
//===----------------------------------------------------------------------===//

#include "analyzer/ReplayHarness.h"
#include "obs/RingLog.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace atmem;

namespace {

int usage(const char *Prog) {
  std::fprintf(
      stderr,
      "usage: %s <decision-log.atdl | ring-base-path> --out MODEL.json "
      "[options]\n"
      "\n"
      "trains an atmem-ranker-v1 linear model from a recorded decision\n"
      "log; the emitted model is guaranteed to match or beat the Eq. 1-5\n"
      "heuristic on the training log's replay A/B gates\n"
      "\n"
      "options:\n"
      "  --out FILE.json     where to write the model (required)\n"
      "  --budget BYTES      plan budget used when scoring candidates\n"
      "                      (default: unbudgeted)\n"
      "  --l2 VALUE          train only this ridge strength instead of\n"
      "                      the default sweep\n"
      "  --report            print the winning candidate's A/B report\n",
      Prog);
  return 2;
}

bool parseDouble(const char *Text, double &Out) {
  if (!Text || !*Text)
    return false;
  char *End = nullptr;
  Out = std::strtod(Text, &End);
  return End && *End == '\0';
}

} // namespace

int main(int Argc, const char **Argv) {
  if (Argc < 2 || std::strcmp(Argv[1], "--help") == 0 ||
      std::strcmp(Argv[1], "-h") == 0)
    return usage(Argv[0]);

  std::string LogPath = Argv[1];
  std::string OutPath;
  uint64_t BudgetBytes = 0;
  double OnlyL2 = -1.0;
  bool PrintReport = false;
  for (int I = 2; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--out") == 0 && I + 1 < Argc) {
      OutPath = Argv[++I];
    } else if (std::strcmp(Argv[I], "--budget") == 0 && I + 1 < Argc) {
      if (!tryParseUnsigned(Argv[++I], BudgetBytes)) {
        std::fprintf(stderr, "atmem_train: bad --budget '%s'\n", Argv[I]);
        return 2;
      }
    } else if (std::strcmp(Argv[I], "--l2") == 0 && I + 1 < Argc) {
      if (!parseDouble(Argv[++I], OnlyL2) || OnlyL2 < 0.0) {
        std::fprintf(stderr, "atmem_train: bad --l2 '%s'\n", Argv[I]);
        return 2;
      }
    } else if (std::strcmp(Argv[I], "--report") == 0) {
      PrintReport = true;
    } else {
      return usage(Argv[0]);
    }
  }
  if (OutPath.empty())
    return usage(Argv[0]);

  obs::DecisionArtifact Artifact;
  std::string Error;
  if (!obs::readDecisionLogAny(LogPath, Artifact, &Error)) {
    std::fprintf(stderr, "atmem_train: %s: %s\n", LogPath.c_str(),
                 Error.c_str());
    return 1;
  }
  std::vector<analyzer::ReplayEpoch> Epochs;
  if (!analyzer::replayEpochsFromArtifact(Artifact, Epochs, &Error)) {
    std::fprintf(stderr, "atmem_train: %s: %s\n", LogPath.c_str(),
                 Error.c_str());
    return 1;
  }

  analyzer::RankerTrainingSet Set = analyzer::rankerTrainingSet(Epochs);
  std::fprintf(stderr,
               "atmem_train: %zu epoch(s), %zu training row(s) from %s\n",
               Epochs.size(), Set.Features.size(), LogPath.c_str());

  std::vector<std::pair<std::string, analyzer::RankerModel>> Candidates;
  if (OnlyL2 >= 0.0) {
    Candidates.emplace_back("ridge(l2=" + std::to_string(OnlyL2) + ")",
                            analyzer::trainRidgeRanker(Set, OnlyL2));
  } else {
    for (double L2 : {1e-3, 1e-2, 1e-1, 1.0, 10.0})
      Candidates.emplace_back("ridge(l2=" + std::to_string(L2) + ")",
                              analyzer::trainRidgeRanker(Set, L2));
  }
  // The mimic reproduces the heuristic verdicts exactly, so its replay
  // metrics equal the heuristic's — the gates below always have at least
  // one admissible candidate.
  Candidates.emplace_back("heuristic-mimic", analyzer::heuristicMimicModel());

  analyzer::AnalyzerConfig Config;
  std::string BestName;
  analyzer::RankerModel BestModel;
  analyzer::ReplayReport BestReport;
  bool HaveBest = false;
  for (const auto &[Name, Candidate] : Candidates) {
    auto Model = std::make_shared<analyzer::RankerModel>(Candidate);
    analyzer::ReplayReport Report =
        analyzer::replayCompare(Epochs, Config, Model, BudgetBytes);
    bool QualityOk =
        Report.Ranker.HitFractionNext >= Report.Heuristic.HitFractionNext;
    bool ChurnOk =
        static_cast<double>(Report.Ranker.ChurnChunks) <=
        1.1 * static_cast<double>(Report.Heuristic.ChurnChunks) + 1e-9;
    std::fprintf(stderr,
                 "atmem_train:   %-18s hit_next %.6f (heuristic %.6f) "
                 "churn %llu (heuristic %llu)%s\n",
                 Name.c_str(), Report.Ranker.HitFractionNext,
                 Report.Heuristic.HitFractionNext,
                 static_cast<unsigned long long>(Report.Ranker.ChurnChunks),
                 static_cast<unsigned long long>(
                     Report.Heuristic.ChurnChunks),
                 QualityOk && ChurnOk ? "" : "  [rejected]");
    if (!QualityOk || !ChurnOk)
      continue;
    bool Better =
        !HaveBest ||
        Report.Ranker.HitFractionNext > BestReport.Ranker.HitFractionNext ||
        (Report.Ranker.HitFractionNext ==
             BestReport.Ranker.HitFractionNext &&
         Report.Ranker.ChurnChunks < BestReport.Ranker.ChurnChunks);
    if (Better) {
      BestName = Name;
      BestModel = Candidate;
      BestReport = Report;
      HaveBest = true;
    }
  }
  if (!HaveBest) {
    std::fprintf(stderr, "atmem_train: no admissible candidate\n");
    return 1;
  }

  std::string ModelJson = BestModel.toJson();
  std::FILE *Out = std::fopen(OutPath.c_str(), "wb");
  if (!Out || std::fwrite(ModelJson.data(), 1, ModelJson.size(), Out) !=
                  ModelJson.size()) {
    std::fprintf(stderr, "atmem_train: cannot write %s\n", OutPath.c_str());
    if (Out)
      std::fclose(Out);
    return 1;
  }
  std::fclose(Out);
  std::fprintf(stderr, "atmem_train: wrote %s (%s)\n", OutPath.c_str(),
               BestName.c_str());
  if (PrintReport)
    std::fputs(analyzer::replayReportText(BestReport).c_str(), stdout);
  return 0;
}
