//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic decision-log replay. A recorded atdl log carries
/// everything the analyzer consumed — per-(epoch, object, chunk) sample
/// counts, miss estimates, chunk geometry, the sampling period — so the
/// harness can reconstruct the exact classification inputs and re-run
/// Analyzer::classifyInputs on identical data:
///
///   * drift check — the replayed Eq. 1-5 selection must reproduce the
///     recorded verdicts chunk for chunk (atmem_explain --diff semantics:
///     tools/atmem_replay exits 3 on any mismatch), so an analyzer change
///     can never silently regress placements;
///   * placement report — the replayed plans are scored on fast-tier hit
///     fraction (the share of next-epoch miss traffic landing on
///     fast-placed chunks) and migration churn.
///
/// Everything here is pure computation over decoded artifacts: replaying
/// the same log twice produces byte-identical reports.
///
//===----------------------------------------------------------------------===//

#ifndef ATMEM_ANALYZER_REPLAYHARNESS_H
#define ATMEM_ANALYZER_REPLAYHARNESS_H

#include "analyzer/Analyzer.h"
#include "obs/DecisionLog.h"

#include <string>
#include <vector>

namespace atmem {
namespace analyzer {

/// One reconstructed epoch: the classification inputs plus what the
/// original run decided, in the original object order.
struct ReplayEpoch {
  uint64_t Epoch = 0;
  uint64_t SamplePeriod = 0;
  std::vector<ObjectProfileInput> Inputs;
  /// Per object, per chunk: 1 when the recorded run selected the chunk
  /// (sampled critical, globally ranked, or promoted). Cold chunks, absent
  /// from the log, are 0. Replay checks itself against these.
  std::vector<std::vector<uint8_t>> RecordedSelected;
};

/// Reconstructs per-epoch analyzer inputs from a decoded artifact. Epochs
/// carrying no ObjectEpoch record (e.g. pure migration activity) are
/// skipped. False (with \p Error) on structurally inconsistent records
/// (chunk index past the object's grid, chunk before its object).
bool replayEpochsFromArtifact(const obs::DecisionArtifact &Artifact,
                              std::vector<ReplayEpoch> &Out,
                              std::string *Error = nullptr);

/// Placement metrics of the replayed plans across all epochs.
struct ReplayMetrics {
  /// Mean fast-tier hit fraction: misses landing on fast-placed chunks
  /// over all misses, scored against the *next* epoch's recorded traffic
  /// (placement serves the future; epochs without a successor are
  /// excluded). 1.0 when no epoch has a successor.
  double HitFractionNext = 0.0;
  /// Same metric scored against the epoch's own traffic.
  double HitFractionSame = 0.0;
  uint64_t PlacedChunks = 0; ///< Selected chunks summed over epochs.
  uint64_t PlanBytes = 0;    ///< Planned bytes summed over epochs.
  /// Migration churn: chunks whose planned placement flipped between
  /// consecutive epochs, summed (the migrations a runtime would issue
  /// after the initial epoch).
  uint64_t ChurnChunks = 0;
};

/// Replay-vs-record drift of the heuristic.
struct ReplayDrift {
  uint64_t Mismatches = 0; ///< Chunks whose selection verdict differs.
  std::string First;       ///< "epoch E obj NAME chunk C: ..." or "".
};

/// The full replay result.
struct ReplayReport {
  uint64_t Epochs = 0;
  uint64_t BudgetBytes = 0; ///< 0 = unbudgeted plans.
  ReplayMetrics Heuristic;
  ReplayDrift Drift;
};

/// Re-runs the analyzer under \p Config over \p Epochs, computing drift
/// against the recorded verdicts and the placement metrics above.
/// \p BudgetBytes caps every epoch's plan (0 = unbounded).
ReplayReport replayHeuristic(const std::vector<ReplayEpoch> &Epochs,
                             const AnalyzerConfig &Config,
                             uint64_t BudgetBytes = 0);

/// Renders \p Report as a fixed-format human-readable block (byte-stable
/// across repeated replays of the same log).
std::string replayReportText(const ReplayReport &Report);

/// Renders \p Report as a single JSON object ("atmem-replay-v1").
std::string replayReportJson(const ReplayReport &Report);

} // namespace analyzer
} // namespace atmem

#endif // ATMEM_ANALYZER_REPLAYHARNESS_H
