//===----------------------------------------------------------------------===//
// Decision-log replay: the committed golden planted-workload log must
// replay through the Eq. 1-5 analyzer with zero drift from the recorded
// placements, and replaying it twice must produce byte-identical reports.
//===----------------------------------------------------------------------===//

#include "analyzer/ReplayHarness.h"
#include "obs/RingLog.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace atmem;
using namespace atmem::analyzer;

namespace {

std::vector<ReplayEpoch> loadGoldenEpochs() {
  obs::DecisionArtifact Artifact;
  std::string Error;
  if (!obs::readDecisionLogAny(ATMEM_GOLDEN_PLANTED_PATH, Artifact, &Error))
    ADD_FAILURE() << ATMEM_GOLDEN_PLANTED_PATH << ": " << Error;
  std::vector<ReplayEpoch> Epochs;
  if (!replayEpochsFromArtifact(Artifact, Epochs, &Error))
    ADD_FAILURE() << Error;
  return Epochs;
}

/// The budget planted_recorder suggests: the stable block plus two chunks,
/// tight enough that selection order decides the next-epoch hit fraction.
constexpr uint64_t GoldenBudget = 66 * 4096;

} // namespace

TEST(ReplayTest, GoldenLogReplaysWithZeroDrift) {
  std::vector<ReplayEpoch> Epochs = loadGoldenEpochs();
  ASSERT_FALSE(Epochs.empty());
  ReplayReport Report = replayHeuristic(Epochs, AnalyzerConfig());
  EXPECT_EQ(Report.Drift.Mismatches, 0u) << Report.Drift.First;
  EXPECT_EQ(Report.Epochs, Epochs.size());
}

TEST(ReplayTest, ReplayingTwiceIsByteIdentical) {
  std::vector<ReplayEpoch> Epochs = loadGoldenEpochs();
  ASSERT_FALSE(Epochs.empty());

  ReplayReport First = replayHeuristic(Epochs, AnalyzerConfig(), GoldenBudget);
  ReplayReport Second =
      replayHeuristic(Epochs, AnalyzerConfig(), GoldenBudget);
  EXPECT_EQ(replayReportText(First), replayReportText(Second));
  EXPECT_EQ(replayReportJson(First), replayReportJson(Second));

  // Reconstructing the epochs again from disk must not change a byte
  // either (reader determinism, not just analyzer determinism).
  std::vector<ReplayEpoch> Reloaded = loadGoldenEpochs();
  ReplayReport Third =
      replayHeuristic(Reloaded, AnalyzerConfig(), GoldenBudget);
  EXPECT_EQ(replayReportText(First), replayReportText(Third));
}
