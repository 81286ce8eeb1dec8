//===----------------------------------------------------------------------===//
// Learned-ranker validation: the RankerPolicy contract (mimic weights
// reproduce the Eq. 1-5 plans bit for bit on randomized workloads), the
// deterministic replay/A-B harness over the committed golden decision log
// (byte-identical reports, zero drift, trained model beating the
// heuristic's next-epoch hit fraction within the churn gate), the model
// parser's fuzz robustness, and graceful degradation under injected
// faults at the ranker.model_load / ranker.score sites.
//===----------------------------------------------------------------------===//

#include "analyzer/Analyzer.h"
#include "analyzer/ReplayHarness.h"
#include "core/Runtime.h"
#include "fault/FaultInjection.h"
#include "obs/RingLog.h"
#include "obs/Telemetry.h"
#include "support/Prng.h"

#include "TestTempDir.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

using namespace atmem;
using namespace atmem::analyzer;
using testutil::tempPath;

namespace {

void writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Text;
  ASSERT_TRUE(Out.good()) << Path;
}

uint64_t counterValue(const char *Name) {
  obs::TelemetrySnapshot Snap = obs::Registry::instance().snapshot();
  const uint64_t *Value = Snap.counter(Name);
  return Value ? *Value : 0;
}

/// Builds a randomized multi-object workload: some objects carry a hot
/// contiguous block, some scattered spikes, some near-uniform noise, with
/// sample counts and miss estimates drawn from a seeded PRNG.
std::vector<ObjectProfileInput> randomInputs(uint64_t Seed) {
  Xoshiro256 Rng(Seed);
  std::vector<ObjectProfileInput> Inputs;
  size_t Objects = 1 + Rng.nextBounded(4);
  for (size_t O = 0; O < Objects; ++O) {
    ObjectProfileInput In;
    In.Object = static_cast<mem::ObjectId>(O + 1);
    In.Name = "obj" + std::to_string(O);
    In.ChunkBytes = 4096u << Rng.nextBounded(3);
    size_t Chunks = 8 + Rng.nextBounded(121);
    In.MappedBytes = In.ChunkBytes * Chunks;
    In.EstimatedMisses.assign(Chunks, 0.0);
    In.Samples.assign(Chunks, 0);
    uint32_t Pattern = static_cast<uint32_t>(Rng.nextBounded(3));
    for (size_t C = 0; C < Chunks; ++C) {
      bool Hot = false;
      switch (Pattern) {
      case 0: // Contiguous hot block over the first third.
        Hot = C < Chunks / 3 + 1;
        break;
      case 1: // Scattered spikes.
        Hot = Rng.nextBounded(8) == 0;
        break;
      default: // Sparse noise; many chunks stay perfectly cold.
        Hot = Rng.nextBounded(16) == 0;
        break;
      }
      uint64_t S = Hot ? 20 + Rng.nextBounded(400) : Rng.nextBounded(3);
      In.Samples[C] = S;
      In.EstimatedMisses[C] =
          static_cast<double>(S) * (900.0 + Rng.nextDouble() * 300.0);
    }
    Inputs.push_back(std::move(In));
  }
  return Inputs;
}

void expectIdenticalClasses(const std::vector<ObjectClassification> &A,
                            const std::vector<ObjectClassification> &B,
                            const std::string &Tag) {
  ASSERT_EQ(A.size(), B.size()) << Tag;
  for (size_t I = 0; I < A.size(); ++I) {
    ASSERT_EQ(A[I].numChunks(), B[I].numChunks()) << Tag;
    EXPECT_EQ(A[I].Local.CriticalCount, B[I].Local.CriticalCount) << Tag;
    EXPECT_EQ(A[I].Promotion.PromotedCount, B[I].Promotion.PromotedCount)
        << Tag;
    for (uint32_t C = 0; C < A[I].numChunks(); ++C) {
      ASSERT_EQ(A[I].isSelected(C), B[I].isSelected(C))
          << Tag << ": object " << I << " chunk " << C;
      ASSERT_EQ(A[I].Local.Critical[C], B[I].Local.Critical[C])
          << Tag << ": object " << I << " chunk " << C;
    }
  }
}

class RankerFaultTest : public ::testing::Test {
protected:
  void SetUp() override {
    fault::FaultRegistry::instance().disarmAll();
    obs::Registry::instance().resetValues();
    obs::setEnabled(true);
  }
  void TearDown() override {
    fault::FaultRegistry::instance().disarmAll();
    obs::setEnabled(false);
    obs::Registry::instance().resetValues();
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Model serialization and parsing.
//===----------------------------------------------------------------------===//

TEST(RankerModelTest, MimicRoundTripsThroughJson) {
  RankerModel Mimic = heuristicMimicModel();
  RankerModel Parsed;
  std::string Error;
  ASSERT_TRUE(parseRankerModel(Mimic.toJson(), Parsed, &Error)) << Error;
  EXPECT_EQ(Parsed.Weights, Mimic.Weights);
  EXPECT_EQ(Parsed.Threshold, Mimic.Threshold);
}

TEST(RankerModelTest, MimicScoresExactlyTheHeuristicVerdict) {
  RankerModel Mimic = heuristicMimicModel();
  RankerObjectContext Obj;
  Obj.ChunkBytes = 4096;
  Obj.Theta = 0.5;
  double Features[NumRankerFeatures];
  for (int Critical = 0; Critical <= 1; ++Critical)
    for (int Promoted = 0; Promoted <= 1; ++Promoted) {
      RankerChunkContext Chunk;
      Chunk.Samples = 17;
      Chunk.EstimatedMisses = 1234.5;
      Chunk.Priority = 0.3;
      Chunk.Critical = Critical != 0;
      Chunk.Promoted = Promoted != 0;
      Chunk.NodeTreeRatio = 0.7;
      rankerFeatures(Obj, Chunk, Features);
      EXPECT_EQ(Mimic.selects(Features), Critical || Promoted);
    }
}

TEST(RankerModelFuzzTest, MalformedCorpusErrorsCleanly) {
  const char *Bad[] = {
      "",
      "   ",
      "not json at all",
      "42",
      "[]",
      "{}",
      "{\"format\": \"wrong-format\", \"weights\": []}",
      "{\"weights\": [0,0,0,0,0,0,0,0,0,0]}",
      "{\"format\": \"atmem-ranker-v1\"}",
      "{\"format\": \"atmem-ranker-v1\", \"weights\": 7}",
      "{\"format\": \"atmem-ranker-v1\", \"weights\": [1, 2, 3]}",
      "{\"format\": \"atmem-ranker-v1\", "
      "\"weights\": [0,0,0,0,0,0,0,0,0,\"x\"]}",
      "{\"format\": \"atmem-ranker-v1\", "
      "\"weights\": [0,0,0,0,0,0,0,0,0,0], \"threshold\": \"high\"}",
      "{\"format\": \"atmem-ranker-v1\", "
      "\"features\": [\"bias\"], \"weights\": [0,0,0,0,0,0,0,0,0,0]}",
      "{\"format\": \"atmem-ranker-v1\", "
      "\"features\": [\"b\",\"l\",\"l\",\"p\",\"s\",\"w\",\"l\",\"s\","
      "\"p\",\"n\"], \"weights\": [0,0,0,0,0,0,0,0,0,0]}",
  };
  for (const char *Text : Bad) {
    RankerModel Out;
    Out.Threshold = 123.0; // Sentinel: must stay untouched on failure.
    std::string Error;
    EXPECT_FALSE(parseRankerModel(Text, Out, &Error)) << Text;
    EXPECT_FALSE(Error.empty()) << Text;
    EXPECT_EQ(Out.Threshold, 123.0) << Text;
  }
}

TEST(RankerModelFuzzTest, EveryTruncationErrorsCleanly) {
  std::string Valid = heuristicMimicModel().toJson();
  // Truncations past the closing brace only strip trailing whitespace and
  // still parse; every shorter prefix must fail cleanly.
  size_t Complete = Valid.find_last_of('}') + 1;
  for (size_t Len = 0; Len < Complete; ++Len) {
    RankerModel Out;
    std::string Error;
    EXPECT_FALSE(
        parseRankerModel(std::string_view(Valid.data(), Len), Out, &Error))
        << "prefix length " << Len;
  }
}

TEST(RankerModelFuzzTest, RandomMutationsNeverCrash) {
  std::string Valid = heuristicMimicModel().toJson();
  Xoshiro256 Rng(0xfeedbeef);
  for (int Round = 0; Round < 500; ++Round) {
    std::string Mutated = Valid;
    size_t Edits = 1 + Rng.nextBounded(8);
    for (size_t E = 0; E < Edits; ++E) {
      size_t Pos = Rng.nextBounded(Mutated.size());
      Mutated[Pos] = static_cast<char>(Rng.nextBounded(256));
    }
    RankerModel Out;
    std::string Error;
    // Either outcome is fine; what matters is a clean return.
    (void)parseRankerModel(Mutated, Out, &Error);
  }
}

TEST(RankerModelFuzzTest, RandomGarbageDocumentsNeverCrash) {
  Xoshiro256 Rng(0xabad1dea);
  for (int Round = 0; Round < 500; ++Round) {
    std::string Garbage;
    size_t Len = Rng.nextBounded(200);
    Garbage.reserve(Len);
    for (size_t I = 0; I < Len; ++I)
      Garbage.push_back(static_cast<char>(Rng.nextBounded(256)));
    RankerModel Out;
    EXPECT_FALSE(parseRankerModel(Garbage, Out, nullptr));
  }
}

//===----------------------------------------------------------------------===//
// Property: the mimic model reproduces Eq. 1-5 plans exactly.
//===----------------------------------------------------------------------===//

TEST(RankerPropertyTest, MimicModelMatchesHeuristicOnRandomWorkloads) {
  for (uint64_t Seed = 1; Seed <= 24; ++Seed) {
    std::vector<ObjectProfileInput> Inputs = randomInputs(Seed);

    Analyzer Heuristic;
    std::vector<ObjectClassification> Plain =
        Heuristic.classifyInputs(Inputs, 1024);

    AnalyzerConfig WithRanker;
    WithRanker.Ranker =
        std::make_shared<RankerModel>(heuristicMimicModel());
    Analyzer Ranked(WithRanker);
    std::vector<ObjectClassification> Mimicked =
        Ranked.classifyInputs(Inputs, 1024);

    expectIdenticalClasses(Plain, Mimicked,
                           "seed " + std::to_string(Seed));
    // The identical selections must build identical budgeted plans too.
    uint64_t Budget = 64 * 4096;
    PlacementPlan A = PlanBuilder::build(Plain, Budget);
    PlacementPlan B = PlanBuilder::build(Mimicked, Budget);
    EXPECT_EQ(A.TotalBytes, B.TotalBytes) << "seed " << Seed;
  }
}

//===----------------------------------------------------------------------===//
// Replay determinism and the golden A/B gates.
//===----------------------------------------------------------------------===//

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

std::shared_ptr<const RankerModel> loadGoldenModel() {
  RankerModel Model;
  std::string Error;
  if (!loadRankerModel(ATMEM_GOLDEN_RANKER_PATH, Model, &Error)) {
    ADD_FAILURE() << ATMEM_GOLDEN_RANKER_PATH << ": " << Error;
    return nullptr;
  }
  return std::make_shared<RankerModel>(Model);
}

/// The budget planted_recorder suggests: the stable block plus two chunks,
/// tight enough that selection order decides the next-epoch hit fraction.
constexpr uint64_t GoldenBudget = 66 * 4096;

} // namespace

TEST(RankerReplayTest, GoldenLogReplaysWithZeroDrift) {
  std::vector<ReplayEpoch> Epochs = loadGoldenEpochs();
  ASSERT_FALSE(Epochs.empty());
  ReplayReport Report = replayCompare(Epochs, AnalyzerConfig(), nullptr);
  EXPECT_EQ(Report.Drift.Mismatches, 0u) << Report.Drift.First;
  EXPECT_EQ(Report.Epochs, Epochs.size());
}

TEST(RankerReplayTest, ReplayingTwiceIsByteIdentical) {
  std::vector<ReplayEpoch> Epochs = loadGoldenEpochs();
  ASSERT_FALSE(Epochs.empty());
  std::shared_ptr<const RankerModel> Model = loadGoldenModel();
  ASSERT_TRUE(Model);

  ReplayReport First =
      replayCompare(Epochs, AnalyzerConfig(), Model, GoldenBudget);
  ReplayReport Second =
      replayCompare(Epochs, AnalyzerConfig(), Model, GoldenBudget);
  EXPECT_EQ(replayReportText(First), replayReportText(Second));
  EXPECT_EQ(replayReportJson(First), replayReportJson(Second));

  // Reconstructing the epochs again from disk must not change a byte
  // either (reader determinism, not just analyzer determinism).
  std::vector<ReplayEpoch> Reloaded = loadGoldenEpochs();
  ReplayReport Third =
      replayCompare(Reloaded, AnalyzerConfig(), Model, GoldenBudget);
  EXPECT_EQ(replayReportText(First), replayReportText(Third));
}

TEST(RankerReplayTest, TrainedGoldenModelBeatsHeuristicWithinChurnGate) {
  std::vector<ReplayEpoch> Epochs = loadGoldenEpochs();
  ASSERT_FALSE(Epochs.empty());
  std::shared_ptr<const RankerModel> Model = loadGoldenModel();
  ASSERT_TRUE(Model);

  ReplayReport Report =
      replayCompare(Epochs, AnalyzerConfig(), Model, GoldenBudget);
  EXPECT_EQ(Report.Drift.Mismatches, 0u) << Report.Drift.First;
  // The acceptance gates: quality at least the heuristic's, churn within
  // 10% of it (the committed model clears both with a wide margin).
  EXPECT_GE(Report.Ranker.HitFractionNext,
            Report.Heuristic.HitFractionNext);
  EXPECT_LE(static_cast<double>(Report.Ranker.ChurnChunks),
            1.1 * static_cast<double>(Report.Heuristic.ChurnChunks));
}

TEST(RankerReplayTest, TrainingIsDeterministic) {
  std::vector<ReplayEpoch> Epochs = loadGoldenEpochs();
  ASSERT_FALSE(Epochs.empty());
  RankerTrainingSet Set = rankerTrainingSet(Epochs);
  ASSERT_FALSE(Set.Features.empty());
  ASSERT_EQ(Set.Features.size(), Set.Labels.size());
  RankerModel A = trainRidgeRanker(Set, 0.01);
  RankerModel B = trainRidgeRanker(Set, 0.01);
  EXPECT_EQ(A.Weights, B.Weights);
  EXPECT_EQ(A.toJson(), B.toJson());
}

TEST(RankerReplayTest, EmptyTrainingSetFallsBackToMimic) {
  RankerModel Model = trainRidgeRanker(RankerTrainingSet(), 0.01);
  EXPECT_EQ(Model.Weights, heuristicMimicModel().Weights);
}

//===----------------------------------------------------------------------===//
// Fault injection: ranker.model_load and ranker.score degrade gracefully.
//===----------------------------------------------------------------------===//

TEST_F(RankerFaultTest, ModelLoadFaultEveryFallsBackAndCounts) {
  std::string Path = tempPath("ranker_fault_valid.json");
  writeFile(Path, heuristicMimicModel().toJson());

  fault::FaultPlan Plan;
  Plan.Mode = fault::Trigger::EveryKth;
  Plan.N = 1;
  fault::FaultRegistry::instance().arm("ranker.model_load", Plan);

  uint64_t Before = counterValue("ranker.model_load_failed");
  RankerModel Out;
  Out.Threshold = 99.0;
  std::string Error;
  EXPECT_FALSE(loadRankerModel(Path, Out, &Error));
  EXPECT_NE(Error.find("injected"), std::string::npos) << Error;
  EXPECT_EQ(Out.Threshold, 99.0); // Untouched on failure.
  EXPECT_EQ(counterValue("ranker.model_load_failed"), Before + 1);
  EXPECT_GE(fault::FaultRegistry::instance().fires("ranker.model_load"), 1u);
}

TEST_F(RankerFaultTest, ModelLoadFaultNthSparesEarlierLoads) {
  std::string Path = tempPath("ranker_fault_nth.json");
  writeFile(Path, heuristicMimicModel().toJson());

  fault::FaultPlan Plan;
  Plan.Mode = fault::Trigger::Nth;
  Plan.N = 2;
  fault::FaultRegistry::instance().arm("ranker.model_load", Plan);

  RankerModel Out;
  std::string Error;
  EXPECT_TRUE(loadRankerModel(Path, Out, &Error)) << Error;
  EXPECT_FALSE(loadRankerModel(Path, Out, &Error));
  EXPECT_NE(Error.find("injected"), std::string::npos) << Error;
  EXPECT_TRUE(loadRankerModel(Path, Out, &Error)) << Error;
}

TEST_F(RankerFaultTest, MalformedModelFileBumpsCounterWithoutFault) {
  std::string Path = tempPath("ranker_malformed.json");
  writeFile(Path, "{\"format\": \"atmem-ranker-v1\", \"weights\": [1]}");
  uint64_t Before = counterValue("ranker.model_load_failed");
  RankerModel Out;
  std::string Error;
  EXPECT_FALSE(loadRankerModel(Path, Out, &Error));
  EXPECT_EQ(counterValue("ranker.model_load_failed"), Before + 1);
  EXPECT_FALSE(loadRankerModel(tempPath("ranker_missing.json"), Out, &Error));
  EXPECT_EQ(counterValue("ranker.model_load_failed"), Before + 2);
}

TEST_F(RankerFaultTest, ScoreFaultEveryLeavesPlacementUnchanged) {
  std::vector<ObjectProfileInput> Inputs = randomInputs(7);
  Analyzer Heuristic;
  std::vector<ObjectClassification> Plain =
      Heuristic.classifyInputs(Inputs, 1024);

  // A deliberately aggressive model (select everything) would rewrite the
  // plan — unless the injected scoring fault degrades it to a no-op.
  RankerModel SelectAll;
  SelectAll.Weights[RankerBias] = 10.0;
  AnalyzerConfig Config;
  Config.Ranker = std::make_shared<RankerModel>(SelectAll);

  fault::FaultPlan Plan;
  Plan.Mode = fault::Trigger::EveryKth;
  Plan.N = 1;
  fault::FaultRegistry::instance().arm("ranker.score", Plan);

  uint64_t Before = counterValue("ranker.score_faulted");
  Analyzer Ranked(Config);
  std::vector<ObjectClassification> Faulted =
      Ranked.classifyInputs(Inputs, 1024);
  expectIdenticalClasses(Plain, Faulted, "score fault every:1");
  EXPECT_EQ(counterValue("ranker.score_faulted"), Before + 1);

  // Sanity: with the fault disarmed the same model really does rewrite
  // the plan (the degradation above was the fault, not a dead knob).
  fault::FaultRegistry::instance().disarmAll();
  std::vector<ObjectClassification> Applied =
      Ranked.classifyInputs(Inputs, 1024);
  uint64_t SelectedAll = 0, SelectedPlain = 0;
  for (size_t I = 0; I < Applied.size(); ++I)
    for (uint32_t C = 0; C < Applied[I].numChunks(); ++C) {
      SelectedAll += Applied[I].isSelected(C);
      SelectedPlain += Plain[I].isSelected(C);
    }
  EXPECT_GT(SelectedAll, SelectedPlain);
}

TEST_F(RankerFaultTest, ScoreFaultNthReportsTypedStatusWithNoMutation) {
  std::vector<ObjectProfileInput> Inputs = randomInputs(11);
  // Need at least two objects so an nth:2 site fires mid-epoch.
  while (Inputs.size() < 2) {
    std::vector<ObjectProfileInput> More = randomInputs(Inputs.size() + 20);
    Inputs.insert(Inputs.end(), More.begin(), More.end());
  }
  Analyzer Heuristic;
  std::vector<ObjectClassification> Plain =
      Heuristic.classifyInputs(Inputs, 1024);

  std::vector<LocalSelection> Selections;
  std::vector<PromotionResult> Promotions;
  std::vector<std::vector<uint64_t>> Samples;
  std::vector<std::vector<double>> Misses;
  std::vector<uint64_t> ChunkBytes;
  for (size_t I = 0; I < Plain.size(); ++I) {
    Selections.push_back(Plain[I].Local);
    Promotions.push_back(Plain[I].Promotion);
    Samples.push_back(Inputs[I].Samples);
    Misses.push_back(Inputs[I].EstimatedMisses);
    ChunkBytes.push_back(Inputs[I].ChunkBytes);
  }
  std::vector<LocalSelection> SelectionsBefore = Selections;
  std::vector<PromotionResult> PromotionsBefore = Promotions;

  fault::FaultPlan Plan;
  Plan.Mode = fault::Trigger::Nth;
  Plan.N = 2; // Fires on the second object's scoring pass.
  fault::FaultRegistry::instance().arm("ranker.score", Plan);

  RankerModel SelectAll;
  SelectAll.Weights[RankerBias] = 10.0;
  RankerPolicy Policy(SelectAll);
  RankerApplyResult Result =
      Policy.apply(Selections, Promotions, Samples, Misses, ChunkBytes,
                   nullptr);
  EXPECT_EQ(Result.Status, RankerStatus::ScoreFaulted);
  EXPECT_STREQ(rankerStatusName(Result.Status), "score_faulted");
  EXPECT_EQ(Result.FlippedChunks, 0u);
  // Even though the first object scored cleanly, nothing was committed.
  for (size_t I = 0; I < Selections.size(); ++I) {
    EXPECT_EQ(Selections[I].Critical, SelectionsBefore[I].Critical) << I;
    EXPECT_EQ(Selections[I].CriticalCount,
              SelectionsBefore[I].CriticalCount)
        << I;
    EXPECT_EQ(Promotions[I].Promoted, PromotionsBefore[I].Promoted) << I;
    EXPECT_EQ(Promotions[I].PromotedCount,
              PromotionsBefore[I].PromotedCount)
        << I;
  }
}

TEST_F(RankerFaultTest, RuntimeSurvivesModelLoadFault) {
  std::string Path = tempPath("ranker_runtime_fault.json");
  writeFile(Path, heuristicMimicModel().toJson());

  fault::FaultPlan Plan;
  Plan.Mode = fault::Trigger::EveryKth;
  Plan.N = 1;
  fault::FaultRegistry::instance().arm("ranker.model_load", Plan);

  core::RuntimeConfig Config;
  Config.Machine = sim::nvmDramTestbed(1.0 / 1024);
  Config.Analyzer.RankerModelPath = Path;
  core::Runtime Rt(Config); // Must construct despite the injected fault.
  EXPECT_GE(counterValue("ranker.model_load_failed"), 1u);

  auto Arr = Rt.allocate<uint64_t>("survivor", 1 << 14);
  Rt.profilingStart();
  Rt.beginIteration();
  for (size_t I = 0; I < (1u << 14); ++I)
    Arr[I % 1024] += 1;
  Rt.endIteration();
  Rt.profilingStop();
  mem::MigrationResult Migration = Rt.optimize(); // Heuristic path.
  EXPECT_GE(Migration.BytesMoved, 0u);
}

//===----------------------------------------------------------------------===//
// End to end: the Runtime loads a model file and the mimic stays
// placement-identical to the plain heuristic runtime.
//===----------------------------------------------------------------------===//

namespace {

double runPlantedWorkload(const std::string &ModelPath,
                          uint64_t &MigratedBytes) {
  core::RuntimeConfig Config;
  Config.Machine = sim::nvmDramTestbed(1.0 / 1024);
  Config.Analyzer.RankerModelPath = ModelPath;
  core::Runtime Rt(Config);

  constexpr size_t Elements = 1 << 15;
  auto Arr = Rt.allocate<uint64_t>("endtoend", Elements);
  Xoshiro256 Rng(99);
  Rt.profilingStart();
  Rt.beginIteration();
  for (int I = 0; I < 120000; ++I) {
    size_t Index = Rng.nextDouble() < 0.9
                       ? Rng.nextBounded(Elements / 8)
                       : Rng.nextBounded(Elements);
    Arr[Index] += 1;
  }
  Rt.endIteration();
  Rt.profilingStop();
  mem::MigrationResult Migration = Rt.optimize();
  MigratedBytes = Migration.BytesMoved;
  return Rt.fastDataRatio();
}

} // namespace

TEST(RankerRuntimeTest, MimicModelFileKeepsPlacementIdentical) {
  std::string Path = tempPath("ranker_mimic_e2e.json");
  writeFile(Path, heuristicMimicModel().toJson());

  uint64_t PlainBytes = 0, MimicBytes = 0;
  double PlainRatio = runPlantedWorkload("", PlainBytes);
  double MimicRatio = runPlantedWorkload(Path, MimicBytes);
  EXPECT_EQ(PlainBytes, MimicBytes);
  EXPECT_EQ(PlainRatio, MimicRatio);
}
