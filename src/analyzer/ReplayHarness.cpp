#include "analyzer/ReplayHarness.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

using namespace atmem;
using namespace atmem::analyzer;

bool atmem::analyzer::replayEpochsFromArtifact(
    const obs::DecisionArtifact &Artifact, std::vector<ReplayEpoch> &Out,
    std::string *Error) {
  auto fail = [&](const std::string &Msg) {
    if (Error)
      *Error = Msg;
    return false;
  };
  std::vector<ReplayEpoch> Epochs;
  ReplayEpoch *Current = nullptr;
  std::unordered_map<uint32_t, size_t> ObjIndex;
  for (const obs::DecisionRecord &Rec : Artifact.Records) {
    switch (Rec.Kind) {
    case obs::DecisionKind::EpochBegin: {
      Epochs.emplace_back();
      Current = &Epochs.back();
      Current->Epoch = Rec.Epoch;
      ObjIndex.clear();
      break;
    }
    case obs::DecisionKind::ObjectEpoch: {
      if (!Current)
        return fail("ObjectEpoch record before any EpochBegin");
      const obs::ObjectEpochRecord &Obj = Rec.Object;
      ObjIndex[Obj.Object] = Current->Inputs.size();
      Current->SamplePeriod = Obj.SamplePeriod;
      ObjectProfileInput In;
      In.Object = Obj.Object;
      In.Name = Artifact.name(Obj.NameId);
      In.ChunkBytes = Obj.ChunkBytes;
      In.MappedBytes =
          static_cast<uint64_t>(Obj.NumChunks) * Obj.ChunkBytes;
      In.EstimatedMisses.assign(Obj.NumChunks, 0.0);
      In.Samples.assign(Obj.NumChunks, 0);
      Current->Inputs.push_back(std::move(In));
      Current->RecordedSelected.emplace_back(Obj.NumChunks, 0);
      break;
    }
    case obs::DecisionKind::ChunkDecision: {
      if (!Current)
        return fail("ChunkDecision record before any EpochBegin");
      const obs::ChunkDecisionRecord &Chunk = Rec.Chunk;
      auto It = ObjIndex.find(Chunk.Object);
      if (It == ObjIndex.end())
        return fail("chunk record for object " +
                    std::to_string(Chunk.Object) +
                    " before its ObjectEpoch (epoch " +
                    std::to_string(Current->Epoch) + ")");
      ObjectProfileInput &In = Current->Inputs[It->second];
      if (Chunk.Chunk >= In.Samples.size())
        return fail("chunk " + std::to_string(Chunk.Chunk) +
                    " past object " + In.Name + "'s grid of " +
                    std::to_string(In.Samples.size()));
      In.Samples[Chunk.Chunk] = Chunk.Samples;
      In.EstimatedMisses[Chunk.Chunk] = Chunk.EstimatedMisses;
      if (Chunk.Flags & (obs::DecisionChunkSampledCritical |
                         obs::DecisionChunkGlobalRanked |
                         obs::DecisionChunkPromoted))
        Current->RecordedSelected[It->second][Chunk.Chunk] = 1;
      break;
    }
    default:
      break; // NameDef handled by the artifact; migrations not replayed.
    }
  }
  // Epochs with no classification records (pure migration activity or a
  // backed-off boundary) carry nothing to replay.
  Epochs.erase(std::remove_if(Epochs.begin(), Epochs.end(),
                              [](const ReplayEpoch &E) {
                                return E.Inputs.empty();
                              }),
               Epochs.end());
  Out = std::move(Epochs);
  return true;
}

namespace {

/// Per-object placed-chunk flags of one epoch's plan, keyed by object id.
using PlacedMap = std::map<mem::ObjectId, std::vector<uint8_t>>;

PlacedMap placedFromPlan(const PlacementPlan &Plan,
                         const std::vector<ObjectClassification> &Classes) {
  PlacedMap Placed;
  for (const ObjectClassification &Class : Classes)
    Placed[Class.Object].assign(Class.numChunks(), 0);
  for (const ObjectPlan &Obj : Plan.Objects) {
    std::vector<uint8_t> &Flags = Placed[Obj.Object];
    for (const mem::ChunkRange &Range : Obj.Ranges)
      for (uint32_t C = Range.FirstChunk;
           C < Range.FirstChunk + Range.NumChunks && C < Flags.size(); ++C)
        Flags[C] = 1;
  }
  return Placed;
}

/// Miss mass of \p Placed scored against \p Epoch's recorded traffic.
void scoreHitFraction(const PlacedMap &Placed, const ReplayEpoch &Epoch,
                      double &PlacedMisses, double &TotalMisses) {
  for (const ObjectProfileInput &In : Epoch.Inputs) {
    auto It = Placed.find(In.Object);
    for (size_t C = 0; C < In.EstimatedMisses.size(); ++C) {
      double Misses = In.EstimatedMisses[C];
      TotalMisses += Misses;
      if (It != Placed.end() && C < It->second.size() && It->second[C])
        PlacedMisses += Misses;
    }
  }
}

uint64_t churnBetween(const PlacedMap &Prev, const PlacedMap &Now) {
  uint64_t Churn = 0;
  for (const auto &[Object, Flags] : Now) {
    auto It = Prev.find(Object);
    for (size_t C = 0; C < Flags.size(); ++C) {
      uint8_t Was =
          It != Prev.end() && C < It->second.size() ? It->second[C] : 0;
      if (Flags[C] != Was)
        ++Churn;
    }
  }
  // Objects that vanished from the plan demote everything they had.
  for (const auto &[Object, Flags] : Prev) {
    if (Now.count(Object))
      continue;
    for (uint8_t F : Flags)
      if (F)
        ++Churn;
  }
  return Churn;
}

} // namespace

ReplayReport
atmem::analyzer::replayHeuristic(const std::vector<ReplayEpoch> &Epochs,
                                 const AnalyzerConfig &Config,
                                 uint64_t BudgetBytes) {
  ReplayReport Report;
  Report.Epochs = Epochs.size();
  Report.BudgetBytes = BudgetBytes;

  Analyzer Anal(Config);
  ReplayMetrics &Metrics = Report.Heuristic;
  PlacedMap PrevPlaced;
  double SamePlaced = 0.0, SameTotal = 0.0;
  double NextPlaced = 0.0, NextTotal = 0.0;

  for (size_t E = 0; E < Epochs.size(); ++E) {
    const ReplayEpoch &Epoch = Epochs[E];
    std::vector<ObjectClassification> Classes =
        Anal.classifyInputs(Epoch.Inputs, Epoch.SamplePeriod);

    // Drift: the replayed heuristic must reproduce the recorded selection
    // chunk for chunk.
    for (size_t I = 0; I < Classes.size(); ++I) {
      const std::vector<uint8_t> &Recorded = Epoch.RecordedSelected[I];
      for (uint32_t C = 0; C < Classes[I].numChunks(); ++C) {
        bool Was = Recorded[C] != 0;
        bool Now = Classes[I].isSelected(C);
        if (Was == Now)
          continue;
        ++Report.Drift.Mismatches;
        if (Report.Drift.First.empty()) {
          char Buf[160];
          std::snprintf(Buf, sizeof(Buf),
                        "epoch %llu obj %s chunk %u: recorded %s, "
                        "replayed %s",
                        static_cast<unsigned long long>(Epoch.Epoch),
                        Epoch.Inputs[I].Name.c_str(), C,
                        Was ? "selected" : "unselected",
                        Now ? "selected" : "unselected");
          Report.Drift.First = Buf;
        }
      }
    }

    PlacementPlan Plan = BudgetBytes > 0
                             ? PlanBuilder::build(Classes, BudgetBytes)
                             : PlanBuilder::build(Classes);
    PlacedMap Placed = placedFromPlan(Plan, Classes);
    Metrics.PlanBytes += Plan.TotalBytes;
    for (const auto &[Object, Flags] : Placed)
      for (uint8_t F : Flags)
        if (F)
          ++Metrics.PlacedChunks;
    scoreHitFraction(Placed, Epoch, SamePlaced, SameTotal);
    if (E + 1 < Epochs.size())
      scoreHitFraction(Placed, Epochs[E + 1], NextPlaced, NextTotal);
    if (E > 0)
      Metrics.ChurnChunks += churnBetween(PrevPlaced, Placed);
    PrevPlaced = std::move(Placed);
  }

  Metrics.HitFractionSame = SameTotal > 0.0 ? SamePlaced / SameTotal : 1.0;
  Metrics.HitFractionNext = NextTotal > 0.0 ? NextPlaced / NextTotal : 1.0;
  return Report;
}

std::string atmem::analyzer::replayReportText(const ReplayReport &Report) {
  std::string Out;
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf), "replay: %llu epoch(s), budget %llu bytes\n",
                static_cast<unsigned long long>(Report.Epochs),
                static_cast<unsigned long long>(Report.BudgetBytes));
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf),
                "drift (replayed heuristic vs recorded): %llu chunk(s)%s%s\n",
                static_cast<unsigned long long>(Report.Drift.Mismatches),
                Report.Drift.First.empty() ? "" : "; first: ",
                Report.Drift.First.c_str());
  Out += Buf;
  Out += "policy      hit_next  hit_same  placed_chunks   plan_bytes  "
         "churn_chunks\n";
  const ReplayMetrics &M = Report.Heuristic;
  std::snprintf(Buf, sizeof(Buf),
                "%-10s %9.6f %9.6f %14llu %12llu %13llu\n", "heuristic",
                M.HitFractionNext, M.HitFractionSame,
                static_cast<unsigned long long>(M.PlacedChunks),
                static_cast<unsigned long long>(M.PlanBytes),
                static_cast<unsigned long long>(M.ChurnChunks));
  Out += Buf;
  return Out;
}

std::string atmem::analyzer::replayReportJson(const ReplayReport &Report) {
  const ReplayMetrics &M = Report.Heuristic;
  char Buf[512];
  std::snprintf(
      Buf, sizeof(Buf),
      "{\n  \"format\": \"atmem-replay-v1\",\n"
      "  \"epochs\": %llu,\n  \"budget_bytes\": %llu,\n"
      "  \"drift_chunks\": %llu,\n"
      "  \"heuristic\": {\"hit_fraction_next\": %.17g, "
      "\"hit_fraction_same\": %.17g, \"placed_chunks\": %llu, "
      "\"plan_bytes\": %llu, \"churn_chunks\": %llu}\n}\n",
      static_cast<unsigned long long>(Report.Epochs),
      static_cast<unsigned long long>(Report.BudgetBytes),
      static_cast<unsigned long long>(Report.Drift.Mismatches),
      M.HitFractionNext, M.HitFractionSame,
      static_cast<unsigned long long>(M.PlacedChunks),
      static_cast<unsigned long long>(M.PlanBytes),
      static_cast<unsigned long long>(M.ChurnChunks));
  return Buf;
}
