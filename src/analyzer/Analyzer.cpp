#include "analyzer/Analyzer.h"

#include "obs/DecisionLog.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"
#include "support/Statistics.h"

#include <algorithm>
#include <cmath>
#include <utility>

using namespace atmem;
using namespace atmem::analyzer;

namespace {

/// Publishes one object's classification as telemetry gauges: the Eq. 2/3
/// threshold and its components, the Eq. 4 weight, the Eq. 5 adaptive
/// tree-ratio threshold, and the sampled-vs-estimated critical split. The
/// names are dynamic ("analyzer.obj.<object>.<field>"), so the id lookup
/// goes through the registry's name map — classify runs once per
/// optimize(), never on the access hot path.
void publishObjectMetrics(const std::string &ObjName,
                          const LocalSelection &Sel,
                          const PromotionResult &Promo) {
  double PrMax = 0.0;
  for (double PR : Sel.Priority)
    PrMax = std::max(PrMax, PR);
  const std::string Base = "analyzer.obj." + ObjName + ".";
  obs::Gauge(Base + "pr_max").set(PrMax);
  obs::Gauge(Base + "theta").set(Sel.Theta);
  obs::Gauge(Base + "theta_percentile").set(Sel.ThetaPercentile);
  obs::Gauge(Base + "theta_derivative").set(Sel.ThetaDerivative);
  obs::Gauge(Base + "theta_noise_floor").set(Sel.ThetaNoiseFloor);
  obs::Gauge(Base + "weight").set(Promo.Weight);
  obs::Gauge(Base + "tr_threshold").set(Promo.Threshold);
  obs::Gauge(Base + "chunks_sampled_critical").set(Sel.CriticalCount);
  obs::Gauge(Base + "chunks_estimated_critical").set(Promo.PromotedCount);
}

/// The decision log's global weight ranks for one epoch: 1-based,
/// descending Eq. 4 weight among the objects that carry any critical chunk
/// (W > 0), ties ranked by object order; 0 for unranked objects.
/// \p RankedObjects receives the number of ranked objects.
std::vector<uint32_t>
globalWeightRanks(const std::vector<PromotionResult> &Promotions,
                  uint32_t &RankedObjects) {
  std::vector<size_t> Order;
  for (size_t I = 0; I < Promotions.size(); ++I)
    if (Promotions[I].Weight > 0.0)
      Order.push_back(I);
  std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return Promotions[A].Weight > Promotions[B].Weight;
  });
  std::vector<uint32_t> Rank(Promotions.size(), 0);
  for (size_t R = 0; R < Order.size(); ++R)
    Rank[Order[R]] = static_cast<uint32_t>(R + 1);
  RankedObjects = static_cast<uint32_t>(Order.size());
  return Rank;
}

/// Emits one epoch's worth of decision-log records for every object: the
/// ObjectEpoch verdict (Eq. 2 components and winner, Eq. 4 weight and its
/// global rank, the Eq. 5 TR' as used) followed by one ChunkDecision per
/// informative chunk (sampled, critical, or promoted — cold chunks are
/// implied by their absence). \p GlobalFlipped marks the chunks the pooled
/// ranking stage flipped critical.
void recordDecisions(const std::vector<ObjectProfileInput> &Inputs,
                     const std::vector<LocalSelection> &Selections,
                     const std::vector<PromotionResult> &Promotions,
                     const std::vector<std::vector<uint8_t>> &GlobalFlipped,
                     uint64_t SamplePeriod) {
  obs::DecisionLog &Log = obs::DecisionLog::instance();

  uint32_t RankedObjects = 0;
  std::vector<uint32_t> Rank = globalWeightRanks(Promotions, RankedObjects);

  for (size_t I = 0; I < Inputs.size(); ++I) {
    const ObjectProfileInput &In = Inputs[I];
    const LocalSelection &Sel = Selections[I];
    const PromotionResult &Promo = Promotions[I];
    obs::ObjectEpochRecord Obj;
    Obj.Object = In.Object;
    Obj.NameId = Log.nameId(In.Name);
    Obj.NumChunks = static_cast<uint32_t>(Sel.Priority.size());
    Obj.ChunkBytes = In.ChunkBytes;
    Obj.SamplePeriod = SamplePeriod;
    Obj.Weight = Promo.Weight;
    Obj.WeightRank = Rank[I];
    Obj.RankedObjects = RankedObjects;
    Obj.TrThreshold = Promo.Threshold;
    Obj.Theta = Sel.Theta;
    Obj.ThetaPercentile = Sel.ThetaPercentile;
    Obj.ThetaDerivative = Sel.ThetaDerivative;
    Obj.ThetaNoiseFloor = Sel.ThetaNoiseFloor;
    Obj.Winner = static_cast<obs::ThetaWinner>(Sel.winningThetaTerm());
    Obj.SampledCritical = Sel.CriticalCount;
    Obj.PromotedCount = Promo.PromotedCount;
    Log.recordObject(Obj);

    const std::vector<uint64_t> &Samples = In.Samples;
    for (size_t C = 0; C < Sel.Priority.size(); ++C) {
      bool Flipped = !GlobalFlipped[I].empty() && GlobalFlipped[I][C];
      bool Critical = Sel.Critical[C] != 0;
      bool Promoted = !Promo.Promoted.empty() && Promo.Promoted[C];
      uint64_t SampleCount = C < Samples.size() ? Samples[C] : 0;
      if (SampleCount == 0 && !Critical && !Promoted)
        continue; // Cold chunk: implied by absence.
      obs::ChunkDecisionRecord Chunk;
      Chunk.Object = In.Object;
      Chunk.Chunk = static_cast<uint32_t>(C);
      Chunk.Samples = SampleCount;
      Chunk.EstimatedMisses =
          C < In.EstimatedMisses.size() ? In.EstimatedMisses[C] : 0.0;
      Chunk.Priority = Sel.Priority[C];
      if (Critical && !Flipped)
        Chunk.Flags |= obs::DecisionChunkSampledCritical;
      if (Flipped)
        Chunk.Flags |= obs::DecisionChunkGlobalRanked;
      if (Promoted)
        Chunk.Flags |= obs::DecisionChunkPromoted;
      Chunk.NodeTreeRatio =
          C < Promo.NodeTreeRatio.size() ? Promo.NodeTreeRatio[C] : 0.0;
      Log.recordChunk(Chunk);
    }
  }
}

} // namespace

std::vector<ObjectClassification>
Analyzer::classify(mem::DataObjectRegistry &Registry,
                   const prof::ProfileSource &Profiler) const {
  std::vector<const mem::DataObject *> Objects =
      std::as_const(Registry).liveObjects();
  std::vector<ObjectProfileInput> Inputs;
  Inputs.reserve(Objects.size());
  for (const mem::DataObject *Obj : Objects) {
    prof::ObjectProfile Profile = Profiler.profileFor(Obj->id());
    ObjectProfileInput In;
    In.Object = Obj->id();
    In.Name = Obj->name();
    In.ChunkBytes = Obj->chunkBytes();
    In.MappedBytes = Obj->mappedBytes();
    In.EstimatedMisses = std::move(Profile.EstimatedMisses);
    In.Samples = std::move(Profile.Samples);
    Inputs.push_back(std::move(In));
  }
  return classifyInputs(Inputs, Profiler.period());
}

std::vector<ObjectClassification>
Analyzer::classifyInputs(const std::vector<ObjectProfileInput> &Inputs,
                         uint64_t SamplePeriod) const {
  // Apply the selectivity bias to all three selection stages (the
  // Section 7.2 sensitivity sweep): the local percentile, the global
  // ranking threshold (below), and the promotion epsilon.
  LocalSelectorConfig LocalConfig = Config.Local;
  LocalConfig.PercentileN = std::clamp(
      LocalConfig.PercentileN + 40.0 * Config.SelectivityBias, 50.0, 99.5);
  LocalSelector Selector(LocalConfig);
  std::vector<ObjectClassification> Classes;

  obs::SpanScope ClassifySpan("analyzer.classify", "analyzer");

  // The flight recorder needs evidence classify() otherwise discards:
  // which chunks the global ranking flipped.
  const bool DecisionLogOn = obs::DecisionLog::enabled();
  std::vector<std::vector<uint8_t>> GlobalFlipped;

  std::vector<LocalSelection> Selections;
  Selections.reserve(Inputs.size());
  for (const ObjectProfileInput &In : Inputs)
    Selections.push_back(
        Selector.select(In.EstimatedMisses, In.ChunkBytes, SamplePeriod));
  if (DecisionLogOn)
    GlobalFlipped.resize(Selections.size());

  if (Config.UseGlobalRanking) {
    // Pool every sampled chunk's log density; a 2-means split separates
    // the globally hot cluster. Log scale keeps the power-law head of the
    // hottest object from hiding moderately hot whole objects.
    std::vector<double> PooledLog;
    for (const LocalSelection &Sel : Selections)
      for (double PR : Sel.Priority)
        if (PR > 0.0)
          PooledLog.push_back(std::log(PR));
    if (PooledLog.size() >= 2) {
      // Compare in log space: round-tripping through exp() would move
      // the threshold by an ulp and miss exactly-equal densities.
      double GlobalLogTheta = twoMeansThreshold(PooledLog);
      if (Config.SelectivityBias != 0.0) {
        auto [MinIt, MaxIt] =
            std::minmax_element(PooledLog.begin(), PooledLog.end());
        GlobalLogTheta += Config.SelectivityBias * (*MaxIt - *MinIt);
      }
      for (size_t I = 0; I < Selections.size(); ++I) {
        LocalSelection &Sel = Selections[I];
        for (size_t C = 0; C < Sel.Priority.size(); ++C)
          if (!Sel.Critical[C] && Sel.Priority[C] > 0.0 &&
              std::log(Sel.Priority[C]) >= GlobalLogTheta) {
            Sel.Critical[C] = 1;
            ++Sel.CriticalCount;
            if (DecisionLogOn) {
              if (GlobalFlipped[I].empty())
                GlobalFlipped[I].assign(Sel.Priority.size(), 0);
              GlobalFlipped[I][C] = 1;
            }
          }
      }
    }
  }

  PromoterConfig PromoterCfg = Config.Promoter;
  PromoterCfg.EpsilonOffset += Config.SelectivityBias;
  GlobalPromoter Promoter(PromoterCfg);
  std::vector<PromotionResult> Promotions;
  if (Config.EnablePromotion) {
    // Node tracing feeds the flight recorder; promotion decisions are
    // identical with it on or off.
    Promotions = Promoter.promoteAll(Selections, DecisionLogOn);
  } else {
    Promotions.resize(Selections.size());
    for (size_t I = 0; I < Selections.size(); ++I) {
      Promotions[I].Promoted.assign(Selections[I].Critical.size(), 0);
      Promotions[I].Weight = GlobalPromoter::objectWeight(Selections[I]);
    }
  }

  if (DecisionLogOn)
    recordDecisions(Inputs, Selections, Promotions, GlobalFlipped,
                    SamplePeriod);

  uint64_t SampledCritical = 0;
  uint64_t EstimatedCritical = 0;
  Classes.reserve(Inputs.size());
  for (size_t I = 0; I < Inputs.size(); ++I) {
    if (obs::enabled()) {
      publishObjectMetrics(Inputs[I].Name, Selections[I], Promotions[I]);
      SampledCritical += Selections[I].CriticalCount;
      EstimatedCritical += Promotions[I].PromotedCount;
    }
    ObjectClassification Class;
    Class.Object = Inputs[I].Object;
    Class.ChunkBytes = Inputs[I].ChunkBytes;
    Class.MappedBytes = Inputs[I].MappedBytes;
    Class.Local = std::move(Selections[I]);
    Class.Promotion = std::move(Promotions[I]);
    Classes.push_back(std::move(Class));
  }
  if (obs::enabled()) {
    static obs::Counter Runs("analyzer.runs");
    static obs::Counter Sampled("analyzer.chunks_sampled_critical");
    static obs::Counter Estimated("analyzer.chunks_estimated_critical");
    Runs.add(1);
    Sampled.add(SampledCritical);
    Estimated.add(EstimatedCritical);
    ClassifySpan.arg("objects", static_cast<double>(Inputs.size()))
        .arg("chunks_sampled_critical", static_cast<double>(SampledCritical))
        .arg("chunks_estimated_critical",
             static_cast<double>(EstimatedCritical));
  }
  return Classes;
}

PlacementPlan Analyzer::plan(mem::DataObjectRegistry &Registry,
                             const prof::ProfileSource &Profiler,
                             uint64_t BudgetBytes) const {
  return PlanBuilder::build(classify(Registry, Profiler), BudgetBytes);
}
