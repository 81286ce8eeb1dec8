//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The complete ATMem analyzer: hybrid local selection followed by
/// tree-based global promotion, producing a budget-constrained placement
/// plan (paper Section 3's middle component).
///
//===----------------------------------------------------------------------===//

#ifndef ATMEM_ANALYZER_ANALYZER_H
#define ATMEM_ANALYZER_ANALYZER_H

#include "analyzer/GlobalPromoter.h"
#include "analyzer/LocalSelector.h"
#include "analyzer/PlacementPlan.h"
#include "mem/DataObjectRegistry.h"
#include "profiler/ProfileSource.h"

#include <string>
#include <vector>

namespace atmem {
namespace analyzer {

/// Registry-independent classification input for one object: everything
/// the analyzer needs, decoupled from live DataObject / ProfileSource
/// instances. classify() builds these from the registry and profiler;
/// the replay harness (ReplayHarness.h) reconstructs them from recorded
/// atdl decision logs, so both paths run the identical pipeline.
struct ObjectProfileInput {
  mem::ObjectId Object = 0;
  std::string Name;
  uint64_t ChunkBytes = 0;
  uint64_t MappedBytes = 0;
  /// The profiler's per-chunk unbiased miss estimates (Eq. 1 numerator).
  std::vector<double> EstimatedMisses;
  /// Raw per-chunk sample hits (flight-recorder evidence).
  std::vector<uint64_t> Samples;
};

/// Analyzer configuration: both stages plus plan constraints.
struct AnalyzerConfig {
  LocalSelectorConfig Local;
  PromoterConfig Promoter;
  /// Disables the promotion stage entirely (sampled selection only); used
  /// by the ablation baseline.
  bool EnablePromotion = true;
  /// Global relative ranking across objects (Section 3): chunk priorities
  /// are byte-normalized (Eq. 1) exactly so they compare across objects;
  /// a pooled two-cluster split of all chunks' log densities adds any
  /// chunk in the globally hot cluster to the sampled selection, even if
  /// its own object's local percentile missed it (e.g. a small, uniformly
  /// hot vertex-property array next to a huge edge array).
  bool UseGlobalRanking = true;
  /// The Section 7.2 sweep knob: biases every selection threshold at
  /// once. Positive values tighten the local percentile, raise the
  /// global ranking threshold, and raise the tree-ratio epsilon (less
  /// data placed); negative values loosen all three (more data placed).
  /// Zero is ATMem's autonomous operating point.
  double SelectivityBias = 0.0;
};

/// Runs the two analyzer stages over the profiler's results.
class Analyzer {
public:
  explicit Analyzer(AnalyzerConfig Config = {}) : Config(Config) {}

  /// Classifies every live object of \p Registry from \p Profiler's
  /// miss estimates. Works with any ProfileSource: the online sampling
  /// profiler or a trace-driven offline profiler; the source's period()
  /// feeds Eq. 2's noise floor.
  std::vector<ObjectClassification>
  classify(mem::DataObjectRegistry &Registry,
           const prof::ProfileSource &Profiler) const;

  /// The registry-independent pipeline behind classify(): local selection
  /// (Eq. 1-3), pooled global ranking, tree promotion (Eq. 4-5), and
  /// flight-recorder emission, over plain per-object inputs. classify()
  /// delegates here; the replay harness calls it directly on inputs
  /// reconstructed from a decision log. \p SamplePeriod is the profiler's
  /// final sampling period (Eq. 2 noise floor).
  std::vector<ObjectClassification>
  classifyInputs(const std::vector<ObjectProfileInput> &Inputs,
                 uint64_t SamplePeriod) const;

  /// Classifies and builds a plan fitting \p BudgetBytes on the fast tier.
  PlacementPlan plan(mem::DataObjectRegistry &Registry,
                     const prof::ProfileSource &Profiler,
                     uint64_t BudgetBytes) const;

  const AnalyzerConfig &config() const { return Config; }
  AnalyzerConfig &config() { return Config; }

private:
  AnalyzerConfig Config;
};

} // namespace analyzer
} // namespace atmem

#endif // ATMEM_ANALYZER_ANALYZER_H
