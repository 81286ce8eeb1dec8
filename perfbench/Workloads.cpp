//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Workload definitions and the experiment loop. Every call into a
/// library layer goes through SpanRecorder::time, so the same code yields
/// the end-to-end timings (untraced) and the per-layer spans (traced).
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "analyzer/Analyzer.h"
#include "apps/Kernel.h"
#include "apps/Kernels.h"
#include "apps/Reference.h"
#include "baseline/Experiment.h"
#include "core/Runtime.h"
#include "graph/Generators.h"
#include "obs/DecisionLog.h"
#include "obs/Export.h"
#include "obs/Telemetry.h"
#include "obs/TimeSeries.h"
#include "obs/Trace.h"
#include "sim/MachineConfig.h"
#include "support/BuildInfo.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>
#include <tuple>

using namespace atmem;
using baseline::Policy;

namespace perfbench {
namespace {

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

/// Shape of one paper dataset, as graph/Datasets.cpp defines it: paper
/// vertex count, average degree, generator, power-law exponent, and the
/// dataset's fixed seed. Workload seed 0 reproduces the figure benches'
/// graphs exactly; any other seed gives a fresh graph of the same shape.
struct GraphShape {
  const char *Name;
  double Vertices;
  double AvgDegree;
  bool IsRmat;
  double Gamma;
  uint64_t DatasetSeed;
};

constexpr GraphShape Rmat24Shape{"rmat24", 16.8e6, 16.0, true, 0.0, 0xA02};
constexpr GraphShape TwitterShape{"twitter", 41.7e6, 36.0, false, 1.9, 0xA03};

uint64_t graphSeed(uint64_t DatasetSeed, uint64_t WorkloadSeed) {
  return DatasetSeed ^ (WorkloadSeed * 0x9E3779B97F4A7C15ull);
}

graph::CsrGraph generate(const GraphShape &Shape, double Divisor,
                         uint64_t WorkloadSeed) {
  // Same down-scaling rule as graph::makeDataset.
  uint32_t Vertices =
      std::max<uint32_t>(static_cast<uint32_t>(Shape.Vertices / Divisor), 1024);
  if (Shape.IsRmat) {
    graph::RmatParams Params;
    Params.Scale = std::max<uint32_t>(
        static_cast<uint32_t>(std::lround(std::log2(Vertices))), 10);
    Params.EdgeFactor = Shape.AvgDegree;
    Params.Seed = graphSeed(Shape.DatasetSeed, WorkloadSeed);
    return graph::generateRmat(Params);
  }
  graph::PowerLawParams Params;
  Params.NumVertices = Vertices;
  Params.AverageDegree = Shape.AvgDegree;
  Params.Gamma = Shape.Gamma;
  Params.Seed = graphSeed(Shape.DatasetSeed, WorkloadSeed);
  return graph::generatePowerLaw(Params);
}

//===----------------------------------------------------------------------===//
// Workload specs
//===----------------------------------------------------------------------===//

struct GraphSpec {
  const GraphShape *Shape;
  double Divisor;
};

/// One experiment (or adaptive session) of a pass.
struct ConfigSpec {
  size_t Graph = 0;
  std::string Kernel;
  Policy Pol = Policy::Atmem;
  /// Leading iterations; under an ATMem policy each is a profile ->
  /// iteration -> optimize epoch.
  uint32_t Epochs = 1;
  /// Plain iterations after the epochs, with caches warm.
  uint32_t Measured = 1;
  /// Replay TLB attached for the measured iterations only.
  bool TlbMeasured = false;
  /// Replay TLB attached from the first iteration on.
  bool TlbAlways = false;
};

struct WorkloadSpec {
  std::vector<GraphSpec> Graphs;
  sim::MachineConfig Machine;
  uint32_t SimThreads = 1;
  /// Decision-log ring, time series and health log write to disk.
  bool Sinks = false;
  uint32_t SetupReps = 3;
  std::vector<ConfigSpec> Configs;
};

WorkloadSpec makeSpec(const std::string &Name, bool Tiny) {
  const double Paper = Tiny ? 16384.0 : 256.0;
  const double Small = Tiny ? 16384.0 : 1024.0;
  WorkloadSpec W;
  W.SetupReps = Tiny ? 1 : 3;
  if (Name == "paper-nvm-serial") {
    W.Graphs = {{&Rmat24Shape, Paper}, {&TwitterShape, Paper}};
    W.Machine = sim::nvmDramTestbed(1.0 / Paper);
    for (size_t G = 0; G < W.Graphs.size(); ++G)
      for (const char *K : {"bfs", "pr", "cc"})
        for (Policy P : {Policy::AllSlow, Policy::Atmem, Policy::AllFast}) {
          ConfigSpec C;
          C.Graph = G;
          C.Kernel = K;
          C.Pol = P;
          W.Configs.push_back(C);
        }
  } else if (Name == "adaptive-sharded") {
    W.Graphs = {{&Rmat24Shape, Small}};
    W.Machine = sim::nvmDramTestbed(1.0 / Small);
    W.SimThreads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    W.Sinks = true;
    for (const char *K : {"bfs", "pr"}) {
      ConfigSpec C;
      C.Kernel = K;
      C.Epochs = Tiny ? 4 : 40;
      C.Measured = 0;
      C.TlbAlways = true;
      W.Configs.push_back(C);
    }
  } else if (Name == "mcdram-mbind-tlb") {
    // The twitter-shaped graph's arrays (~27 MB at 1/256) exceed the
    // scaled MCDRAM (16 GiB / 256 / 3 derate = ~21 MB). The telemetry
    // sinks are on here too: it is the steadiest workload with epochs.
    // One measured iteration keeps passes short, so a run holds many
    // epochs (one per experiment) to take medians over.
    W.Graphs = {{&TwitterShape, Paper}};
    W.Machine = sim::mcdramDramTestbed(1.0 / Paper);
    W.Sinks = true;
    for (Policy P : {Policy::Atmem, Policy::AtmemMbind}) {
      ConfigSpec C;
      C.Kernel = "pr";
      C.Pol = P;
      C.Measured = 1;
      C.TlbMeasured = true;
      W.Configs.push_back(C);
    }
  }
  return W;
}

core::RuntimeConfig runtimeConfig(const WorkloadSpec &W, Policy P) {
  core::RuntimeConfig C;
  C.Machine = W.Machine;
  C.SimThreads = W.SimThreads;
  if (P == Policy::AllFast)
    C.Placement = mem::InitialPlacement::Fast;
  else if (P == Policy::AtmemMbind)
    C.Mechanism = core::MigrationMechanism::Mbind;
  return C;
}

//===----------------------------------------------------------------------===//
// Measurements
//===----------------------------------------------------------------------===//

/// Simulated outputs of one experiment; checked for repeatability and
/// compared across policies.
struct Outcome {
  uint64_t Checksum = 0;
  uint32_t Iterations = 0;
  /// Mean simulated seconds of the measured iterations (of the last
  /// epoch's iteration when there are none).
  double SimSec = 0.0;
  uint64_t TlbMisses = 0;
  double MigrationSimSec = 0.0;
  uint64_t HugePagesSplit = 0;
};

/// Host-time samples of one experiment configuration, over the passes.
/// Iterations and epochs are kept apart by position: [0] holds the first
/// one of an experiment (cold caches, all data still on its initial
/// tier), [1] the later ones (caches warm).
struct ConfigSamples {
  std::vector<double> SetupSec, BodySec;
  std::vector<double> IterMs[2], EpochMs[2];
  uint64_t Accesses = 0;
};

/// Everything the metrics are derived from, summed over a run's passes.
struct Stats {
  std::vector<ConfigSamples> Configs;
  /// The configuration being run.
  ConfigSamples *Cur = nullptr;
  std::vector<double> PassRunSec, GenSec;
  /// Per pass: whether the telemetry sinks were on.
  std::vector<bool> PassSinksOn;
  uint64_t GenEdges = 0;
  double CtorSec = 0.0, KernelSetupSec = 0.0;
  double EndIterSec = 0.0;
  uint64_t EndIterCount = 0;
  double OptimizeSec = 0.0;
  uint64_t OptimizeCount = 0;
  double ClassifySec = 0.0;
  uint64_t ClassifyCount = 0, Chunks = 0, CriticalChunks = 0;
  uint64_t ProfSamples = 0, ProfMisses = 0, ProfEpochs = 0;
  double ProfPeriodSum = 0.0;
  uint64_t BytesMoved = 0, BytesMovedLater = 0, Ranges = 0;
  uint64_t MigrationEpochs = 0;
  /// Simulated access statistics of the tracked iterations.
  uint64_t SimHits = 0, SimMissFast = 0, SimMissSlow = 0;
  uint64_t TlbIters = 0, TlbMisses = 0;
  /// Traced-only differential measurements.
  double TrackedRunSec = 0.0, ComputeSec = 0.0;
  uint64_t TrackedAccesses = 0, ComputeCount = 0;
  double TlbOnSec = 0.0, TlbOffSec = 0.0;
  uint64_t TlbDiffCount = 0;
  double ProfOnSec = 0.0, ProfOffSec = 0.0;
  uint64_t ProfDiffCount = 0;
  std::vector<double> EpochMsSinksOn, EpochMsSinksOff;
  uint64_t SinkBytes = 0, SinkEpochs = 0;
};

double percentile(std::vector<double> V, double Pct) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Pct / 100.0 * static_cast<double>(V.size() - 1);
  auto Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double median(const std::vector<double> &V) { return percentile(V, 50.0); }

double ratio(double Num, double Den) { return Den == 0.0 ? 0.0 : Num / Den; }

uint64_t directoryBytes(const std::string &Dir) {
  uint64_t Bytes = 0;
  std::error_code Ec;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir, Ec))
    if (Entry.is_regular_file(Ec))
      Bytes += Entry.file_size(Ec);
  return Bytes;
}

/// Cumulative (steal, total) ticks of all CPUs from /proc/stat; zeros
/// where the file is unavailable.
std::pair<uint64_t, uint64_t> cpuStealTicks() {
  std::FILE *F = std::fopen("/proc/stat", "r");
  if (!F)
    return {0, 0};
  unsigned long long V[8] = {};
  int Read = std::fscanf(F, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                         &V[0], &V[1], &V[2], &V[3], &V[4], &V[5], &V[6],
                         &V[7]);
  std::fclose(F);
  if (Read != 8)
    return {0, 0};
  uint64_t Total = 0;
  for (unsigned long long X : V)
    Total += X;
  return {V[7], Total};
}

/// Marks the run incorrect and records why.
void recordFailure(Report &R, const std::string &What) {
  R.Correct = false;
  ++R.Failed;
  R.Notes.push_back("check FAILED: " + What);
}

//===----------------------------------------------------------------------===//
// Runner
//===----------------------------------------------------------------------===//

class Runner {
public:
  Runner(const Options &Opts, SpanRecorder &Rec, const WorkloadSpec &W,
         const std::vector<graph::CsrGraph> &Graphs, Stats &S, Report &R)
      : Opts(Opts), Rec(Rec), W(W), Graphs(Graphs), S(S), R(R) {}

  /// Runs one experiment. Returns its simulated outcome; timings land in
  /// the Stats. \p SetupSec / \p BodySec receive the host seconds of its
  /// set-up (Runtime constructor + Kernel::setup) and of the rest.
  Outcome run(const ConfigSpec &C, bool SinksOn, bool VerifyReference,
              double &SetupSec, double &BodySec);

private:
  /// One tracked iteration (\p Warm: not the experiment's first); \p RunSec
  /// receives the runIteration time.
  double iteration(core::Runtime &Rt, apps::Kernel &K, bool Warm,
                   double &SimSec, double &RunSec);
  void extras(const ConfigSpec &C, core::Runtime &Rt, apps::Kernel &K,
              double LastRunSec, uint64_t LastAccesses, sim::Tlb *Tlb);
  void verifyReference(const ConfigSpec &C, apps::Kernel &K,
                       uint32_t Iterations);
  void fail(const std::string &What) { recordFailure(R, What); }

  const Options &Opts;
  SpanRecorder &Rec;
  const WorkloadSpec &W;
  const std::vector<graph::CsrGraph> &Graphs;
  Stats &S;
  Report &R;
  uint64_t Sessions = 0;
};

double Runner::iteration(core::Runtime &Rt, apps::Kernel &K, bool Warm,
                         double &SimSec, double &RunSec) {
  double EndSec = 0.0;
  double Sec = Rec.time("iteration", [&] {
    Rec.time("runtime.beginIteration", [&] { Rt.beginIteration(); });
    RunSec = Rec.time("apps.runIteration", [&] { K.runIteration(); });
    EndSec = Rec.time("runtime.endIteration",
                      [&] { SimSec = Rt.endIteration(); });
  });
  const sim::AccessStats &A = Rt.iterationStats();
  S.Cur->IterMs[Warm].push_back(Sec * 1e3);
  S.Cur->Accesses += A.Accesses;
  S.EndIterSec += EndSec;
  ++S.EndIterCount;
  S.SimHits += A.LlcHits;
  S.SimMissFast += A.TierMisses[sim::tierIndex(sim::TierId::Fast)];
  S.SimMissSlow += A.TierMisses[sim::tierIndex(sim::TierId::Slow)];
  return Sec;
}

Outcome Runner::run(const ConfigSpec &C, bool SinksOn, bool VerifyReference,
                    double &SetupSec, double &BodySec) {
  const graph::CsrGraph &G = Graphs[C.Graph];
  const bool Atmem = baseline::policyUsesAtmem(C.Pol);
  Rec.newGroup();

  core::RuntimeConfig Config = runtimeConfig(W, C.Pol);
  std::string SinkDir;
  if (SinksOn) {
    SinkDir = Opts.ScratchDir + "/sinks-" + std::to_string(++Sessions);
    std::filesystem::create_directories(SinkDir);
    Config.Telemetry.DecisionLogRingPath = SinkDir + "/decisions.atdr";
    Config.Telemetry.RingSegmentBytes = 256 << 10;
    Config.Telemetry.RingMaxBytes = 1 << 20;
    Config.Telemetry.TimeSeriesPath = SinkDir + "/timeseries.jsonl";
    Config.Telemetry.HealthLogPath = SinkDir + "/health.jsonl";
  }

  std::unique_ptr<core::Runtime> Rt;
  std::unique_ptr<apps::Kernel> K = apps::makeKernel(C.Kernel);
  double CtorSec = Rec.time("core.Runtime", [&] {
    Rt = std::make_unique<core::Runtime>(Config);
  });
  double KSetupSec =
      Rec.time("apps.Kernel::setup", [&] { K->setup(*Rt, G); });
  S.CtorSec += CtorSec;
  S.KernelSetupSec += KSetupSec;
  SetupSec = CtorSec + KSetupSec;

  Outcome Out;
  sim::Tlb Tlb = Rt->machine().makeTlb();
  double ExtraSec = 0.0;
  double LastRunSec = 0.0;
  double Start = Rec.now();
  if (C.TlbAlways)
    Rt->setReplayTlb(&Tlb);

  for (uint32_t E = 0; E < C.Epochs; ++E) {
    if (C.Epochs > 1)
      Rec.newGroup();
    double SimSec = 0.0;
    if (!Atmem) {
      iteration(*Rt, *K, E > 0, SimSec, LastRunSec);
      Out.SimSec = SimSec;
      continue;
    }
    double ClassifySec = 0.0;
    mem::MigrationResult Mig;
    double EpochSec = Rec.time("epoch", [&] {
      Rec.time("runtime.profilingStart", [&] { Rt->profilingStart(); });
      iteration(*Rt, *K, E > 0, SimSec, LastRunSec);
      Rec.time("runtime.profilingStop", [&] { Rt->profilingStop(); });
      const prof::SamplingProfiler &P = Rt->profiler();
      S.ProfSamples += P.sampleCount();
      S.ProfMisses += P.missesSeen();
      S.ProfPeriodSum += static_cast<double>(P.period());
      ++S.ProfEpochs;
      // Analyzer::classify is const, but with the decision log open it
      // emits records, so the separate timing call only runs without it.
      if (Rec.enabled() && !obs::DecisionLog::enabled()) {
        std::vector<analyzer::ObjectClassification> Classes;
        ClassifySec = Rec.time("analyzer.classify", [&] {
          analyzer::Analyzer A(Rt->config().Analyzer);
          Classes = A.classify(Rt->registry(), Rt->profiler());
        });
        S.ClassifySec += ClassifySec;
        ++S.ClassifyCount;
        for (const analyzer::ObjectClassification &Cls : Classes)
          for (uint32_t Chunk = 0; Chunk < Cls.numChunks(); ++Chunk) {
            ++S.Chunks;
            S.CriticalChunks += Cls.isSelected(Chunk);
          }
      }
      S.OptimizeSec += Rec.time("runtime.optimize",
                                [&] { Mig = Rt->optimize(); });
      ++S.OptimizeCount;
    });
    ExtraSec += ClassifySec;
    double EpochMs = (EpochSec - ClassifySec) * 1e3;
    S.Cur->EpochMs[E > 0].push_back(EpochMs);
    if (Rec.enabled())
      (SinksOn ? S.EpochMsSinksOn : S.EpochMsSinksOff).push_back(EpochMs);
    S.BytesMoved += Mig.BytesMoved;
    if (E > 0)
      S.BytesMovedLater += Mig.BytesMoved;
    S.Ranges += Mig.Ranges;
    ++S.MigrationEpochs;
    Out.MigrationSimSec += Mig.SimSeconds;
    Out.HugePagesSplit += Mig.HugePagesSplit;
    Out.SimSec = SimSec;
  }

  if (C.TlbMeasured)
    Rt->setReplayTlb(&Tlb);
  double SimSum = 0.0;
  for (uint32_t I = 0; I < C.Measured; ++I) {
    double SimSec = 0.0;
    iteration(*Rt, *K, C.Epochs + I > 0, SimSec, LastRunSec);
    SimSum += SimSec;
  }
  if (C.Measured > 0)
    Out.SimSec = SimSum / C.Measured;
  Out.Iterations = C.Epochs + C.Measured;
  if (C.TlbMeasured || C.TlbAlways) {
    Out.TlbMisses = Tlb.misses();
    S.TlbMisses += Tlb.misses();
    S.TlbIters += C.TlbMeasured ? C.Measured : Out.Iterations;
  }
  Out.Checksum = K->checksum();
  if (SinksOn) {
    Rec.time("obs.export", [&] {
      if (!obs::exportIfConfigured(Config.Telemetry))
        fail("telemetry export to " + SinkDir);
    });
  }
  BodySec = Rec.now() - Start - ExtraSec;

  if (SinksOn) {
    S.SinkBytes += directoryBytes(SinkDir);
    S.SinkEpochs += C.Epochs;
    std::filesystem::remove_all(SinkDir);
    obs::setEnabled(false);
    obs::TimeSeries::instance().setEnabled(false);
    obs::TimeSeries::instance().clear();
    obs::Tracer::instance().clear();
  }
  if (VerifyReference)
    verifyReference(C, *K, Out.Iterations);
  if (Rec.enabled())
    extras(C, *Rt, *K, LastRunSec, Rt->iterationStats().Accesses,
           C.TlbMeasured || C.TlbAlways ? &Tlb : nullptr);
  Rt->setReplayTlb(nullptr);
  return Out;
}

/// Differential measurements of a traced run, made after the outputs
/// were captured so they cannot disturb them.
void Runner::extras(const ConfigSpec &C, core::Runtime &Rt, apps::Kernel &K,
                    double LastRunSec, uint64_t LastAccesses,
                    sim::Tlb *Tlb) {
  // Kernel compute alone: the same iteration with tracking off.
  Rt.setTrackingEnabled(false);
  S.ComputeSec += Rec.time("extra.untracked", [&] { K.runIteration(); });
  Rt.setTrackingEnabled(true);
  S.TrackedRunSec += LastRunSec;
  S.TrackedAccesses += LastAccesses;
  ++S.ComputeCount;
  // A whole iteration kept out of the workload's samples.
  auto Iterate = [&](const char *Name) {
    return Rec.time(Name, [&] {
      Rt.beginIteration();
      K.runIteration();
      Rt.endIteration();
    });
  };
  if (Tlb) {
    Rt.setReplayTlb(nullptr);
    S.TlbOffSec += Iterate("extra.tlb_off");
    Rt.setReplayTlb(Tlb);
    S.TlbOnSec += Iterate("extra.tlb_on");
    ++S.TlbDiffCount;
  }
  if (baseline::policyUsesAtmem(C.Pol)) {
    S.ProfOffSec += Iterate("extra.unprofiled");
    Rt.profilingStart();
    S.ProfOnSec += Iterate("extra.profiled");
    Rt.profilingStop();
    ++S.ProfDiffCount;
  }
}

void Runner::verifyReference(const ConfigSpec &C, apps::Kernel &K,
                             uint32_t Iterations) {
  const graph::CsrGraph &G = Graphs[C.Graph];
  ++R.Attempted;
  if (auto *Bfs = dynamic_cast<apps::BfsKernel *>(&K)) {
    std::vector<int32_t> Expected = apps::referenceBfs(G, Bfs->source());
    const int32_t *Got = Bfs->levels().raw();
    for (uint32_t V = 0; V < G.numVertices(); ++V)
      if (Got[V] != Expected[V])
        return fail("bfs levels differ from apps::referenceBfs at vertex " +
                    std::to_string(V));
    R.Notes.push_back("check ok: bfs levels == apps::referenceBfs");
  } else if (auto *Pr = dynamic_cast<apps::PageRankKernel *>(&K)) {
    std::vector<float> Expected = apps::referencePageRank(G, Iterations);
    const float *Got = Pr->ranks().raw();
    for (uint32_t V = 0; V < G.numVertices(); ++V)
      if (std::fabs(Got[V] - Expected[V]) > 1e-4f * std::fabs(Expected[V]) +
                                                1e-9f)
        return fail("pr ranks differ from apps::referencePageRank at vertex " +
                    std::to_string(V));
    R.Notes.push_back("check ok: pr ranks == apps::referencePageRank (" +
                      std::to_string(Iterations) + " iterations)");
  }
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

/// Percentiles of host times that come in groups (one per configuration
/// and position) whose typical times differ several-fold: graphs, kernels,
/// cold and warm iterations. Pooled raw, a percentile can fall into the
/// gap between two such modes and jump from run to run. Instead each
/// sample is divided by its group's median. The P-th percentile is the
/// geometric mean of the group medians, weighted by group size, times the
/// P-th percentile of the pooled ratios over their median: P=50 is the
/// typical sample's scale, and a tail percentile draws on every sample.
class Spread {
public:
  void add(const std::vector<double> &Group) {
    if (Group.empty())
      return;
    double M = median(Group);
    LogMedianSum += std::log(M) * static_cast<double>(Group.size());
    ++Groups;
    for (double X : Group)
      Ratios.push_back(X / M);
  }
  double percentile(double Pct) const {
    if (Ratios.empty())
      return 0.0;
    return std::exp(LogMedianSum / static_cast<double>(Ratios.size())) *
           perfbench::percentile(Ratios, Pct) /
           perfbench::percentile(Ratios, 50.0);
  }
  size_t samples() const { return Ratios.size(); }
  size_t groups() const { return Groups; }

private:
  double LogMedianSum = 0.0;
  size_t Groups = 0;
  std::vector<double> Ratios;
};

/// The simulated-result metrics of Table 4 and Figure 5, from the first
/// pass. Zero when the workload lacks the policies a metric compares.
struct SimMetrics {
  double Gain = 0.0, SlowdownVsFast = 0.0, TlbReduction = 0.0,
         MigrationSpeedup = 0.0;
};

SimMetrics simMetrics(const WorkloadSpec &W,
                      const std::vector<Outcome> &First) {
  // (graph, kernel) -> policy -> outcome.
  std::map<std::pair<size_t, std::string>, std::map<Policy, const Outcome *>>
      ByPair;
  for (size_t I = 0; I < W.Configs.size(); ++I)
    ByPair[{W.Configs[I].Graph, W.Configs[I].Kernel}][W.Configs[I].Pol] =
        &First[I];
  std::vector<double> Gain, Slowdown, Tlb, Migration;
  for (const auto &[Pair, ByPolicy] : ByPair) {
    auto Find = [&](Policy P) -> const Outcome * {
      auto It = ByPolicy.find(P);
      return It == ByPolicy.end() ? nullptr : It->second;
    };
    const Outcome *Slow = Find(Policy::AllSlow), *Fast = Find(Policy::AllFast),
                  *Atm = Find(Policy::Atmem), *Mb = Find(Policy::AtmemMbind);
    if (Atm && Slow)
      Gain.push_back(Slow->SimSec / Atm->SimSec);
    if (Atm && Fast)
      Slowdown.push_back(Atm->SimSec / Fast->SimSec);
    if (Atm && Mb && Atm->TlbMisses > 0)
      Tlb.push_back(static_cast<double>(Mb->TlbMisses) /
                    static_cast<double>(Atm->TlbMisses));
    if (Atm && Mb && Atm->MigrationSimSec > 0.0)
      Migration.push_back(Mb->MigrationSimSec / Atm->MigrationSimSec);
  }
  SimMetrics M;
  M.Gain = geomean(Gain);
  M.SlowdownVsFast = Slowdown.empty() ? 0.0 : geomean(Slowdown) - 1.0;
  M.TlbReduction = geomean(Tlb);
  M.MigrationSpeedup = geomean(Migration);
  return M;
}

/// Checks that need every experiment's outcome: equal checksums across
/// policies at equal iteration counts, and the sharded engine against the
/// serial one.
void crossChecks(const WorkloadSpec &W,
                 const std::vector<graph::CsrGraph> &Graphs,
                 const std::vector<Outcome> &First, Report &R) {
  std::map<std::tuple<size_t, std::string, uint32_t>, std::vector<size_t>>
      Groups;
  for (size_t I = 0; I < W.Configs.size(); ++I)
    Groups[{W.Configs[I].Graph, W.Configs[I].Kernel, First[I].Iterations}]
        .push_back(I);
  for (const auto &[Key, Members] : Groups) {
    if (Members.size() < 2)
      continue;
    ++R.Attempted;
    const std::string &Kernel = std::get<1>(Key);
    bool Same = true;
    for (size_t I : Members)
      Same &= First[I].Checksum == First[Members[0]].Checksum;
    if (Same) {
      R.Notes.push_back("check ok: " + Kernel + " checksum " +
                        std::to_string(First[Members[0]].Checksum) +
                        " equal across " + std::to_string(Members.size()) +
                        " policies");
    } else {
      recordFailure(R, Kernel + " checksums differ across policies");
    }
  }
  if (W.SimThreads <= 1)
    return;
  for (size_t I = 0; I < W.Configs.size(); ++I) {
    const ConfigSpec &C = W.Configs[I];
    ++R.Attempted;
    core::RuntimeConfig Serial = runtimeConfig(W, C.Pol);
    Serial.SimThreads = 1;
    core::Runtime Rt(Serial);
    std::unique_ptr<apps::Kernel> K = apps::makeKernel(C.Kernel);
    K->setup(Rt, Graphs[C.Graph]);
    Rt.setTrackingEnabled(false);
    for (uint32_t It = 0; It < First[I].Iterations; ++It)
      K->runIteration();
    std::string What = C.Kernel + " checksum after " +
                       std::to_string(First[I].Iterations) +
                       " iterations, " + std::to_string(W.SimThreads) +
                       " sim threads vs serial engine";
    if (K->checksum() == First[I].Checksum) {
      R.Notes.push_back("check ok: " + What + ": " +
                        std::to_string(K->checksum()));
    } else {
      recordFailure(R, What + ": " + std::to_string(First[I].Checksum) +
                           " vs " + std::to_string(K->checksum()));
    }
  }
}

/// Outputs of a later pass must repeat the first pass's exactly; on the
/// serial engine that includes every simulated result.
bool samePassOutcome(const Outcome &A, const Outcome &B, bool Serial) {
  if (A.Checksum != B.Checksum || A.Iterations != B.Iterations)
    return false;
  return !Serial ||
         (A.SimSec == B.SimSec && A.TlbMisses == B.TlbMisses &&
          A.MigrationSimSec == B.MigrationSimSec &&
          A.HugePagesSplit == B.HugePagesSplit);
}

std::string fmt(const char *Format, double Value) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), Format, Value);
  return Buf;
}

} // namespace

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {
      "paper-nvm-serial", "adaptive-sharded", "mcdram-mbind-tlb"};
  return Names;
}

Report runWorkload(const Options &Opts, SpanRecorder &Rec) {
  Report R;
  Stats S;
  const WorkloadSpec W = makeSpec(Opts.Workload, Opts.Tiny);
  R.SimThreads = W.SimThreads;
  // The serial engine runs on one thread, so its process CPU time is its
  // elapsed time minus the time the shared host gave its core to others
  // (steal), which varies from run to run. The sharded engine's threads
  // wait for each other, so only elapsed time measures it. Spans of a
  // traced run are intervals on the wall clock: inside optimize the
  // migrator's copy threads run at once, and the CPU time of a span would
  // exceed its interval.
  Rec.setClock(W.SimThreads == 1 && !Opts.Trace ? ClockKind::ProcessCpu
                                                 : ClockKind::Wall);

  // Set-up: the workload's graphs, generated SetupReps times from the
  // seed. The first set is kept; the others must equal it.
  std::vector<graph::CsrGraph> Graphs;
  for (uint32_t Rep = 0; Rep < W.SetupReps; ++Rep) {
    Rec.newGroup();
    std::vector<graph::CsrGraph> Set;
    S.GenSec.push_back(Rec.time("setup.graphs", [&] {
      for (const GraphSpec &G : W.Graphs)
        Rec.time(G.Shape->IsRmat ? "graph.generateRmat"
                                 : "graph.generatePowerLaw",
                 [&] {
                   Set.push_back(generate(*G.Shape, G.Divisor, Opts.Seed));
                 });
    }));
    if (Rep == 0) {
      Graphs = std::move(Set);
      for (size_t I = 0; I < Graphs.size(); ++I) {
        S.GenEdges += Graphs[I].numEdges();
        R.Notes.push_back("graph " + std::string(W.Graphs[I].Shape->Name) +
                          " shape at 1/" + fmt("%.0f", W.Graphs[I].Divisor) +
                          ": " + std::to_string(Graphs[I].numVertices()) +
                          " vertices, " +
                          std::to_string(Graphs[I].numEdges()) + " edges");
      }
      continue;
    }
    ++R.Attempted;
    for (size_t I = 0; I < Graphs.size(); ++I)
      if (Set[I].rowOffsets() != Graphs[I].rowOffsets() ||
          Set[I].cols() != Graphs[I].cols()) {
        recordFailure(R, "graph generation is not repeatable");
        break;
      }
  }

  // Measurement: whole passes over the experiment matrix until the time
  // is used up. A traced run keeps its first pass untraced (the tracing
  // overhead baseline) and, with sinks, alternates sinks on and off.
  Runner Run(Opts, Rec, W, Graphs, S, R);
  std::vector<Outcome> First;
  S.Configs.resize(W.Configs.size());
  const uint32_t MinPasses = Opts.Trace ? (W.Sinks ? 3 : 2) : 1;
  const double MeasureStart = Rec.wall();
  const std::pair<uint64_t, uint64_t> StealStart = cpuStealTicks();
  std::vector<double> PassWall;
  for (uint32_t Pass = 0;; ++Pass) {
    const double PassStart = Rec.wall();
    const bool Traced = Opts.Trace && Pass > 0;
    const bool SinksOn = W.Sinks && (!Opts.Trace || Pass % 2 == 0);
    Rec.setEnabled(Traced);
    double PassRun = 0.0;
    std::map<std::pair<size_t, std::string>, bool> Verified;
    for (size_t I = 0; I < W.Configs.size(); ++I) {
      const ConfigSpec &C = W.Configs[I];
      bool Verify =
          Pass == 0 && !Verified[{C.Graph, C.Kernel}] &&
          (C.Kernel == "bfs" || C.Kernel == "pr");
      Verified[{C.Graph, C.Kernel}] = true;
      double SetupSec = 0.0, BodySec = 0.0;
      S.Cur = &S.Configs[I];
      Outcome Out = Run.run(C, SinksOn, Verify, SetupSec, BodySec);
      R.Attempted += 1 + (baseline::policyUsesAtmem(C.Pol) ? C.Epochs : 0);
      S.Cur->SetupSec.push_back(SetupSec);
      S.Cur->BodySec.push_back(BodySec);
      PassRun += BodySec;
      if (Pass == 0) {
        First.push_back(Out);
      } else if (!samePassOutcome(Out, First[I], W.SimThreads == 1)) {
        recordFailure(R, "pass " + std::to_string(Pass) + " of " + C.Kernel +
                             "/" + baseline::policyName(C.Pol) +
                             " did not repeat the first pass's outputs");
      }
    }
    S.PassRunSec.push_back(PassRun);
    S.PassSinksOn.push_back(SinksOn);
    PassWall.push_back(Rec.wall() - PassStart);
    // Stop before a pass that would likely end past the measuring time.
    if (Pass + 1 >= MinPasses &&
        Rec.wall() - MeasureStart + median(PassWall) > Opts.Seconds)
      break;
  }
  Rec.setEnabled(Opts.Trace);
  // Time the hypervisor took from this VM while measuring: the main
  // source of run-to-run spread on a shared host.
  const std::pair<uint64_t, uint64_t> StealEnd = cpuStealTicks();
  R.Notes.push_back(
      "host CPU steal while measuring: " +
      fmt("%.1f", 100.0 * ratio(static_cast<double>(StealEnd.first -
                                                    StealStart.first),
                                static_cast<double>(StealEnd.second -
                                                    StealStart.second))) +
      "% of all CPUs' time");
  crossChecks(W, Graphs, First, R);
  R.Notes.push_back("passes: " + std::to_string(S.PassRunSec.size()) +
                    ", later passes repeated the first pass's " +
                    (W.SimThreads == 1 ? "checksums and simulated results"
                                       : "checksums"));

  // End-to-end metrics. The host is shared, so each configuration's
  // timings are reduced to medians over the passes before they are
  // summed (run_s, setup_s).
  double RunSec = 0.0, ConfigSetupSec = 0.0, AccessesPerPass = 0.0;
  uint64_t Accesses = 0;
  Spread Iter, Epoch;
  for (const ConfigSamples &C : S.Configs) {
    RunSec += median(C.BodySec);
    ConfigSetupSec += median(C.SetupSec);
    AccessesPerPass += static_cast<double>(C.Accesses) / C.BodySec.size();
    Accesses += C.Accesses;
    for (const std::vector<double> &Ms : C.IterMs)
      Iter.add(Ms);
    for (const std::vector<double> &Ms : C.EpochMs)
      Epoch.add(Ms);
  }
  const double PeakRssMb =
      static_cast<double>(support::peakRssBytes()) / (1 << 20);
  R.EndToEnd = {
      {"setup_s", median(S.GenSec) + ConfigSetupSec, "s"},
      {"run_s", RunSec, "s"},
      {"maccesses_per_s", ratio(AccessesPerPass, RunSec) / 1e6, "M/s"},
      {"iter_ms.p50", Iter.percentile(50.0), "ms"},
      {"iter_ms.p90", Iter.percentile(90.0), "ms"},
      {"epoch_ms.p50", Epoch.percentile(50.0), "ms"},
      {"peak_rss_mb", PeakRssMb, "MB"},
  };
  R.Notes.push_back("samples: " + std::to_string(Iter.samples()) +
                    " tracked iterations in " + std::to_string(Iter.groups()) +
                    " groups, " + std::to_string(Epoch.samples()) +
                    " epochs in " + std::to_string(Epoch.groups()) +
                    " groups; epoch_ms.p90 " +
                    fmt("%.6g", Epoch.percentile(90.0)) + " ms");

  // Simulated results and the failure ratio: reported beside the
  // end-to-end metrics on every run, and as per-layer metrics.
  const SimMetrics Sim = simMetrics(W, First);
  const double FailedRatio = ratio(static_cast<double>(R.Failed),
                                   static_cast<double>(R.Attempted));
  if (W.SimThreads == 1)
    R.Notes.push_back("simulated (repeatable; model not validated against "
                      "hardware): sim_gain " +
                      fmt("%.4f", Sim.Gain) + " x, sim_slowdown_vs_fast " +
                      fmt("%.4f", Sim.SlowdownVsFast) +
                      ", sim_tlb_reduction " + fmt("%.4f", Sim.TlbReduction) +
                      " x, sim_migration_speedup " +
                      fmt("%.4f", Sim.MigrationSpeedup) + " x");
  R.Notes.push_back("failed_ratio " + fmt("%.4f", FailedRatio) + " (" +
                    std::to_string(R.Failed) + " of " +
                    std::to_string(R.Attempted) + ")");

  // Per-layer metrics.
  const double Passes = static_cast<double>(S.PassRunSec.size());
  const double ComputeMs = ratio(S.ComputeSec, S.ComputeCount) * 1e3;
  const double TrackMs =
      ratio(S.TrackedRunSec - S.ComputeSec, S.ComputeCount) * 1e3;
  const double OptimizeMs = ratio(S.OptimizeSec, S.OptimizeCount) * 1e3;
  const double ClassifyMs = ratio(S.ClassifySec, S.ClassifyCount) * 1e3;
  const auto Iters = static_cast<double>(S.EndIterCount);
  const auto Epochs = static_cast<double>(S.ProfEpochs);
  double Mbind = 0.0, AtmemMig = 0.0, Split = 0.0;
  uint64_t MbindRuns = 0, AtmemRuns = 0;
  for (size_t I = 0; I < W.Configs.size(); ++I) {
    if (W.Configs[I].Pol == Policy::AtmemMbind) {
      Mbind += First[I].MigrationSimSec;
      Split += static_cast<double>(First[I].HugePagesSplit);
      ++MbindRuns;
    } else if (baseline::policyUsesAtmem(W.Configs[I].Pol)) {
      AtmemMig += First[I].MigrationSimSec;
      ++AtmemRuns;
    }
  }
  double SinkMs = 0.0;
  if (!S.EpochMsSinksOn.empty() && !S.EpochMsSinksOff.empty())
    SinkMs = median(S.EpochMsSinksOn) - median(S.EpochMsSinksOff);
  // Tracing overhead: traced passes against the untraced first pass run
  // with the same sink setting.
  double OverheadPct = 0.0;
  if (Opts.Trace) {
    std::vector<double> Traced;
    for (size_t P = 1; P < S.PassRunSec.size(); ++P)
      if (S.PassSinksOn[P] == S.PassSinksOn[0])
        Traced.push_back(S.PassRunSec[P]);
    if (!Traced.empty())
      OverheadPct = (median(Traced) / S.PassRunSec[0] - 1.0) * 100.0;
  }
  const double GenMs = median(S.GenSec) * 1e3;
  R.Layer = {
      {"graph.generate_ms", GenMs, "ms"},
      {"graph.edges", static_cast<double>(S.GenEdges), "count"},
      {"graph.ns_per_edge", ratio(GenMs * 1e6, S.GenEdges), "ns"},
      {"core.ctor_ms", S.CtorSec / Passes * 1e3, "ms"},
      {"apps.setup_ms", S.KernelSetupSec / Passes * 1e3, "ms"},
      {"apps.compute_ms", ComputeMs, "ms"},
      {"sim.track_ms", TrackMs, "ms"},
      {"sim.ns_per_access",
       ratio(TrackMs * 1e6 * S.ComputeCount, S.TrackedAccesses), "ns"},
      {"sim.accesses", ratio(Accesses, Iters), "count"},
      {"sim.llc_hit_ratio", ratio(S.SimHits, Accesses), "ratio"},
      {"sim.misses_fast", ratio(S.SimMissFast, Iters), "count"},
      {"sim.misses_slow", ratio(S.SimMissSlow, Iters), "count"},
      {"sim.tlb_ms", ratio(S.TlbOnSec - S.TlbOffSec, S.TlbDiffCount) * 1e3,
       "ms"},
      {"sim.tlb_misses", ratio(S.TlbMisses, S.TlbIters), "count"},
      {"core.end_iteration_ms", ratio(S.EndIterSec, Iters) * 1e3, "ms"},
      {"core.optimize_ms", OptimizeMs, "ms"},
      {"profiler.samples", ratio(S.ProfSamples, Epochs), "count"},
      {"profiler.misses_seen", ratio(S.ProfMisses, Epochs), "count"},
      {"profiler.sample_ratio", ratio(S.ProfSamples, S.ProfMisses), "ratio"},
      {"profiler.period", ratio(S.ProfPeriodSum, Epochs), "count"},
      {"profiler.profiled_extra_ms",
       ratio(S.ProfOnSec - S.ProfOffSec, S.ProfDiffCount) * 1e3, "ms"},
      {"analyzer.classify_ms", ClassifyMs, "ms"},
      {"analyzer.chunks", ratio(S.Chunks, S.ClassifyCount), "count"},
      {"analyzer.critical_chunks", ratio(S.CriticalChunks, S.ClassifyCount),
       "count"},
      {"mem.migrate_ms", S.ClassifyCount ? OptimizeMs - ClassifyMs : 0.0,
       "ms"},
      {"mem.bytes_moved", ratio(S.BytesMoved, S.MigrationEpochs), "bytes"},
      {"mem.ranges", ratio(S.Ranges, S.MigrationEpochs), "count"},
      {"mem.rechurn_ratio", ratio(S.BytesMovedLater, S.BytesMoved), "ratio"},
      {"mem.huge_pages_split", ratio(Split, MbindRuns), "count"},
      {"mem.sim_migration_ms", ratio(AtmemMig, AtmemRuns) * 1e3, "ms"},
      {"mem.sim_migration_ms_mbind", ratio(Mbind, MbindRuns) * 1e3, "ms"},
      {"obs.sink_ms_per_epoch", SinkMs, "ms"},
      {"obs.bytes_written", ratio(S.SinkBytes, S.SinkEpochs), "bytes"},
      {"sim_gain", Sim.Gain, "x"},
      {"sim_slowdown_vs_fast", Sim.SlowdownVsFast, "ratio"},
      {"sim_tlb_reduction", Sim.TlbReduction, "x"},
      {"sim_migration_speedup", Sim.MigrationSpeedup, "x"},
      {"failed_ratio", FailedRatio, "ratio"},
      {"epoch_ms.p90", Epoch.percentile(90.0), "ms"},
      {"samples.iterations", static_cast<double>(Iter.samples()), "count"},
      {"samples.epochs", static_cast<double>(Epoch.samples()), "count"},
      {"trace.overhead_pct", OverheadPct, "%"},
  };
  return R;
}

} // namespace perfbench
