//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// atmem_run: command-line driver for the framework. Loads a named
/// synthetic dataset or a user-provided edge list, runs one of the six
/// kernels under a chosen placement policy on a chosen testbed, and
/// prints a placement/timing report. This is the "try it on your own
/// graph" entry point of the repository.
///
/// Examples:
///   atmem_run --kernel=pr --dataset=twitter
///   atmem_run --kernel=bfs --edge-list=web.txt --testbed=mcdram
///   atmem_run --kernel=sssp --dataset=rmat27 --policy=atmem-mbind
///
//===----------------------------------------------------------------------===//

#include "apps/Kernel.h"
#include "baseline/Experiment.h"
#include "fault/FaultInjection.h"
#include "graph/Datasets.h"
#include "graph/EdgeListIO.h"
#include "obs/Export.h"
#include "support/Options.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"

#include <algorithm>
#include <cstdio>

using namespace atmem;

namespace {

bool parsePolicy(const std::string &Name, baseline::Policy &Out) {
  const std::pair<const char *, baseline::Policy> Table[] = {
      {"all-slow", baseline::Policy::AllSlow},
      {"all-fast", baseline::Policy::AllFast},
      {"preferred-fast", baseline::Policy::PreferredFast},
      {"interleaved", baseline::Policy::Interleaved},
      {"atmem", baseline::Policy::Atmem},
      {"atmem-mbind", baseline::Policy::AtmemMbind},
      {"atmem-sampled-only", baseline::Policy::AtmemSampledOnly},
      {"coarse-grained", baseline::Policy::CoarseGrained},
  };
  for (const auto &[Label, Policy] : Table)
    if (Name == Label) {
      Out = Policy;
      return true;
    }
  return false;
}

} // namespace

int main(int Argc, const char **Argv) {
  OptionParser Parser(
      "atmem_run: run a graph kernel under an ATMem placement policy on a "
      "simulated heterogeneous-memory testbed");
  Parser.addString("kernel", "pr", "bfs | sssp | pr | bc | cc | spmv | tc | kcore");
  Parser.addString("dataset", "rmat24",
                   "named dataset (pokec, rmat24, twitter, rmat27, "
                   "friendster); ignored when --edge-list is given");
  Parser.addString("edge-list", "",
                   "path to a 'src dst' text edge list to load instead of "
                   "a named dataset");
  Parser.addString("testbed", "nvm", "nvm (Optane+DRAM) | mcdram (KNL)");
  Parser.addString("policy", "atmem",
                   "all-slow | all-fast | preferred-fast | interleaved | atmem | "
                   "atmem-mbind | atmem-sampled-only | coarse-grained");
  Parser.addDouble("scale", graph::DefaultScaleDivisor,
                   "dataset/machine scale divisor for named datasets");
  Parser.addUnsigned("iterations", 1, "measured iterations to average");
  Parser.addUnsigned("sim-threads", 1,
                     "tracked-execution engine threads (1 = serial engine)");
  Parser.addFlag("compare", "also run the all-slow baseline and the "
                            "all-fast (or preferred-fast) reference");
  Parser.addFlag("tlb", "replay the measured iteration through the "
                        "simulated TLB and report misses");
  Parser.addString("metrics-out", "",
                   "write a telemetry metrics snapshot (atmem-metrics-v1 "
                   "JSON) to this path; also enables collection");
  Parser.addString("trace-out", "",
                   "write a Chrome trace-event JSON (open in Perfetto or "
                   "chrome://tracing) to this path; also enables collection");
  Parser.addString("decision-log", "",
                   "record every placement decision (theta terms, weights, "
                   "TR', migration lifecycle) to this binary flight-recorder "
                   "file; inspect with atmem_explain");
  Parser.addString("decision-log-ring", "",
                   "record placement decisions into a crash-resilient mmap "
                   "ring (segments <path>.NNNNNN under a byte cap) instead "
                   "of an unbounded file; survives SIGKILL losing at most "
                   "the in-flight epoch");
  Parser.addUnsigned("ring-segment-bytes", 0,
                     "ring segment size in bytes (0 = default 256 KiB)");
  Parser.addUnsigned("ring-max-bytes", 0,
                     "hard cap across all ring segments (0 = default 4 MiB)");
  Parser.addString("timeseries-out", "",
                   "write per-epoch gauge snapshots as JSONL to this path "
                   "(atmem-timeseries-v1; plot with extract_results.py "
                   "--timeseries)");
  Parser.addString("openmetrics-out", "",
                   "write the per-epoch series as OpenMetrics text to this "
                   "path");
  Parser.addString("stats-socket", "",
                   "serve live metrics/placement/ring-head JSON snapshots "
                   "on this UNIX socket path (inspect with atmem_top)");
  Parser.addFlag("health",
                 "arm the online placement-health monitor (detector states "
                 "reach the metrics export and the stats-socket panel)");
  Parser.addString("health-log", "",
                   "append health events as atmem-health-v1 JSONL to this "
                   "path (implies --health; triage with atmem_doctor)");
  Parser.addString("health-knobs", "",
                   "detector tuning overrides, comma-separated knob=value "
                   "(see docs/observability.md)");
  Parser.addFlag("reoptimize",
                 "re-profile and re-optimize around every measured "
                 "iteration (one decision-log epoch per iteration) instead "
                 "of the single second-iteration optimize");
  Parser.addString("fault-spec", "", fault::faultSpecHelp());
  if (!Parser.parse(Argc, Argv))
    return 1;

  if (std::string SpecError;
      !fault::armFromEnvironment(&SpecError)) {
    std::fprintf(stderr, "error: bad ATMEM_FAULT_SPEC: %s\n",
                 SpecError.c_str());
    return 1;
  }
  if (std::string Spec = Parser.getString("fault-spec"); !Spec.empty()) {
    std::string SpecError;
    if (!fault::armFromSpec(Spec, &SpecError)) {
      std::fprintf(stderr, "error: bad --fault-spec: %s\n",
                   SpecError.c_str());
      return 1;
    }
  }

  std::string KernelName = Parser.getString("kernel");
  if (!apps::isKnownKernel(KernelName)) {
    std::fprintf(stderr, "error: unknown kernel '%s'\n", KernelName.c_str());
    return 1;
  }
  baseline::Policy PolicyKind;
  if (!parsePolicy(Parser.getString("policy"), PolicyKind)) {
    std::fprintf(stderr, "error: unknown policy '%s'\n",
                 Parser.getString("policy").c_str());
    return 1;
  }
  bool Mcdram = Parser.getString("testbed") == "mcdram";
  if (!Mcdram && Parser.getString("testbed") != "nvm") {
    std::fprintf(stderr, "error: unknown testbed '%s'\n",
                 Parser.getString("testbed").c_str());
    return 1;
  }
  double Scale = Parser.getDouble("scale");

  obs::TelemetryConfig Telemetry;
  Telemetry.MetricsPath = Parser.getString("metrics-out");
  Telemetry.TracePath = Parser.getString("trace-out");
  Telemetry.DecisionLogPath = Parser.getString("decision-log");
  Telemetry.DecisionLogRingPath = Parser.getString("decision-log-ring");
  Telemetry.RingSegmentBytes = Parser.getUnsigned("ring-segment-bytes");
  Telemetry.RingMaxBytes = Parser.getUnsigned("ring-max-bytes");
  Telemetry.TimeSeriesPath = Parser.getString("timeseries-out");
  Telemetry.OpenMetricsPath = Parser.getString("openmetrics-out");
  Telemetry.StatsSocketPath = Parser.getString("stats-socket");
  Telemetry.HealthLogPath = Parser.getString("health-log");
  Telemetry.HealthEnabled = Parser.getFlag("health");
  if (std::string Knobs = Parser.getString("health-knobs"); !Knobs.empty()) {
    std::string KnobError;
    if (!obs::parseHealthKnobs(Knobs, Telemetry.Health, &KnobError)) {
      std::fprintf(stderr, "error: bad --health-knobs: %s\n",
                   KnobError.c_str());
      return 1;
    }
  }
  Telemetry.Enabled = Telemetry.anyOutput() || Telemetry.HealthEnabled;

  // Load or generate the graph.
  graph::CsrGraph Graph;
  std::string GraphName;
  if (std::string Path = Parser.getString("edge-list"); !Path.empty()) {
    auto Loaded = graph::readEdgeList(Path);
    if (!Loaded) {
      std::fprintf(stderr, "error: cannot read edge list '%s'\n",
                   Path.c_str());
      return 1;
    }
    Graph = std::move(*Loaded);
    GraphName = Path;
  } else {
    std::string Name = Parser.getString("dataset");
    if (!graph::isKnownDataset(Name)) {
      std::fprintf(stderr, "error: unknown dataset '%s'\n", Name.c_str());
      return 1;
    }
    Graph = graph::makeDataset(Name, Scale).Graph;
    GraphName = Name;
  }
  std::printf("graph: %s (%u vertices, %llu edges)\n", GraphName.c_str(),
              Graph.numVertices(),
              static_cast<unsigned long long>(Graph.numEdges()));

  sim::MachineConfig Machine = Mcdram
                                   ? sim::mcdramDramTestbed(1.0 / Scale)
                                   : sim::nvmDramTestbed(1.0 / Scale);
  std::printf("testbed: %s (fast %s %s, slow %s %s)\n",
              Machine.Name.c_str(), Machine.Fast.Name.c_str(),
              formatBytes(Machine.Fast.CapacityBytes).c_str(),
              Machine.Slow.Name.c_str(),
              formatBytes(Machine.Slow.CapacityBytes).c_str());

  auto Run = [&](baseline::Policy P) {
    baseline::RunConfig Config;
    Config.KernelName = KernelName;
    Config.Graph = &Graph;
    Config.Machine = Machine;
    Config.PolicyKind = P;
    Config.MeasuredIterations = Parser.getUnsigned32("iterations");
    Config.MeasureTlb = Parser.getFlag("tlb");
    Config.SimThreads = std::max(Parser.getUnsigned32("sim-threads"), 1u);
    Config.OptimizeEachIteration = Parser.getFlag("reoptimize");
    Config.Telemetry = Telemetry;
    return baseline::runExperiment(Config);
  };

  TablePrinter Table({"policy", "iteration time", "fast-tier ratio",
                      "migrated", "migration time", "TLB misses"});
  auto AddRow = [&](baseline::Policy P, const baseline::RunResult &R) {
    Table.addRow({baseline::policyName(P),
                  formatSeconds(R.MeasuredIterSec),
                  formatPercent(R.FastDataRatio),
                  formatBytes(R.Migration.BytesMoved),
                  R.Migration.BytesMoved
                      ? formatSeconds(R.Migration.SimSeconds)
                      : "-",
                  Parser.getFlag("tlb") ? std::to_string(R.TlbMisses)
                                        : "-"});
  };

  baseline::RunResult Main = Run(PolicyKind);
  if (Parser.getFlag("compare")) {
    baseline::Policy Reference = Mcdram ? baseline::Policy::PreferredFast
                                        : baseline::Policy::AllFast;
    baseline::RunResult Slow = Run(baseline::Policy::AllSlow);
    baseline::RunResult Ref = Run(Reference);
    AddRow(baseline::Policy::AllSlow, Slow);
    AddRow(PolicyKind, Main);
    AddRow(Reference, Ref);
    Table.print();
    std::printf("\n%s vs all-slow: %s; vs %s: %s\n",
                baseline::policyName(PolicyKind),
                formatSpeedup(Slow.MeasuredIterSec / Main.MeasuredIterSec)
                    .c_str(),
                baseline::policyName(Reference),
                formatSpeedup(Ref.MeasuredIterSec / Main.MeasuredIterSec)
                    .c_str());
  } else {
    AddRow(PolicyKind, Main);
    Table.print();
  }
  if (Main.IterStats.count() > 1)
    std::printf("iteration spread: stddev %s over %zu iterations\n",
                formatSeconds(Main.IterStats.stddev()).c_str(),
                Main.IterStats.count());
  std::printf("checksum: %llu\n",
              static_cast<unsigned long long>(Main.Checksum));
  if (!obs::exportIfConfigured(Telemetry))
    return 1;
  if (!Telemetry.MetricsPath.empty())
    std::printf("metrics written to %s\n", Telemetry.MetricsPath.c_str());
  if (!Telemetry.TracePath.empty())
    std::printf("trace written to %s\n", Telemetry.TracePath.c_str());
  if (!Telemetry.DecisionLogPath.empty())
    std::printf("decision log written to %s\n",
                Telemetry.DecisionLogPath.c_str());
  if (!Telemetry.DecisionLogRingPath.empty())
    std::printf("decision ring written to %s.NNNNNN\n",
                Telemetry.DecisionLogRingPath.c_str());
  if (!Telemetry.TimeSeriesPath.empty())
    std::printf("time series written to %s\n",
                Telemetry.TimeSeriesPath.c_str());
  if (!Telemetry.OpenMetricsPath.empty())
    std::printf("openmetrics written to %s\n",
                Telemetry.OpenMetricsPath.c_str());
  if (!Telemetry.HealthLogPath.empty())
    std::printf("health log written to %s\n",
                Telemetry.HealthLogPath.c_str());
  return 0;
}
