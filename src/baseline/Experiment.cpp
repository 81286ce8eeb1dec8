#include "baseline/Experiment.h"

#include "apps/Kernel.h"
#include "support/Error.h"

using namespace atmem;
using namespace atmem::baseline;

const char *baseline::policyName(Policy P) {
  switch (P) {
  case Policy::AllSlow:
    return "all-slow";
  case Policy::AllFast:
    return "all-fast";
  case Policy::PreferredFast:
    return "preferred-fast";
  case Policy::Interleaved:
    return "interleaved";
  case Policy::Atmem:
    return "atmem";
  case Policy::AtmemMbind:
    return "atmem-mbind";
  case Policy::AtmemSampledOnly:
    return "atmem-sampled-only";
  case Policy::CoarseGrained:
    return "coarse-grained";
  }
  ATMEM_UNREACHABLE("unhandled policy");
}

bool baseline::policyUsesAtmem(Policy P) {
  switch (P) {
  case Policy::AllSlow:
  case Policy::AllFast:
  case Policy::PreferredFast:
  case Policy::Interleaved:
    return false;
  case Policy::Atmem:
  case Policy::AtmemMbind:
  case Policy::AtmemSampledOnly:
  case Policy::CoarseGrained:
    return true;
  }
  ATMEM_UNREACHABLE("unhandled policy");
}

static core::RuntimeConfig makeRuntimeConfig(const RunConfig &Config) {
  core::RuntimeConfig RtConfig;
  RtConfig.Machine = Config.Machine;
  RtConfig.Analyzer.SelectivityBias = Config.EpsilonOffset;
  RtConfig.SimThreads = Config.SimThreads;
  RtConfig.Telemetry = Config.Telemetry;
  switch (Config.PolicyKind) {
  case Policy::AllSlow:
  case Policy::Atmem:
    break;
  case Policy::AllFast:
    RtConfig.Placement = mem::InitialPlacement::Fast;
    break;
  case Policy::PreferredFast:
    RtConfig.Placement = mem::InitialPlacement::PreferredFast;
    break;
  case Policy::Interleaved:
    RtConfig.Placement = mem::InitialPlacement::Interleaved;
    break;
  case Policy::AtmemMbind:
    RtConfig.Mechanism = core::MigrationMechanism::Mbind;
    break;
  case Policy::AtmemSampledOnly:
    RtConfig.Analyzer.EnablePromotion = false;
    break;
  case Policy::CoarseGrained:
    RtConfig.WholeObjectChunks = true;
    break;
  }
  return RtConfig;
}

RunResult baseline::runExperiment(const RunConfig &Config) {
  if (!Config.Graph)
    reportFatalError("experiment requires a graph");
  if (!apps::isKnownKernel(Config.KernelName))
    reportFatalError("unknown kernel in experiment: " + Config.KernelName);

  core::Runtime Rt(makeRuntimeConfig(Config));
  std::unique_ptr<apps::Kernel> Kernel = apps::makeKernel(Config.KernelName);
  Kernel->setup(Rt, *Config.Graph);

  bool UsesAtmem = policyUsesAtmem(Config.PolicyKind);
  RunResult Result;

  // First iteration: profiled for ATMem policies, plain otherwise.
  if (UsesAtmem)
    Rt.profilingStart();
  Rt.beginIteration();
  Kernel->runIteration();
  Result.FirstIterSec = Rt.endIteration();
  if (UsesAtmem) {
    Rt.profilingStop();
    Result.ProfilingOverheadSec = Rt.profilingOverheadSeconds();
    Result.FirstIterSec += Result.ProfilingOverheadSec;
    Result.Migration = Rt.optimize();
  }
  Result.FastDataRatio = Rt.fastDataRatio();

  // Measured iteration(s): the paper reports the run time from the second
  // iteration onward, after data migrated.
  sim::Tlb ReplayTlb = Rt.machine().makeTlb();
  if (Config.MeasureTlb)
    Rt.setReplayTlb(&ReplayTlb);
  uint32_t Iterations = std::max<uint32_t>(Config.MeasuredIterations, 1);
  bool Reoptimize = Config.OptimizeEachIteration && UsesAtmem;
  for (uint32_t I = 0; I < Iterations; ++I) {
    if (Reoptimize)
      Rt.profilingStart();
    Rt.beginIteration();
    Kernel->runIteration();
    Result.IterStats.add(Rt.endIteration());
    if (Reoptimize) {
      // One more profile -> analyze -> migrate epoch per iteration; the
      // decision log grows one epoch per pass, which is what the ring
      // crash-recovery machinery exercises.
      Rt.profilingStop();
      Result.Migration += Rt.optimize();
    }
  }
  // RunningStat::mean() is Sum/N with the same accumulation order as the
  // historical TotalSec loop, so reported times are bit-identical.
  Result.MeasuredIterSec = Result.IterStats.mean();
  if (Config.MeasureTlb) {
    Rt.setReplayTlb(nullptr);
    Result.TlbMisses = ReplayTlb.misses();
  }
  Result.Checksum = Kernel->checksum();
  return Result;
}
