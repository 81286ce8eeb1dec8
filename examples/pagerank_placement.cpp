//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Domain scenario: iterative PageRank over a billion-edge-class social
/// graph (scaled twitter) on the NVM-DRAM testbed — the paper's headline
/// workload. Demonstrates:
///
///  - registering the CSR arrays and rank vectors through the runtime,
///  - the profile -> analyze -> migrate -> iterate loop,
///  - inspecting the analyzer's per-object decisions (which objects were
///    classified hot, how much of each moved),
///  - the amortization arithmetic of Section 7.4.
///
//===----------------------------------------------------------------------===//

#include "apps/Kernels.h"
#include "core/Runtime.h"
#include "graph/Datasets.h"
#include "support/Options.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"

#include <cstdio>

using namespace atmem;

int main(int Argc, const char **Argv) {
  OptionParser Parser("pagerank_placement: adaptive placement for iterative "
                      "PageRank on the NVM-DRAM testbed");
  Parser.addString("dataset", "twitter", "graph to rank");
  Parser.addDouble("scale", graph::DefaultScaleDivisor,
                   "dataset scale divisor");
  Parser.addUnsigned("iterations", 8, "optimized iterations to run");
  if (!Parser.parse(Argc, Argv))
    return 1;
  std::string Name = Parser.getString("dataset");
  if (!graph::isKnownDataset(Name)) {
    std::fprintf(stderr, "unknown dataset '%s'\n", Name.c_str());
    return 1;
  }
  double Scale = Parser.getDouble("scale");
  uint32_t Iterations = Parser.getUnsigned32("iterations");

  graph::Dataset Data = graph::makeDataset(Name, Scale);
  std::printf("PageRank on %s: %u vertices, %llu edges\n", Name.c_str(),
              Data.Graph.numVertices(),
              static_cast<unsigned long long>(Data.Graph.numEdges()));

  core::RuntimeConfig Config;
  Config.Machine = sim::nvmDramTestbed(1.0 / Scale);
  core::Runtime Rt(Config);

  apps::PageRankKernel Kernel;
  Kernel.setup(Rt, Data.Graph);

  // Iteration 1: profiled, all data on NVM.
  Rt.profilingStart();
  Rt.beginIteration();
  Kernel.runIteration();
  double BaselineIter = Rt.endIteration();
  Rt.profilingStop();
  std::printf("\niteration 1 (all-NVM, profiled): %s\n",
              formatSeconds(BaselineIter).c_str());

  mem::MigrationResult Migration = Rt.optimize();

  // Per-object placement report.
  std::printf("\nanalyzer decisions:\n");
  TablePrinter Table({"object", "size", "chunk", "on DRAM", "ratio"});
  for (const mem::DataObject *Obj : Rt.registry().liveObjects()) {
    uint64_t Fast = Obj->bytesOn(sim::TierId::Fast);
    Table.addRow({Obj->name(), formatBytes(Obj->mappedBytes()),
                  formatBytes(Obj->chunkBytes()), formatBytes(Fast),
                  formatPercent(static_cast<double>(Fast) /
                                static_cast<double>(Obj->mappedBytes()))});
  }
  Table.print();
  std::printf("migration: %s in %llu ranges, %s simulated\n",
              formatBytes(Migration.BytesMoved).c_str(),
              static_cast<unsigned long long>(Migration.Ranges),
              formatSeconds(Migration.SimSeconds).c_str());

  // Optimized iterations.
  double TotalOptimized = 0.0;
  double FirstOptimized = 0.0;
  for (uint32_t I = 0; I < Iterations; ++I) {
    Rt.beginIteration();
    Kernel.runIteration();
    double T = Rt.endIteration();
    if (I == 0)
      FirstOptimized = T;
    TotalOptimized += T;
  }
  std::printf("\noptimized iterations: %s each (%s for %u iterations)\n",
              formatSeconds(FirstOptimized).c_str(),
              formatSeconds(TotalOptimized).c_str(), Iterations);
  std::printf("speedup per iteration: %s\n",
              formatSpeedup(BaselineIter / FirstOptimized).c_str());

  // Section 7.4 amortization arithmetic.
  double OneTime = Rt.profilingOverheadSeconds() + Migration.SimSeconds;
  double PerIterGain = BaselineIter - FirstOptimized;
  if (PerIterGain > 0)
    std::printf("one-time cost %s amortizes after %.0f optimized "
                "iteration(s)\n",
                formatSeconds(OneTime).c_str(),
                std::max(1.0, OneTime / PerIterGain));
  return 0;
}
