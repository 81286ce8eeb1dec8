//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Section 9 generalization: ATMem on sparse matrix-vector multiply
/// (SpMV), a non-graph irregular workload. The paper reports "similar
/// results as the graph applications" — the dense rows of a power-law
/// matrix and the hot stretches of the input vector get placed on the
/// fast memory. Also demonstrates the paper's Listing 1 C-style API end
/// to end (atmem_malloc / atmem_profiling_start / atmem_optimize).
///
//===----------------------------------------------------------------------===//

#include "core/AtmemApi.h"
#include "graph/Generators.h"
#include "support/Options.h"
#include "support/StringUtils.h"

#include <cstdio>

using namespace atmem;

int main(int Argc, const char **Argv) {
  OptionParser Parser("spmv_irregular: ATMem generalization to SpMV via "
                      "the paper's C-style API");
  Parser.addUnsigned("rows", 1u << 17, "matrix rows (power-law sparsity)");
  Parser.addUnsigned("nnz-per-row", 16, "average non-zeros per row");
  if (!Parser.parse(Argc, Argv))
    return 1;
  uint32_t Rows = Parser.getUnsigned32("rows");
  double NnzPerRow = static_cast<double>(Parser.getUnsigned("nnz-per-row"));

  // A power-law sparse matrix (rows = vertices, nnz = edges).
  graph::PowerLawParams Params;
  Params.NumVertices = Rows;
  Params.AverageDegree = NnzPerRow;
  Params.Gamma = 2.0;
  graph::CsrGraph Matrix =
      graph::withRandomWeights(graph::generatePowerLaw(Params), 16, 1);
  std::printf("SpMV: %u x %u matrix, %llu non-zeros\n", Rows, Rows,
              static_cast<unsigned long long>(Matrix.numEdges()));

  core::RuntimeConfig Config;
  Config.Machine = sim::nvmDramTestbed(1.0 / 256);
  core::Runtime Rt(Config);
  atmem_set_runtime(&Rt);

  // Listing 1 workflow: register the CSR arrays through atmem_malloc.
  size_t OffBytes = (Rows + 1) * sizeof(uint64_t);
  size_t ColBytes = Matrix.numEdges() * sizeof(uint32_t);
  size_t ValBytes = Matrix.numEdges() * sizeof(float);
  size_t VecBytes = Rows * sizeof(float);
  auto *Off = static_cast<uint64_t *>(atmem_malloc(OffBytes));
  auto *Col = static_cast<uint32_t *>(atmem_malloc(ColBytes));
  auto *Val = static_cast<float *>(atmem_malloc(ValBytes));
  auto *X = static_cast<float *>(atmem_malloc(VecBytes));
  auto *Y = static_cast<float *>(atmem_malloc(VecBytes));

  Rt.setTrackingEnabled(false);
  for (uint32_t R = 0; R <= Rows; ++R)
    Off[R] = Matrix.rowOffsets()[R];
  for (uint64_t E = 0; E < Matrix.numEdges(); ++E) {
    Col[E] = Matrix.cols()[E];
    Val[E] = static_cast<float>(Matrix.weights()[E]);
  }
  for (uint32_t R = 0; R < Rows; ++R)
    X[R] = 1.0f + static_cast<float>(R % 5);
  Rt.setTrackingEnabled(true);

  // Tracked views so the simulated profiler observes the accesses.
  auto OffView = atmem_tracked_view<uint64_t>(Off, Rows + 1);
  auto ColView = atmem_tracked_view<uint32_t>(Col, Matrix.numEdges());
  auto ValView = atmem_tracked_view<float>(Val, Matrix.numEdges());
  auto XView = atmem_tracked_view<float>(X, Rows);
  auto YView = atmem_tracked_view<float>(Y, Rows);

  auto RunSpmv = [&] {
    for (uint32_t R = 0; R < Rows; ++R) {
      float Acc = 0.0f;
      uint64_t Begin = OffView[R];
      uint64_t End = OffView[R + 1];
      for (uint64_t E = Begin; E < End; ++E)
        Acc += ValView[E] * XView[ColView[E]];
      YView[R] = Acc;
    }
  };

  atmem_profiling_start();
  Rt.beginIteration();
  RunSpmv();
  double Before = Rt.endIteration();
  atmem_profiling_stop();

  atmem_optimize();

  Rt.beginIteration();
  RunSpmv();
  double After = Rt.endIteration();

  std::printf("all-NVM SpMV: %s; after ATMem placement (%s of data on "
              "DRAM): %s — %s speedup\n",
              formatSeconds(Before).c_str(),
              formatPercent(Rt.fastDataRatio()).c_str(),
              formatSeconds(After).c_str(),
              formatSpeedup(Before / After).c_str());

  atmem_free(Y);
  atmem_free(X);
  atmem_free(Val);
  atmem_free(Col);
  atmem_free(Off);
  atmem_set_runtime(nullptr);
  return 0;
}
