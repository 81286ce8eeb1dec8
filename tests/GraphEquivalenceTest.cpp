//===----------------------------------------------------------------------===//
// Randomized equivalence of the production graph generators and CSR build
// against the plain reference implementation (tests/ReferenceGraph.h):
// guide-table power-law sampling, branch-free R-MAT quadrant choice and
// the two-pass counting-sort build must produce byte-identical graphs
// for every seed and shape, including degenerate vertex counts, and for
// every combination of BuildOptions.
//===----------------------------------------------------------------------===//

#include "ReferenceGraph.h"

#include "graph/CsrGraph.h"
#include "graph/Generators.h"
#include "support/Prng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

using namespace atmem;
using namespace atmem::graph;

namespace {

void expectSameGraph(const CsrGraph &Got, const CsrGraph &Want) {
  ASSERT_EQ(Got.rowOffsets(), Want.rowOffsets());
  ASSERT_EQ(Got.cols(), Want.cols());
}

/// Uniform double in [Lo, Hi).
double uniform(Xoshiro256 &Rng, double Lo, double Hi) {
  return Lo + (Hi - Lo) * Rng.nextDouble();
}

TEST(GraphEquivalenceTest, PowerLawMatchesFullRangeSearch) {
  Xoshiro256 Rng(0x9E1);
  const uint32_t FixedSizes[] = {0, 1, 2, 3, 1024};
  for (int Trial = 0; Trial < 60; ++Trial) {
    PowerLawParams Params;
    Params.NumVertices = Trial < 15 ? FixedSizes[Trial % 5]
                                    : 2 + static_cast<uint32_t>(
                                              Rng.nextBounded(6000));
    Params.AverageDegree = uniform(Rng, 0.5, 24.0);
    // Exponents near 1 put almost all weight on the first vertices and
    // leave long runs of equal cumulative weights behind them.
    Params.Gamma = Trial % 4 == 0 ? uniform(Rng, 1.01, 1.2)
                                  : uniform(Rng, 1.2, 3.5);
    Params.Seed = Rng.next();
    SCOPED_TRACE(testing::Message()
                 << "V=" << Params.NumVertices << " deg="
                 << Params.AverageDegree << " gamma=" << Params.Gamma
                 << " seed=" << Params.Seed);
    expectSameGraph(generatePowerLaw(Params),
                    testref::referenceGeneratePowerLaw(Params));
  }
}

TEST(GraphEquivalenceTest, RmatMatchesBranchyQuadrantChoice) {
  Xoshiro256 Rng(0x9E2);
  for (int Trial = 0; Trial < 60; ++Trial) {
    RmatParams Params;
    Params.Scale = 1 + static_cast<uint32_t>(Rng.nextBounded(12));
    Params.EdgeFactor = uniform(Rng, 0.0, 20.0);
    if (Trial % 3 != 0) {
      // Random quadrant split with A + B + C < 1; the rest keep the
      // Graph500 defaults.
      double W[4];
      double Total = 0.0;
      for (double &X : W)
        Total += (X = uniform(Rng, 0.01, 1.0));
      Params.A = W[0] / Total;
      Params.B = W[1] / Total;
      Params.C = W[2] / Total;
    }
    Params.Seed = Rng.next();
    SCOPED_TRACE(testing::Message()
                 << "scale=" << Params.Scale << " ef=" << Params.EdgeFactor
                 << " A=" << Params.A << " B=" << Params.B
                 << " C=" << Params.C << " seed=" << Params.Seed);
    expectSameGraph(generateRmat(Params),
                    testref::referenceGenerateRmat(Params));
  }
}

TEST(GraphEquivalenceTest, BuildCsrMatchesSortedScatterUnderAllOptions) {
  Xoshiro256 Rng(0x9E3);
  const uint32_t Sizes[] = {1, 2, 7, 100, 1000};
  for (uint32_t Mask = 0; Mask < 16; ++Mask) {
    BuildOptions Options;
    Options.RemoveSelfLoops = Mask & 1;
    Options.DeduplicateEdges = Mask & 2;
    Options.SortNeighbors = Mask & 4;
    Options.Symmetrize = Mask & 8;
    for (uint32_t NumVertices : Sizes) {
      // Draw endpoints from a small pool so self-loops and duplicate
      // edges are common.
      uint32_t Pool = 1 + static_cast<uint32_t>(
                              Rng.nextBounded(std::min(NumVertices, 40u)));
      uint64_t NumEdges = Rng.nextBounded(4 * NumVertices + 8);
      std::vector<Edge> Edges;
      for (uint64_t E = 0; E < NumEdges; ++E) {
        auto Src = static_cast<VertexId>(Rng.nextBounded(NumVertices));
        auto Dst = static_cast<VertexId>(Rng.nextBounded(Pool));
        Edges.emplace_back(Src, Rng.nextBounded(4) == 0 ? Src : Dst);
      }
      SCOPED_TRACE(testing::Message() << "options=" << Mask
                                      << " V=" << NumVertices
                                      << " E=" << NumEdges);
      expectSameGraph(buildCsr(NumVertices, Edges, Options),
                      testref::referenceBuildCsr(NumVertices, Edges, Options));
    }
  }
}

TEST(GraphEquivalenceTest, BuildCsrOfEmptyGraph) {
  for (uint32_t Mask = 0; Mask < 16; ++Mask) {
    BuildOptions Options;
    Options.DeduplicateEdges = Mask & 2;
    Options.SortNeighbors = Mask & 4;
    Options.Symmetrize = Mask & 8;
    expectSameGraph(buildCsr(0, {}, Options),
                    testref::referenceBuildCsr(0, {}, Options));
  }
}

TEST(GraphEquivalenceDeathTest, RmatScaleOutsideRangeAborts) {
  RmatParams Params;
  Params.EdgeFactor = 0;
  Params.Scale = 0;
  EXPECT_DEATH(generateRmat(Params), "R-MAT scale must lie in \\[1, 31\\]");
  Params.Scale = 32;
  EXPECT_DEATH(generateRmat(Params), "R-MAT scale must lie in \\[1, 31\\]");
}

} // namespace
