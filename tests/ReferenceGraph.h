//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Test-local reference implementation of graph generation: the simplest
/// code that states which graph each generator must produce for a seed.
/// It is the oracle the equivalence suite pins the production generators
/// and CSR build against, byte for byte.
///
///   - referenceBuildCsr: one scatter by source in input order, then a
///     std::sort of every row and a separate deduplication pass.
///   - referenceGenerateRmat: a four-way branch on each uniform draw.
///   - referenceGeneratePowerLaw: inverse-CDF sampling by lower_bound over
///     the whole cumulative weight array.
///
//===----------------------------------------------------------------------===//

#ifndef ATMEM_TESTS_REFERENCEGRAPH_H
#define ATMEM_TESTS_REFERENCEGRAPH_H

#include "graph/CsrGraph.h"
#include "graph/Generators.h"
#include "support/Prng.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace atmem {
namespace testref {

inline graph::CsrGraph
referenceBuildCsr(uint32_t NumVertices, std::vector<graph::Edge> Edges,
                  const graph::BuildOptions &Options = {}) {
  using graph::Edge;
  using graph::VertexId;
  if (Options.Symmetrize) {
    size_t Original = Edges.size();
    Edges.reserve(Original * 2);
    for (size_t I = 0; I < Original; ++I)
      Edges.emplace_back(Edges[I].second, Edges[I].first);
  }
  if (Options.RemoveSelfLoops)
    Edges.erase(std::remove_if(Edges.begin(), Edges.end(),
                               [](const Edge &E) {
                                 return E.first == E.second;
                               }),
                Edges.end());

  std::vector<uint64_t> RowOffsets(NumVertices + 1, 0);
  for (const Edge &E : Edges)
    ++RowOffsets[E.first + 1];
  for (uint32_t V = 0; V < NumVertices; ++V)
    RowOffsets[V + 1] += RowOffsets[V];

  std::vector<VertexId> Cols(Edges.size());
  std::vector<uint64_t> Cursor(RowOffsets.begin(), RowOffsets.end() - 1);
  for (const Edge &E : Edges)
    Cols[Cursor[E.first]++] = E.second;

  if (Options.SortNeighbors || Options.DeduplicateEdges)
    for (uint32_t V = 0; V < NumVertices; ++V)
      std::sort(Cols.begin() + RowOffsets[V], Cols.begin() + RowOffsets[V + 1]);

  if (Options.DeduplicateEdges) {
    std::vector<uint64_t> NewOffsets(NumVertices + 1, 0);
    std::vector<VertexId> NewCols;
    for (uint32_t V = 0; V < NumVertices; ++V) {
      VertexId Last = ~0u;
      for (uint64_t I = RowOffsets[V]; I < RowOffsets[V + 1]; ++I) {
        if (Cols[I] == Last)
          continue;
        NewCols.push_back(Cols[I]);
        Last = Cols[I];
      }
      NewOffsets[V + 1] = NewCols.size();
    }
    return graph::CsrGraph(std::move(NewOffsets), std::move(NewCols));
  }
  return graph::CsrGraph(std::move(RowOffsets), std::move(Cols));
}

inline graph::CsrGraph referenceGenerateRmat(const graph::RmatParams &Params) {
  uint32_t NumVertices = 1u << Params.Scale;
  auto NumEdges = static_cast<uint64_t>(Params.EdgeFactor * NumVertices);
  Xoshiro256 Rng(Params.Seed);
  std::vector<graph::Edge> Edges;
  double AB = Params.A + Params.B;
  double ABC = AB + Params.C;
  for (uint64_t E = 0; E < NumEdges; ++E) {
    uint32_t Src = 0, Dst = 0;
    for (uint32_t Bit = 0; Bit < Params.Scale; ++Bit) {
      double R = Rng.nextDouble();
      Src <<= 1;
      Dst <<= 1;
      if (R < Params.A) {
        // Top-left quadrant: both bits zero.
      } else if (R < AB) {
        Dst |= 1;
      } else if (R < ABC) {
        Src |= 1;
      } else {
        Src |= 1;
        Dst |= 1;
      }
    }
    Edges.emplace_back(Src, Dst);
  }
  return referenceBuildCsr(NumVertices, std::move(Edges));
}

inline graph::CsrGraph
referenceGeneratePowerLaw(const graph::PowerLawParams &Params) {
  uint32_t NumVertices = Params.NumVertices;
  auto NumEdges = static_cast<uint64_t>(Params.AverageDegree * NumVertices);
  double Exponent = -1.0 / (Params.Gamma - 1.0);
  double V0 = static_cast<double>(NumVertices) * 0.001 + 1.0;
  std::vector<double> Cumulative(NumVertices);
  double Sum = 0.0;
  for (uint32_t V = 0; V < NumVertices; ++V) {
    Sum += std::pow(static_cast<double>(V) + V0, Exponent);
    Cumulative[V] = Sum;
  }

  Xoshiro256 Rng(Params.Seed);
  auto SampleVertex = [&]() -> uint32_t {
    double R = Rng.nextDouble() * Sum;
    auto It = std::lower_bound(Cumulative.begin(), Cumulative.end(), R);
    if (It == Cumulative.end())
      return NumVertices - 1;
    return static_cast<uint32_t>(It - Cumulative.begin());
  };

  std::vector<graph::Edge> Edges;
  for (uint64_t E = 0; E < NumEdges; ++E) {
    uint32_t Src = SampleVertex();
    uint32_t Dst = SampleVertex();
    Edges.emplace_back(Src, Dst);
  }
  return referenceBuildCsr(NumVertices, std::move(Edges));
}

} // namespace testref
} // namespace atmem

#endif // ATMEM_TESTS_REFERENCEGRAPH_H
