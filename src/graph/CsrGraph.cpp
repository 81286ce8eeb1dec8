#include "graph/CsrGraph.h"

#include "support/Error.h"
#include "support/Prng.h"

#include <algorithm>
#include <cassert>

using namespace atmem;
using namespace atmem::graph;

CsrGraph::CsrGraph(std::vector<uint64_t> RowOffsetsIn,
                   std::vector<VertexId> ColsIn,
                   std::vector<uint32_t> WeightsIn)
    : RowOffsets(std::move(RowOffsetsIn)), Cols(std::move(ColsIn)),
      Weights(std::move(WeightsIn)) {
  if (RowOffsets.empty())
    reportFatalError("CSR row offsets must contain at least one entry");
  if (RowOffsets.back() != Cols.size())
    reportFatalError("CSR row offsets do not cover the column array");
  if (!Weights.empty() && Weights.size() != Cols.size())
    reportFatalError("CSR weight array size mismatch");
}

VertexId CsrGraph::maxDegreeVertex() const {
  VertexId Best = 0;
  uint64_t BestDegree = 0;
  for (VertexId V = 0; V < numVertices(); ++V) {
    uint64_t Degree = outDegree(V);
    if (Degree > BestDegree) {
      BestDegree = Degree;
      Best = V;
    }
  }
  return Best;
}

double CsrGraph::topDegreeEdgeShare(double Fraction) const {
  if (numEdges() == 0 || numVertices() == 0)
    return 0.0;
  std::vector<uint64_t> Degrees(numVertices());
  for (VertexId V = 0; V < numVertices(); ++V)
    Degrees[V] = outDegree(V);
  std::sort(Degrees.begin(), Degrees.end(), std::greater<uint64_t>());
  auto Top = static_cast<size_t>(Fraction * numVertices());
  if (Top == 0)
    Top = 1;
  uint64_t Sum = 0;
  for (size_t I = 0; I < Top && I < Degrees.size(); ++I)
    Sum += Degrees[I];
  return static_cast<double>(Sum) / static_cast<double>(numEdges());
}

CsrGraph graph::buildCsr(uint32_t NumVertices, std::vector<Edge> Edges,
                         const BuildOptions &Options) {
  if (Options.Symmetrize) {
    size_t Original = Edges.size();
    Edges.reserve(Original * 2);
    for (size_t I = 0; I < Original; ++I)
      Edges.emplace_back(Edges[I].second, Edges[I].first);
  }
  if (Options.RemoveSelfLoops) {
    Edges.erase(std::remove_if(Edges.begin(), Edges.end(),
                               [](const Edge &E) {
                                 return E.first == E.second;
                               }),
                Edges.end());
  }
  for ([[maybe_unused]] const Edge &E : Edges)
    assert(E.first < NumVertices && E.second < NumVertices &&
           "edge endpoint out of range");

  // Counting sort by source builds the offsets in O(V + E).
  std::vector<uint64_t> RowOffsets(NumVertices + 1, 0);
  for (const Edge &E : Edges)
    ++RowOffsets[E.first + 1];
  for (uint32_t V = 0; V < NumVertices; ++V)
    RowOffsets[V + 1] += RowOffsets[V];
  std::vector<uint64_t> Cursor(RowOffsets.begin(), RowOffsets.end() - 1);

  if (!Options.SortNeighbors && !Options.DeduplicateEdges) {
    // Rows keep the input order of their edges.
    std::vector<VertexId> Cols(Edges.size());
    for (const Edge &E : Edges)
      Cols[Cursor[E.first]++] = E.second;
    return CsrGraph(std::move(RowOffsets), std::move(Cols));
  }

  // Sorted rows by two counting-sort passes. Pass 1 buckets the sources
  // by destination; pass 2 walks the destinations in increasing order and
  // appends each to its source's row, so every row comes out sorted, with
  // duplicates adjacent. DstEnd[D] starts as the first slot of
  // destination D and ends as the first slot of D + 1.
  std::vector<uint64_t> DstEnd(NumVertices + 1, 0);
  for (const Edge &E : Edges)
    ++DstEnd[E.second + 1];
  for (uint32_t V = 0; V < NumVertices; ++V)
    DstEnd[V + 1] += DstEnd[V];
  std::vector<VertexId> SrcByDst(Edges.size());
  for (const Edge &E : Edges)
    SrcByDst[DstEnd[E.second]++] = E.first;
  // Release the edge list before Cols is allocated: the peak then stays
  // at the list plus one 4-byte array, as with a single scatter.
  std::vector<Edge>().swap(Edges);

  std::vector<VertexId> Cols(SrcByDst.size());
  uint64_t I = 0;
  for (uint32_t D = 0; D < NumVertices; ++D)
    for (; I < DstEnd[D]; ++I)
      Cols[Cursor[SrcByDst[I]]++] = D;

  if (Options.DeduplicateEdges) {
    // Compact each row in place, keeping the first of each run.
    uint64_t Out = 0;
    for (uint32_t V = 0; V < NumVertices; ++V) {
      uint64_t RowBegin = Out;
      for (uint64_t J = RowOffsets[V]; J < RowOffsets[V + 1]; ++J)
        if (Out == RowBegin || Cols[J] != Cols[Out - 1])
          Cols[Out++] = Cols[J];
      RowOffsets[V] = RowBegin;
    }
    RowOffsets[NumVertices] = Out;
    Cols.resize(Out);
  }
  return CsrGraph(std::move(RowOffsets), std::move(Cols));
}

CsrGraph graph::withRandomWeights(CsrGraph G, uint32_t MaxWeight,
                                  uint64_t Seed) {
  assert(MaxWeight > 0 && "weights need a positive range");
  std::vector<uint32_t> Weights(G.numEdges());
  const std::vector<uint64_t> &Offsets = G.rowOffsets();
  const std::vector<VertexId> &Cols = G.cols();
  for (VertexId V = 0; V + 1 < Offsets.size(); ++V) {
    for (uint64_t I = Offsets[V]; I < Offsets[V + 1]; ++I) {
      // Stable per-edge weight: hash of (seed, src, dst).
      SplitMix64 Hash(Seed ^ (static_cast<uint64_t>(V) << 32) ^ Cols[I]);
      Weights[I] = static_cast<uint32_t>(Hash.next() % MaxWeight) + 1;
    }
  }
  return CsrGraph(std::vector<uint64_t>(G.rowOffsets()),
                  std::vector<VertexId>(G.cols()), std::move(Weights));
}
