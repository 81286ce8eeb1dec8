#include "graph/Generators.h"

#include "support/Error.h"
#include "support/Prng.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>
#include <vector>

using namespace atmem;
using namespace atmem::graph;

CsrGraph graph::generateRmat(const RmatParams &Params) {
  if (Params.Scale < 1 || Params.Scale > 31)
    reportFatalError("R-MAT scale must lie in [1, 31], got " +
                     std::to_string(Params.Scale));
  if (Params.A + Params.B + Params.C >= 1.0)
    reportFatalError("R-MAT quadrant probabilities must sum below 1");
  uint32_t NumVertices = 1u << Params.Scale;
  auto NumEdges = static_cast<uint64_t>(Params.EdgeFactor * NumVertices);

  Xoshiro256 Rng(Params.Seed);
  std::vector<Edge> Edges;
  Edges.reserve(NumEdges);
  const double A = Params.A;
  const double AB = A + Params.B;
  const double ABC = AB + Params.C;
  for (uint64_t E = 0; E < NumEdges; ++E) {
    uint32_t Src = 0, Dst = 0;
    for (uint32_t Bit = 0; Bit < Params.Scale; ++Bit) {
      // Quadrants in order: [0, A) top-left, [A, AB) top-right,
      // [AB, ABC) bottom-left, [ABC, 1) bottom-right. The same
      // comparisons as a four-way branch, without branching on a random
      // value.
      double R = Rng.nextDouble();
      uint32_t SrcBit = R >= AB;
      uint32_t DstBit = (R >= A) & ((R < AB) | (R >= ABC));
      Src = (Src << 1) | SrcBit;
      Dst = (Dst << 1) | DstBit;
    }
    Edges.emplace_back(Src, Dst);
  }
  return buildCsr(NumVertices, std::move(Edges));
}

CsrGraph graph::generatePowerLaw(const PowerLawParams &Params) {
  assert(Params.Gamma > 1.0 && "power-law exponent must exceed 1");
  uint32_t NumVertices = Params.NumVertices;
  auto NumEdges =
      static_cast<uint64_t>(Params.AverageDegree * NumVertices);

  // Chung-Lu expected-degree weights: w_v proportional to
  // (v + v0)^(-1/(gamma-1)); v0 softens the head so the top hub does not
  // absorb a constant fraction of all edges regardless of size.
  double Exponent = -1.0 / (Params.Gamma - 1.0);
  double V0 = static_cast<double>(NumVertices) * 0.001 + 1.0;
  std::vector<double> Cumulative(NumVertices);
  double Sum = 0.0;
  for (uint32_t V = 0; V < NumVertices; ++V) {
    Sum += std::pow(static_cast<double>(V) + V0, Exponent);
    Cumulative[V] = Sum;
  }

  // Inverse-CDF sampling: a draw X (the 53 bits nextDouble() uses) maps
  // to R(X) = X * 2^-53 * Sum, and its vertex is the first with
  // Cumulative >= R(X). A guide table (Chen & Asau's cutpoints, keyed on
  // the integer draw) holds that answer for the first draw of each of
  // the 2^16 buckets of equal top bits. R does not decrease as X grows,
  // so a draw in bucket K lands in [Guide[K], Guide[K + 1]]: every vertex
  // before Guide[K] is below R(X), and when none in
  // [Guide[K], Guide[K + 1]) reaches it, lower_bound returns
  // Guide[K + 1], which is then the answer. That is the vertex the search
  // over every vertex finds, from the same draw sequence.
  constexpr unsigned GuideBits = 16;
  constexpr unsigned BucketShift = 53 - GuideBits;
  constexpr uint32_t NumBuckets = 1u << GuideBits;
  auto DrawValue = [Sum](uint64_t X) {
    return static_cast<double>(X) * 0x1.0p-53 * Sum;
  };
  std::vector<uint32_t> Guide(NumBuckets + 1);
  uint32_t First = 0;
  for (uint32_t K = 0; K < NumBuckets; ++K) {
    double R = DrawValue(static_cast<uint64_t>(K) << BucketShift);
    while (First < NumVertices && Cumulative[First] < R)
      ++First;
    Guide[K] = First;
  }
  Guide[NumBuckets] = NumVertices;

  Xoshiro256 Rng(Params.Seed);
  auto SampleVertex = [&]() -> uint32_t {
    uint64_t X = Rng.next() >> 11;
    uint64_t K = X >> BucketShift;
    const double *It =
        std::lower_bound(Cumulative.data() + Guide[K],
                         Cumulative.data() + Guide[K + 1], DrawValue(X));
    if (It == Cumulative.data() + NumVertices)
      return NumVertices - 1;
    return static_cast<uint32_t>(It - Cumulative.data());
  };

  std::vector<Edge> Edges;
  Edges.reserve(NumEdges);
  for (uint64_t E = 0; E < NumEdges; ++E) {
    uint32_t Src = SampleVertex();
    uint32_t Dst = SampleVertex();
    Edges.emplace_back(Src, Dst);
  }
  return buildCsr(NumVertices, std::move(Edges));
}
