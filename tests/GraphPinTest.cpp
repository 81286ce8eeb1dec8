//===----------------------------------------------------------------------===//
// Pins the bytes of every generated paper dataset. The generators and the
// CSR build may change how they compute a graph, never which graph they
// compute: each dataset's row offsets and column array hash to the value
// recorded here. A failure means a figure would now run on another graph.
//===----------------------------------------------------------------------===//

#include "graph/Datasets.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <string>

using namespace atmem::graph;

namespace {

/// FNV-1a 64 continued over \p Size bytes at \p Data.
uint64_t fnv1a(uint64_t Hash, const void *Data, size_t Size) {
  const auto *Bytes = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I < Size; ++I) {
    Hash ^= Bytes[I];
    Hash *= 1099511628211ull;
  }
  return Hash;
}

/// FNV-1a 64 over the bytes of rowOffsets(), continued over cols().
uint64_t graphHash(const CsrGraph &G) {
  uint64_t Hash = 1469598103934665603ull;
  Hash = fnv1a(Hash, G.rowOffsets().data(),
               G.rowOffsets().size() * sizeof(G.rowOffsets()[0]));
  return fnv1a(Hash, G.cols().data(), G.cols().size() * sizeof(G.cols()[0]));
}

struct PinnedGraph {
  const char *Name;
  double Divisor;
  uint64_t Hash;
};

void PrintTo(const PinnedGraph &Pin, std::ostream *OS) {
  *OS << Pin.Name << " at 1/" << Pin.Divisor;
}

class GraphPinTest : public testing::TestWithParam<PinnedGraph> {};

TEST_P(GraphPinTest, BytesMatchPinnedHash) {
  const PinnedGraph &Pin = GetParam();
  Dataset D = makeDataset(Pin.Name, Pin.Divisor);
  uint64_t Hash = graphHash(D.Graph);
  char Hex[17];
  std::snprintf(Hex, sizeof(Hex), "%016" PRIx64, Hash);
  EXPECT_EQ(Hash, Pin.Hash) << Pin.Name << " at 1/" << Pin.Divisor
                            << " hashes to " << Hex;
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, GraphPinTest,
    testing::Values(PinnedGraph{"pokec", 1024, 0x4fa6b3aa5e815590ull},
                    PinnedGraph{"rmat24", 1024, 0x2685bfc5dd46946eull},
                    PinnedGraph{"twitter", 1024, 0x19c1a409f12787a8ull},
                    PinnedGraph{"rmat27", 1024, 0xe53b480f65fbbdaaull},
                    PinnedGraph{"friendster", 1024, 0x70473e03e693d161ull},
                    PinnedGraph{"pokec", 256, 0x4f3344533486ee89ull},
                    PinnedGraph{"rmat24", 256, 0x9069a23465c91387ull},
                    PinnedGraph{"twitter", 256, 0x29bd4e75998c20e9ull}),
    [](const testing::TestParamInfo<PinnedGraph> &Info) {
      return std::string(Info.param.Name) + "_" +
             std::to_string(static_cast<int>(Info.param.Divisor));
    });

} // namespace
