//===----------------------------------------------------------------------===//
// Unit tests for the graph library: CSR building, generators, datasets,
// and edge-list IO.
//===----------------------------------------------------------------------===//

#include "graph/CsrGraph.h"
#include "graph/Datasets.h"
#include "graph/EdgeListIO.h"
#include "graph/Generators.h"

#include "TestTempDir.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace atmem::graph;

namespace {

TEST(CsrGraphTest, BuildFromEdges) {
  CsrGraph G = buildCsr(4, {{0, 1}, {0, 2}, {1, 2}, {3, 0}});
  EXPECT_EQ(G.numVertices(), 4u);
  EXPECT_EQ(G.numEdges(), 4u);
  EXPECT_EQ(G.outDegree(0), 2u);
  EXPECT_EQ(G.outDegree(2), 0u);
  auto N0 = G.neighbors(0);
  ASSERT_EQ(N0.size(), 2u);
  EXPECT_EQ(N0[0], 1u);
  EXPECT_EQ(N0[1], 2u);
}

TEST(CsrGraphTest, SelfLoopsRemovedByDefault) {
  CsrGraph G = buildCsr(3, {{0, 0}, {0, 1}, {1, 1}});
  EXPECT_EQ(G.numEdges(), 1u);
}

TEST(CsrGraphTest, SelfLoopsKeptOnRequest) {
  BuildOptions Options;
  Options.RemoveSelfLoops = false;
  CsrGraph G = buildCsr(3, {{0, 0}, {0, 1}}, Options);
  EXPECT_EQ(G.numEdges(), 2u);
}

TEST(CsrGraphTest, DeduplicateEdges) {
  BuildOptions Options;
  Options.DeduplicateEdges = true;
  CsrGraph G = buildCsr(3, {{0, 1}, {0, 1}, {0, 2}, {0, 2}}, Options);
  EXPECT_EQ(G.numEdges(), 2u);
}

TEST(CsrGraphTest, SymmetrizeAddsReverseEdges) {
  BuildOptions Options;
  Options.Symmetrize = true;
  CsrGraph G = buildCsr(3, {{0, 1}}, Options);
  EXPECT_EQ(G.numEdges(), 2u);
  EXPECT_EQ(G.neighbors(1)[0], 0u);
}

TEST(CsrGraphTest, NeighborsSorted) {
  CsrGraph G = buildCsr(4, {{0, 3}, {0, 1}, {0, 2}});
  auto N = G.neighbors(0);
  EXPECT_TRUE(std::is_sorted(N.begin(), N.end()));
}

TEST(CsrGraphTest, MaxDegreeVertex) {
  CsrGraph G = buildCsr(4, {{2, 0}, {2, 1}, {2, 3}, {0, 1}});
  EXPECT_EQ(G.maxDegreeVertex(), 2u);
}

TEST(CsrGraphTest, EmptyGraph) {
  CsrGraph G = buildCsr(0, {});
  EXPECT_EQ(G.numVertices(), 0u);
  EXPECT_EQ(G.numEdges(), 0u);
  EXPECT_EQ(G.maxDegreeVertex(), 0u);
}

TEST(CsrGraphTest, TopDegreeEdgeShare) {
  // Vertex 0 owns 9 of 10 edges.
  std::vector<Edge> Edges;
  for (uint32_t I = 1; I < 10; ++I)
    Edges.push_back({0, I});
  Edges.push_back({1, 2});
  CsrGraph G = buildCsr(10, Edges);
  EXPECT_NEAR(G.topDegreeEdgeShare(0.1), 0.9, 1e-9);
  EXPECT_DOUBLE_EQ(G.topDegreeEdgeShare(1.0), 1.0);
}

TEST(CsrGraphTest, RandomWeightsDeterministicAndInRange) {
  CsrGraph G = buildCsr(4, {{0, 1}, {0, 2}, {1, 3}});
  CsrGraph W1 = withRandomWeights(G, 255, 42);
  CsrGraph W2 = withRandomWeights(G, 255, 42);
  ASSERT_TRUE(W1.hasWeights());
  EXPECT_EQ(W1.weights(), W2.weights());
  for (uint32_t W : W1.weights()) {
    EXPECT_GE(W, 1u);
    EXPECT_LE(W, 255u);
  }
}

TEST(RmatGeneratorTest, DeterministicForSeed) {
  RmatParams Params;
  Params.Scale = 10;
  Params.EdgeFactor = 8;
  CsrGraph A = generateRmat(Params);
  CsrGraph B = generateRmat(Params);
  EXPECT_EQ(A.cols(), B.cols());
  EXPECT_EQ(A.rowOffsets(), B.rowOffsets());
}

TEST(RmatGeneratorTest, SizeMatchesParameters) {
  RmatParams Params;
  Params.Scale = 10;
  Params.EdgeFactor = 8;
  CsrGraph G = generateRmat(Params);
  EXPECT_EQ(G.numVertices(), 1024u);
  // Self loops removed, so slightly under V * EdgeFactor.
  EXPECT_LE(G.numEdges(), 8192u);
  EXPECT_GT(G.numEdges(), 7000u);
}

TEST(RmatGeneratorTest, ProducesSkewedDegrees) {
  RmatParams Params;
  Params.Scale = 12;
  Params.EdgeFactor = 16;
  CsrGraph G = generateRmat(Params);
  // Graph500 parameters concentrate edges heavily.
  EXPECT_GT(G.topDegreeEdgeShare(0.01), 0.1);
}

TEST(PowerLawGeneratorTest, DeterministicForSeed) {
  PowerLawParams Params;
  Params.NumVertices = 2000;
  Params.AverageDegree = 8;
  CsrGraph A = generatePowerLaw(Params);
  CsrGraph B = generatePowerLaw(Params);
  EXPECT_EQ(A.cols(), B.cols());
}

TEST(PowerLawGeneratorTest, HubsAtLowIds) {
  PowerLawParams Params;
  Params.NumVertices = 4096;
  Params.AverageDegree = 16;
  Params.Gamma = 2.0;
  CsrGraph G = generatePowerLaw(Params);
  uint64_t FrontDegrees = 0, BackDegrees = 0;
  for (VertexId V = 0; V < 100; ++V)
    FrontDegrees += G.outDegree(V);
  for (VertexId V = G.numVertices() - 100; V < G.numVertices(); ++V)
    BackDegrees += G.outDegree(V);
  EXPECT_GT(FrontDegrees, 5 * BackDegrees);
}

TEST(PowerLawGeneratorTest, GammaControlsSkew) {
  PowerLawParams Heavy;
  Heavy.NumVertices = 8192;
  Heavy.AverageDegree = 16;
  Heavy.Gamma = 1.9; // Twitter-like.
  PowerLawParams Light = Heavy;
  Light.Gamma = 2.6; // Pokec-like.
  double HeavyShare = generatePowerLaw(Heavy).topDegreeEdgeShare(0.01);
  double LightShare = generatePowerLaw(Light).topDegreeEdgeShare(0.01);
  EXPECT_GT(HeavyShare, LightShare);
}

TEST(DatasetTest, NamesRegistry) {
  EXPECT_EQ(datasetNames().size(), 5u);
  for (const std::string &Name : datasetNames())
    EXPECT_TRUE(isKnownDataset(Name));
  EXPECT_FALSE(isKnownDataset("orkut"));
}

TEST(DatasetTest, ScaledSizesOrdered) {
  // Relative sizes survive scaling: pokec < rmat24 < twitter <= friendster.
  double Scale = 512;
  Dataset Pokec = makeDataset("pokec", Scale);
  Dataset Rmat24 = makeDataset("rmat24", Scale);
  Dataset Twitter = makeDataset("twitter", Scale);
  EXPECT_LT(Pokec.Graph.numEdges(), Rmat24.Graph.numEdges());
  EXPECT_LT(Rmat24.Graph.numEdges(), Twitter.Graph.numEdges());
}

TEST(DatasetTest, DeterministicAcrossCalls) {
  Dataset A = makeDataset("pokec", 512);
  Dataset B = makeDataset("pokec", 512);
  EXPECT_EQ(A.Graph.cols(), B.Graph.cols());
}

TEST(DatasetTest, MinimumVertexFloor) {
  Dataset Tiny = makeDataset("pokec", 1e9);
  EXPECT_GE(Tiny.Graph.numVertices(), 1024u);
}

TEST(EdgeListIOTest, RoundTrip) {
  CsrGraph G = buildCsr(5, {{0, 1}, {1, 2}, {2, 3}, {4, 0}});
  std::string Path = atmem::testutil::tempPath("atmem_edges_test.txt");
  ASSERT_TRUE(writeEdgeList(G, Path));
  auto Loaded = readEdgeList(Path);
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_EQ(Loaded->numVertices(), G.numVertices());
  EXPECT_EQ(Loaded->cols(), G.cols());
  EXPECT_EQ(Loaded->rowOffsets(), G.rowOffsets());
  std::remove(Path.c_str());
}

TEST(EdgeListIOTest, MissingFileFails) {
  EXPECT_FALSE(readEdgeList("/nonexistent/path/graph.txt").has_value());
}

TEST(EdgeListIOTest, CommentsIgnored) {
  std::string Path = atmem::testutil::tempPath("atmem_edges_comments.txt");
  std::FILE *File = std::fopen(Path.c_str(), "w");
  ASSERT_NE(File, nullptr);
  std::fputs("# header comment\n0 1\n\n1 2\n", File);
  std::fclose(File);
  auto Loaded = readEdgeList(Path);
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_EQ(Loaded->numEdges(), 2u);
  std::remove(Path.c_str());
}

TEST(EdgeListIOTest, MalformedLineFails) {
  std::string Path = atmem::testutil::tempPath("atmem_edges_bad.txt");
  std::FILE *File = std::fopen(Path.c_str(), "w");
  ASSERT_NE(File, nullptr);
  std::fputs("0 1\nbogus line\n", File);
  std::fclose(File);
  EXPECT_FALSE(readEdgeList(Path).has_value());
  std::remove(Path.c_str());
}

} // namespace
