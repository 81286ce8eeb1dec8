//===----------------------------------------------------------------------===//
// Death tests for the library's programmatic-error contracts: invariant
// violations must abort with a diagnostic rather than corrupt state.
//
// Only genuine invariant violations belong here. Conditions a caller can
// legitimately hit with user input (unknown dataset/kernel names, tier
// capacity, migration refusal) have query/result APIs — isKnownDataset(),
// isKnownKernel(), DataObjectRegistry::tryCreate(), MigrationStatus — and
// are tested below and in the migrator/fault suites as error results.
//===----------------------------------------------------------------------===//

#include "apps/Kernel.h"
#include "graph/CsrGraph.h"
#include "graph/Datasets.h"
#include "mem/DataObject.h"
#include "sim/CacheSim.h"
#include "sim/Tlb.h"
#include "support/Error.h"
#include "support/Options.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"

#include <gtest/gtest.h>

using namespace atmem;

namespace {

TEST(DeathTest, ReportFatalErrorAborts) {
  EXPECT_DEATH(reportFatalError("boom"), "atmem fatal error: boom");
}

TEST(DeathTest, UnreachableAborts) {
  EXPECT_DEATH(ATMEM_UNREACHABLE("impossible"), "impossible");
}

TEST(DeathTest, ParseUnsignedRejectsSignedAndOverflowingText) {
  // The fatal parser behind --iterations and --sim-threads; strtoull alone
  // would wrap "-1" to 2^64 - 1.
  EXPECT_DEATH(parseUnsigned("-1"), "malformed unsigned integer: '-1'");
  EXPECT_DEATH(parseUnsigned("+1"), "malformed unsigned integer");
  EXPECT_DEATH(parseUnsigned(" 1"), "malformed unsigned integer");
  EXPECT_DEATH(parseUnsigned("18446744073709551616"),
               "malformed unsigned integer");
  EXPECT_EQ(parseUnsigned("42"), 42u);
}

TEST(DeathTest, Unsigned32OptionRejectsValuesPastTwoToThe32) {
  // The accessor behind every option stored in 32 bits (--iterations,
  // --sim-threads, --jobs, --scale-log2, --vertices): a plain cast would
  // turn 2^32 + 2 into 2.
  OptionParser Parser("tool");
  Parser.addUnsigned("iterations", 1, "iterations");
  Parser.addUnsigned("sim-threads", 1, "threads");
  const char *Argv[] = {"tool", "--iterations=4294967298",
                        "--sim-threads", "4294967295"};
  ASSERT_TRUE(Parser.parse(4, Argv));
  EXPECT_DEATH(Parser.getUnsigned32("iterations"),
               "option '--iterations' value 4294967298 exceeds 4294967295");
  EXPECT_EQ(Parser.getUnsigned("iterations"), 4294967298u);
  EXPECT_EQ(Parser.getUnsigned32("sim-threads"), 4294967295u);
}

TEST(DeathTest, TableRowWidthMismatchAborts) {
  TablePrinter Table({"a", "b"});
  EXPECT_DEATH(Table.addRow({"only-one"}), "row width");
}

// Unknown dataset/kernel names arrive from user input (CLI flags), so the
// contract is a queryable predicate, not an abort: callers check
// isKnown*() and report an error result. makeDataset()/makeKernel() then
// only ever see validated names.
TEST(ErrorResultTest, UnknownDatasetIsReportedNotFatal) {
  EXPECT_FALSE(graph::isKnownDataset("orkut"));
  EXPECT_FALSE(graph::isKnownDataset(""));
  EXPECT_TRUE(graph::isKnownDataset("pokec"));
}

TEST(ErrorResultTest, UnknownKernelIsReportedNotFatal) {
  EXPECT_FALSE(apps::isKnownKernel("gnn"));
  EXPECT_FALSE(apps::isKnownKernel(""));
  EXPECT_TRUE(apps::isKnownKernel("pr"));
}

TEST(DeathTest, NonPowerOfTwoChunkAborts) {
  EXPECT_DEATH(mem::DataObject(0, "x", 0x1000000, 8192, 5000),
               "power of two");
}

TEST(DeathTest, SubPageChunkAborts) {
  EXPECT_DEATH(mem::DataObject(0, "x", 0x1000000, 8192, 1024),
               "power of two");
}

TEST(DeathTest, MismatchedCsrArraysAbort) {
  EXPECT_DEATH(graph::CsrGraph(std::vector<uint64_t>{0, 2},
                               std::vector<graph::VertexId>{1}),
               "row offsets");
}

TEST(DeathTest, MismatchedWeightsAbort) {
  EXPECT_DEATH(graph::CsrGraph(std::vector<uint64_t>{0, 1},
                               std::vector<graph::VertexId>{0},
                               std::vector<uint32_t>{1, 2}),
               "weight");
}

sim::CacheConfig cacheGeometry(uint32_t Ways, uint32_t LineBytes) {
  sim::CacheConfig Config;
  Config.SizeBytes = 1 << 16;
  Config.Ways = Ways;
  Config.LineBytes = LineBytes;
  return Config;
}

// Geometry is validated in release builds too: a zero divisor or a
// non-power-of-two shift would otherwise be silent undefined behaviour.
TEST(DeathTest, CacheZeroWaysAborts) {
  EXPECT_DEATH(sim::CacheSim(cacheGeometry(0, 64)), "at least one way");
}

TEST(DeathTest, CacheZeroLineSizeAborts) {
  EXPECT_DEATH(sim::CacheSim(cacheGeometry(16, 0)), "power of two");
}

TEST(DeathTest, CacheNonPowerOfTwoLineSizeAborts) {
  EXPECT_DEATH(sim::CacheSim(cacheGeometry(16, 48)), "power of two");
}

TEST(DeathTest, TlbZeroWaysAborts) {
  EXPECT_DEATH(sim::TlbArray(64, 0, sim::SmallPageBytes), "at least one way");
}

TEST(DeathTest, TlbEntriesNotMultipleOfWaysAborts) {
  EXPECT_DEATH(sim::TlbArray(30, 4, sim::SmallPageBytes), "multiple");
}

TEST(DeathTest, TlbZeroEntriesAborts) {
  EXPECT_DEATH(sim::TlbArray(0, 4, sim::SmallPageBytes), "multiple");
}

TEST(DeathTest, TlbZeroPageSizeAborts) {
  EXPECT_DEATH(sim::TlbArray(64, 4, 0), "page size");
}

} // namespace
