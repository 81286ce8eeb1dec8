//===----------------------------------------------------------------------===//
// Tests for the live snapshot endpoint (obs/StatsSocket.h): the
// server/client roundtrip over a UNIX socket, per-connection provider
// invocation, stop/restart semantics, path-length validation, and the
// Runtime integration serving atmem-stats-v1 documents with metrics,
// placement, and the ring head.
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"
#include "obs/DecisionLog.h"
#include "obs/Json.h"
#include "obs/StatsSocket.h"
#include "obs/TimeSeries.h"
#include "sim/Machine.h"

#include "TestTempDir.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include <unistd.h>

using namespace atmem;
using namespace atmem::obs;
using testutil::tempPath;

namespace {

class StatsSocketTest : public ::testing::Test {
protected:
  void SetUp() override {
    DecisionLog::instance().close();
    TimeSeries::instance().setEnabled(false);
    TimeSeries::instance().clear();
  }
  void TearDown() override {
    DecisionLog::instance().close();
    TimeSeries::instance().setEnabled(false);
    TimeSeries::instance().clear();
  }
};

//===----------------------------------------------------------------------===//
// Server basics
//===----------------------------------------------------------------------===//

TEST_F(StatsSocketTest, RoundTripInvokesProviderPerConnection) {
  std::string Path = tempPath("stats_roundtrip.sock");
  std::atomic<int> Calls{0};
  StatsServer Server;
  std::string Error;
  ASSERT_TRUE(Server.start(Path,
                           [&Calls] {
                             int N = ++Calls;
                             return "snapshot-" + std::to_string(N);
                           },
                           &Error))
      << Error;
  EXPECT_TRUE(Server.running());
  EXPECT_EQ(Server.path(), Path);

  std::string Body;
  ASSERT_TRUE(statsSocketFetch(Path, Body, &Error)) << Error;
  EXPECT_EQ(Body, "snapshot-1");
  ASSERT_TRUE(statsSocketFetch(Path, Body, &Error)) << Error;
  EXPECT_EQ(Body, "snapshot-2");
  EXPECT_EQ(Calls.load(), 2);

  Server.stop();
  EXPECT_FALSE(Server.running());
}

TEST_F(StatsSocketTest, StopIsIdempotentAndFetchFailsAfter) {
  std::string Path = tempPath("stats_stop.sock");
  StatsServer Server;
  std::string Error;
  ASSERT_TRUE(Server.start(Path, [] { return std::string("x"); }, &Error))
      << Error;
  Server.stop();
  Server.stop(); // Second stop is a no-op, not a crash.
  EXPECT_FALSE(Server.running());

  // stop() unlinked the socket: clients see a connect failure, not a
  // stale file that hangs.
  std::string Body;
  EXPECT_FALSE(statsSocketFetch(Path, Body, &Error));
  EXPECT_FALSE(Error.empty());
}

TEST_F(StatsSocketTest, ServerRestartsOnTheSamePath) {
  std::string Path = tempPath("stats_restart.sock");
  StatsServer Server;
  std::string Error;
  ASSERT_TRUE(Server.start(Path, [] { return std::string("one"); }, &Error))
      << Error;
  Server.stop();
  ASSERT_TRUE(Server.start(Path, [] { return std::string("two"); }, &Error))
      << Error;
  std::string Body;
  ASSERT_TRUE(statsSocketFetch(Path, Body, &Error)) << Error;
  EXPECT_EQ(Body, "two");
  Server.stop();
}

TEST_F(StatsSocketTest, OverlongPathIsRejectedUpFront) {
  // sockaddr_un caps the path; the server must fail with a diagnostic
  // instead of silently truncating to a different file.
  std::string Path = "/tmp/" + std::string(200, 'x') + ".sock";
  StatsServer Server;
  std::string Error;
  EXPECT_FALSE(Server.start(Path, [] { return std::string("x"); }, &Error));
  EXPECT_FALSE(Server.running());
  EXPECT_FALSE(Error.empty());
}

//===----------------------------------------------------------------------===//
// Runtime integration: the atmem-stats-v1 document
//===----------------------------------------------------------------------===//

TEST_F(StatsSocketTest, RuntimeServesPlacementMetricsAndLastEpoch) {
  std::string Socket = tempPath("stats_runtime.sock");
  core::RuntimeConfig Config;
  Config.Machine = sim::nvmDramTestbed(1.0 / 1024);
  Config.Telemetry.StatsSocketPath = Socket;
  {
    core::Runtime Rt(Config);
    core::TrackedArray<uint64_t> Hot = Rt.allocate<uint64_t>("hot", 1 << 16);

    Rt.profilingStart();
    Rt.beginIteration();
    uint64_t State = 7;
    for (int I = 0; I < 50000; ++I) {
      State = State * 6364136223846793005ull + 1442695040888963407ull;
      Hot[(State >> 33) & ((1 << 16) - 1)] += 1;
    }
    Rt.endIteration();
    Rt.profilingStop();
    Rt.optimize();

    std::string Body;
    std::string Error;
    ASSERT_TRUE(statsSocketFetch(Socket, Body, &Error)) << Error;

    JsonValue Doc;
    ASSERT_TRUE(parseJson(Body, Doc, &Error)) << Error;
    const JsonValue *Schema = Doc.findString("schema");
    ASSERT_NE(Schema, nullptr);
    EXPECT_EQ(Schema->StringVal, "atmem-stats-v1");

    const JsonValue *Epoch = Doc.findNumber("epoch");
    ASSERT_NE(Epoch, nullptr);
    EXPECT_EQ(Epoch->NumberVal, 1.0);

    // No ring is open: the head is all zeros but still present.
    const JsonValue *Ring = Doc.find("ring");
    ASSERT_NE(Ring, nullptr);
    ASSERT_NE(Ring->findNumber("next_seq"), nullptr);
    EXPECT_EQ(Ring->findNumber("next_seq")->NumberVal, 0.0);

    const JsonValue *Last = Doc.find("last_epoch");
    ASSERT_NE(Last, nullptr);
    ASSERT_NE(Last->findNumber("epoch"), nullptr);
    EXPECT_EQ(Last->findNumber("epoch")->NumberVal, 1.0);
    const JsonValue *SlowMiss = Last->findNumber("slow_miss_fraction");
    ASSERT_NE(SlowMiss, nullptr);
    EXPECT_GE(SlowMiss->NumberVal, 0.0);
    EXPECT_LE(SlowMiss->NumberVal, 1.0);

    const JsonValue *Metrics = Doc.find("metrics");
    ASSERT_NE(Metrics, nullptr);
    EXPECT_NE(Metrics->find("counters"), nullptr);

    const JsonValue *Placement = Doc.find("placement");
    ASSERT_NE(Placement, nullptr);
    ASSERT_TRUE(Placement->isArray());
    ASSERT_EQ(Placement->Array.size(), 1u);
    const JsonValue &Obj = Placement->Array[0];
    ASSERT_NE(Obj.findString("name"), nullptr);
    EXPECT_EQ(Obj.findString("name")->StringVal, "hot");
    const JsonValue *Fraction = Obj.findNumber("fast_fraction");
    ASSERT_NE(Fraction, nullptr);
    EXPECT_GE(Fraction->NumberVal, 0.0);
    EXPECT_LE(Fraction->NumberVal, 1.0);
  }

  // The Runtime destructor stopped the server and unlinked the socket.
  std::string Body;
  std::string Error;
  EXPECT_FALSE(statsSocketFetch(Socket, Body, &Error));
}

} // namespace
