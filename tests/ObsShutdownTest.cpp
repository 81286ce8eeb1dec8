//===----------------------------------------------------------------------===//
// Shutdown-ordering tests for the observability writers: the async
// trace-spill thread's destructor-vs-finish() paths, truncation detection
// when a process dies without either, and the decision ring's behaviour
// across abnormal exits and injected close-time failures — the trailer
// and the published ring head must stay consistent whichever path runs.
//===----------------------------------------------------------------------===//

#include "fault/FaultInjection.h"
#include "obs/DecisionLog.h"
#include "obs/RingLog.h"
#include "profiler/TraceFile.h"

#include "TestTempDir.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

using namespace atmem;
using namespace atmem::obs;
using testutil::tempPath;

namespace {

class ObsShutdownTest : public ::testing::Test {
protected:
  void SetUp() override {
    DecisionLog::instance().close();
    fault::FaultRegistry::instance().disarmAll();
  }
  void TearDown() override {
    DecisionLog::instance().close();
    fault::FaultRegistry::instance().disarmAll();
  }
};

/// Reads a trace back, returning true when the file is complete and
/// filling \p Events with the decoded stream.
bool readTrace(const std::string &Path, std::vector<uint64_t> &Events) {
  prof::TraceReader Reader;
  if (!Reader.open(Path))
    return false;
  Events.clear();
  return Reader.forEach([&Events](uint64_t Va) { Events.push_back(Va); });
}

//===----------------------------------------------------------------------===//
// Async trace spill: destructor vs explicit finish()
//===----------------------------------------------------------------------===//

TEST_F(ObsShutdownTest, TraceWriterDestructorDrainsAndPatchesHeader) {
  std::string Path = tempPath("shutdown_trace_dtor.bin");
  {
    prof::TraceWriter Writer;
    ASSERT_TRUE(Writer.open(Path));
    // Enough events to force several async spill hand-offs.
    for (uint64_t I = 0; I < (1 << 17) + 37; ++I)
      Writer.record(0x1000 + I * 64);
    // No finish(): the destructor must drain the spill queue, patch the
    // header's event count, and close — same bytes as an explicit finish.
  }
  std::vector<uint64_t> Events;
  ASSERT_TRUE(readTrace(Path, Events));
  ASSERT_EQ(Events.size(), (1u << 17) + 37u);
  EXPECT_EQ(Events.front(), 0x1000u);
  EXPECT_EQ(Events.back(), 0x1000u + ((1ull << 17) + 36) * 64);
}

TEST_F(ObsShutdownTest, TraceWriterFinishThenDestructorIsIdempotent) {
  std::string Path = tempPath("shutdown_trace_finish.bin");
  {
    prof::TraceWriter Writer;
    ASSERT_TRUE(Writer.open(Path));
    std::vector<uint64_t> Batch;
    for (uint64_t I = 0; I < 1000; ++I)
      Batch.push_back(I * 8);
    Writer.recordBatchOwned(std::move(Batch));
    EXPECT_TRUE(Writer.finish());
    EXPECT_FALSE(Writer.isOpen());
    // The destructor now runs over an already-finished writer: no double
    // close, no second trailer, no crash.
  }
  std::vector<uint64_t> Events;
  ASSERT_TRUE(readTrace(Path, Events));
  EXPECT_EQ(Events.size(), 1000u);
}

TEST_F(ObsShutdownTest, AbnormalExitNeverServesUnfinishedTraceEvents) {
  std::string Path = tempPath("shutdown_trace_abexit.bin");
  pid_t Child = ::fork();
  ASSERT_GE(Child, 0);
  if (Child == 0) {
    // The child dies without running destructors: whatever the spill
    // thread managed to write, the header's placeholder count (zero) was
    // never patched.
    auto *Writer = new prof::TraceWriter();
    if (!Writer->open(Path))
      ::_exit(1);
    for (uint64_t I = 0; I < (1 << 17); ++I)
      Writer->record(I);
    ::_exit(0);
  }
  int Status = 0;
  ASSERT_EQ(::waitpid(Child, &Status, 0), Child);
  ASSERT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0);

  // Depending on how far the spill thread got before the exit, the file
  // is either headerless (stdio buffer never flushed — the reader rejects
  // it) or carries the unpatched placeholder header whose zero count
  // marks it incomplete. Either way, not one event of the torn file may
  // be served as if it were recorded.
  prof::TraceReader Reader;
  if (Reader.open(Path)) {
    EXPECT_EQ(Reader.eventCount(), 0u);
    std::vector<uint64_t> Events;
    EXPECT_TRUE(readTrace(Path, Events));
    EXPECT_TRUE(Events.empty());
  }
}

//===----------------------------------------------------------------------===//
// Ring writer: abnormal exit and close-time faults
//===----------------------------------------------------------------------===//

TEST_F(ObsShutdownTest, RingSurvivesExitWithoutCloseLosingOnlyTheTail) {
  std::string Base = tempPath("shutdown_ring_abexit.atdr");
  pid_t Child = ::fork();
  ASSERT_GE(Child, 0);
  if (Child == 0) {
    std::string Error;
    if (!openDecisionLogRing(Base, RingLogOptions(), &Error))
      ::_exit(1);
    DecisionLog &Log = DecisionLog::instance();
    for (uint64_t Epoch = 0; Epoch < 5; ++Epoch) {
      Log.beginEpoch();
      ObjectEpochRecord Obj;
      Obj.Object = 1;
      Obj.NameId = Log.nameId("v");
      Obj.NumChunks = 4;
      Log.recordObject(Obj);
    }
    ::_exit(0); // No close(): no trailer, mmap pages left to the kernel.
  }
  int Status = 0;
  ASSERT_EQ(::waitpid(Child, &Status, 0), Child);
  ASSERT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0);

  // Four of the five epochs are provably complete (each terminated by
  // the next EpochBegin); the fifth was in flight and must be dropped.
  DecisionArtifact Artifact;
  RingRecoveryStats Stats;
  std::string Error;
  ASSERT_TRUE(readRingLog(Base, Artifact, &Error, &Stats)) << Error;
  EXPECT_FALSE(Stats.CleanClose);
  EXPECT_EQ(Stats.SalvagedEpochs, 4u);
  EXPECT_EQ(Stats.TornFrames, 0u);
  EXPECT_GT(Stats.DroppedTail, 0u);
  ASSERT_TRUE(validateDecisionLog(Artifact, &Error)) << Error;
}

TEST_F(ObsShutdownTest, FaultedTrailerWriteStillLeavesASalvageableRing) {
  std::string Base = tempPath("shutdown_ring_closefault.atdr");
  std::string Error;
  ASSERT_TRUE(openDecisionLogRing(Base, RingLogOptions(), &Error)) << Error;
  DecisionLog &Log = DecisionLog::instance();
  for (uint64_t Epoch = 0; Epoch < 3; ++Epoch) {
    Log.beginEpoch();
    ObjectEpochRecord Obj;
    Obj.Object = 1;
    Obj.NameId = Log.nameId("v");
    Obj.NumChunks = 4;
    Log.recordObject(Obj);
  }

  // The device fails exactly when close() tries to write the trailer.
  ASSERT_TRUE(fault::armFromSpec("obs.ring_write=every:1", &Error)) << Error;
  EXPECT_FALSE(Log.close(&Error));
  EXPECT_NE(Error.find("write failure"), std::string::npos) << Error;
  fault::FaultRegistry::instance().disarmAll();

  // close() still tore the sink down: the head is unpublished, and the
  // on-disk state reads exactly like a crash (no trailer, last epoch
  // dropped) rather than something half-closed.
  RingHead Head = ringHead();
  EXPECT_EQ(Head.Segment, 0u);
  EXPECT_EQ(Head.Offset, 0u);
  EXPECT_EQ(Head.NextSeq, 0u);
  EXPECT_FALSE(DecisionLog::instance().isOpen());

  DecisionArtifact Artifact;
  RingRecoveryStats Stats;
  ASSERT_TRUE(readRingLog(Base, Artifact, &Error, &Stats)) << Error;
  EXPECT_FALSE(Stats.CleanClose);
  EXPECT_EQ(Stats.SalvagedEpochs, 2u);
  ASSERT_TRUE(validateDecisionLog(Artifact, &Error)) << Error;
}

TEST_F(ObsShutdownTest, DestructorWithoutFinishStillUnmapsCleanly) {
  // openSink hands the sink to the process-wide log; closing without a
  // prior record must write trailer-only and succeed.
  std::string Base = tempPath("shutdown_ring_empty.atdr");
  std::string Error;
  ASSERT_TRUE(openDecisionLogRing(Base, RingLogOptions(), &Error)) << Error;
  ASSERT_TRUE(DecisionLog::instance().close(&Error)) << Error;

  DecisionArtifact Artifact;
  RingRecoveryStats Stats;
  ASSERT_TRUE(readRingLog(Base, Artifact, &Error, &Stats)) << Error;
  EXPECT_TRUE(Stats.CleanClose);
  EXPECT_EQ(Stats.SalvagedEpochs, 0u);
  EXPECT_TRUE(validateDecisionLog(Artifact, &Error)) << Error;
}

} // namespace
