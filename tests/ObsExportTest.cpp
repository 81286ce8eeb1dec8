//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the telemetry export layer: the JSON parser on well-formed and
/// malformed input, the metrics snapshot round-trip through the
/// atmem-metrics-v1 schema validator, Chrome trace-event structure
/// (B/E pairing, per-tid nesting and timestamps), and an end-to-end run of
/// an instrumented experiment that must surface the full paper-metric
/// catalogue (per-object theta components, W, TR', migration stages).
///
//===----------------------------------------------------------------------===//

#include "baseline/Experiment.h"
#include "graph/Datasets.h"
#include "obs/Export.h"
#include "obs/Json.h"
#include "obs/Trace.h"

#include "TestTempDir.h"

#include "gtest/gtest.h"

#include <set>
#include <string>
#include <thread>

using namespace atmem;

namespace {

class ObsExportTest : public ::testing::Test {
protected:
  void SetUp() override {
    obs::Registry::instance().resetValues();
    obs::Tracer::instance().clear();
    obs::setEnabled(true);
  }
  void TearDown() override {
    obs::setEnabled(false);
    obs::Registry::instance().resetValues();
    obs::Tracer::instance().clear();
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// JSON parser
//===----------------------------------------------------------------------===//

TEST_F(ObsExportTest, JsonParserAcceptsDocumentModel) {
  obs::JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(obs::parseJson(
      R"({"a": 1.5, "b": [1, 2, 3], "c": {"nested": "x\"y"}, "d": true,
          "e": null, "f": -2e3})",
      Doc, &Error))
      << Error;
  ASSERT_TRUE(Doc.isObject());
  const obs::JsonValue *A = Doc.findNumber("a");
  ASSERT_NE(A, nullptr);
  EXPECT_DOUBLE_EQ(A->NumberVal, 1.5);
  const obs::JsonValue *B = Doc.find("b");
  ASSERT_NE(B, nullptr);
  ASSERT_TRUE(B->isArray());
  EXPECT_EQ(B->Array.size(), 3u);
  const obs::JsonValue *C = Doc.find("c");
  ASSERT_NE(C, nullptr);
  const obs::JsonValue *Nested = C->findString("nested");
  ASSERT_NE(Nested, nullptr);
  EXPECT_EQ(Nested->StringVal, "x\"y");
  const obs::JsonValue *F = Doc.findNumber("f");
  ASSERT_NE(F, nullptr);
  EXPECT_DOUBLE_EQ(F->NumberVal, -2000.0);
}

TEST_F(ObsExportTest, JsonParserRejectsMalformedInput) {
  obs::JsonValue Doc;
  for (const char *Bad :
       {"", "{", "[1, 2", "{\"a\": }", "{\"a\": 1,}", "{'a': 1}",
        "{\"a\": 1} trailing", "\"unterminated", "{\"a\": 01}", "nul"}) {
    std::string Error;
    EXPECT_FALSE(obs::parseJson(Bad, Doc, &Error))
        << "accepted malformed input: " << Bad;
    EXPECT_FALSE(Error.empty());
  }
}

//===----------------------------------------------------------------------===//
// Metrics schema round-trip
//===----------------------------------------------------------------------===//

TEST_F(ObsExportTest, MetricsSnapshotRoundTripsThroughSchema) {
  obs::Counter C("roundtrip.counter");
  obs::Gauge G("roundtrip.gauge");
  obs::Histogram H("roundtrip.hist");
  C.add(42);
  G.set(-1.25);
  for (uint64_t V = 0; V < 100; ++V)
    H.record(V * V);

  obs::TelemetrySnapshot Snap = obs::Registry::instance().snapshot();
  std::string Json = obs::metricsJson(Snap);

  obs::JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(obs::parseJson(Json, Doc, &Error)) << Error;
  EXPECT_TRUE(obs::validateMetricsJson(Doc, &Error)) << Error;

  // Parsed values agree with the in-memory snapshot.
  const obs::JsonValue *Counter =
      Doc.find("counters")->findNumber("roundtrip.counter");
  ASSERT_NE(Counter, nullptr);
  EXPECT_DOUBLE_EQ(Counter->NumberVal, 42.0);
  const obs::JsonValue *Gauge =
      Doc.find("gauges")->findNumber("roundtrip.gauge");
  ASSERT_NE(Gauge, nullptr);
  EXPECT_DOUBLE_EQ(Gauge->NumberVal, -1.25);
  const obs::JsonValue *Hist = Doc.find("histograms")->find("roundtrip.hist");
  ASSERT_NE(Hist, nullptr);
  EXPECT_DOUBLE_EQ(Hist->findNumber("count")->NumberVal, 100.0);
  EXPECT_DOUBLE_EQ(Hist->findNumber("max")->NumberVal,
                   static_cast<double>(99 * 99));
}

TEST_F(ObsExportTest, MetricsValidatorRejectsBrokenDocuments) {
  auto Check = [](const char *Text) {
    obs::JsonValue Doc;
    std::string Error;
    EXPECT_TRUE(obs::parseJson(Text, Doc, &Error)) << Error;
    EXPECT_FALSE(obs::validateMetricsJson(Doc, &Error));
    EXPECT_FALSE(Error.empty());
  };
  Check(R"({"counters": {}, "gauges": {}, "histograms": {}})"); // no schema
  Check(R"({"schema": "other-v1", "counters": {}, "gauges": {},
            "histograms": {}})");
  Check(R"({"schema": "atmem-metrics-v1", "counters": {"c": "NaN"},
            "gauges": {}, "histograms": {}})");
  Check(R"({"schema": "atmem-metrics-v1", "counters": {"c": -1},
            "gauges": {}, "histograms": {}})");
  // Bucket counts not summing to "count".
  Check(R"({"schema": "atmem-metrics-v1", "counters": {}, "gauges": {},
            "histograms": {"h": {"count": 5, "sum": 0, "min": 0, "max": 0,
            "p50": 0, "p90": 0, "p99": 0,
            "buckets": [{"lo": 0, "count": 3}]}}})");
}

//===----------------------------------------------------------------------===//
// Chrome trace export
//===----------------------------------------------------------------------===//

TEST_F(ObsExportTest, TraceExportIsValidChromeTraceJson) {
  {
    obs::SpanScope Outer("outer", "test");
    Outer.arg("bytes", 128.0);
    obs::SpanScope Inner("inner", "test");
  }
  std::thread([&] {
    obs::SpanScope Other("other-thread", "test");
  }).join();

  std::string Json = obs::Tracer::instance().chromeTraceJson();
  obs::JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(obs::parseJson(Json, Doc, &Error)) << Error;
  EXPECT_TRUE(obs::validateTraceJson(Doc, &Error)) << Error;

  const obs::JsonValue *Events = Doc.find("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_EQ(Events->Array.size(), 6u); // 3 spans x B/E

  // Spans on the same thread share a tid; the other thread differs.
  double MainTid = Events->Array[0].findNumber("tid")->NumberVal;
  int MainEvents = 0, OtherEvents = 0;
  for (const obs::JsonValue &E : Events->Array)
    (E.findNumber("tid")->NumberVal == MainTid ? MainEvents : OtherEvents)++;
  EXPECT_EQ(MainEvents, 4);
  EXPECT_EQ(OtherEvents, 2);

  // The end event carries the attached argument.
  bool FoundArg = false;
  for (const obs::JsonValue &E : Events->Array) {
    if (E.findString("name")->StringVal != "outer" ||
        E.findString("ph")->StringVal != "E")
      continue;
    const obs::JsonValue *Args = E.find("args");
    ASSERT_NE(Args, nullptr);
    const obs::JsonValue *Bytes = Args->findNumber("bytes");
    ASSERT_NE(Bytes, nullptr);
    EXPECT_DOUBLE_EQ(Bytes->NumberVal, 128.0);
    FoundArg = true;
  }
  EXPECT_TRUE(FoundArg);
}

TEST_F(ObsExportTest, TraceValidatorRejectsBadNesting) {
  auto Check = [](const char *Text) {
    obs::JsonValue Doc;
    std::string Error;
    EXPECT_TRUE(obs::parseJson(Text, Doc, &Error)) << Error;
    EXPECT_FALSE(obs::validateTraceJson(Doc, &Error));
    EXPECT_FALSE(Error.empty());
  };
  // End without begin.
  Check(R"({"traceEvents": [{"name": "a", "cat": "t", "ph": "E", "ts": 0,
            "pid": 1, "tid": 0}]})");
  // Interleaved (improperly nested) spans on one tid.
  Check(R"({"traceEvents": [
    {"name": "a", "cat": "t", "ph": "B", "ts": 0, "pid": 1, "tid": 0},
    {"name": "b", "cat": "t", "ph": "B", "ts": 1, "pid": 1, "tid": 0},
    {"name": "a", "cat": "t", "ph": "E", "ts": 2, "pid": 1, "tid": 0},
    {"name": "b", "cat": "t", "ph": "E", "ts": 3, "pid": 1, "tid": 0}]})");
  // Unclosed span.
  Check(R"({"traceEvents": [{"name": "a", "cat": "t", "ph": "B", "ts": 0,
            "pid": 1, "tid": 0}]})");
  // Timestamp regression within a tid.
  Check(R"({"traceEvents": [
    {"name": "a", "cat": "t", "ph": "B", "ts": 5, "pid": 1, "tid": 0},
    {"name": "a", "cat": "t", "ph": "E", "ts": 4, "pid": 1, "tid": 0}]})");
}

TEST_F(ObsExportTest, DisabledSpansEmitNothing) {
  obs::setEnabled(false);
  {
    obs::SpanScope Span("invisible", "test");
    Span.arg("x", 1.0);
  }
  obs::setEnabled(true);
  EXPECT_EQ(obs::Tracer::instance().eventCount(), 0u);
}

//===----------------------------------------------------------------------===//
// End-to-end: instrumented experiment surfaces the paper-metric catalogue
//===----------------------------------------------------------------------===//

TEST_F(ObsExportTest, InstrumentedExperimentExportsFullCatalogue) {
  graph::Dataset Data = graph::makeDataset("pokec", 2048);
  baseline::RunConfig Config;
  Config.KernelName = "pr";
  Config.Graph = &Data.Graph;
  Config.Machine = sim::nvmDramTestbed(1.0 / 2048);
  Config.PolicyKind = baseline::Policy::Atmem;
  Config.MeasuredIterations = 2;
  Config.Telemetry.Enabled = true;
  baseline::RunResult Result = baseline::runExperiment(Config);
  EXPECT_GT(Result.MeasuredIterSec, 0.0);
  EXPECT_EQ(Result.IterStats.count(), 2u);
  EXPECT_NEAR(Result.IterStats.mean(), Result.MeasuredIterSec, 1e-15);

  obs::TelemetrySnapshot Snap = obs::Registry::instance().snapshot();

  // Pipeline counters from every stage.
  for (const char *Name :
       {"profiler.samples_taken", "profiler.misses_seen",
        "analyzer.runs", "migrator.ranges", "migrator.bytes_to_fast",
        "runtime.iterations", "runtime.accesses"}) {
    const uint64_t *V = Snap.counter(Name);
    ASSERT_NE(V, nullptr) << Name;
    EXPECT_GT(*V, 0u) << Name;
  }
  EXPECT_EQ(*Snap.counter("runtime.iterations"), 3u); // 1 profiled + 2

  // Per-object analyzer gauges: Eq. 2/3 threshold components, Eq. 4
  // weight, and the Eq. 5 adaptive threshold for a known PageRank object.
  for (const char *Field :
       {"pr_max", "theta", "theta_percentile", "theta_noise_floor", "weight",
        "tr_threshold", "chunks_sampled_critical",
        "chunks_estimated_critical"}) {
    std::string Name = std::string("analyzer.obj.csr.cols.") + Field;
    EXPECT_NE(Snap.gauge(Name), nullptr) << Name;
  }
  EXPECT_NE(Snap.gauge("profiler.period.effective"), nullptr);
  EXPECT_NE(Snap.gauge("migrator.staging_hwm_bytes"), nullptr);

  // Stage-duration histograms from the migration cost breakdown.
  for (const char *Name :
       {"migrator.range_bytes", "migrator.copy_in_sim_us",
        "migrator.remap_sim_us", "migrator.copy_out_sim_us",
        "runtime.iteration_sim_us"}) {
    const obs::HistogramSnapshot *H = Snap.histogram(Name);
    ASSERT_NE(H, nullptr) << Name;
    EXPECT_GT(H->Count, 0u) << Name;
  }

  // The whole snapshot exports as a schema-valid document...
  obs::JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(obs::parseJson(obs::metricsJson(Snap), Doc, &Error)) << Error;
  EXPECT_TRUE(obs::validateMetricsJson(Doc, &Error)) << Error;

  // ...and the recorded spans export as a valid Chrome trace covering the
  // whole pipeline.
  ASSERT_TRUE(
      obs::parseJson(obs::Tracer::instance().chromeTraceJson(), Doc, &Error))
      << Error;
  EXPECT_TRUE(obs::validateTraceJson(Doc, &Error)) << Error;
  std::set<std::string> SpanNames;
  for (const obs::JsonValue &E : Doc.find("traceEvents")->Array)
    SpanNames.insert(E.findString("name")->StringVal);
  for (const char *Name : {"profiler.window", "analyzer.classify",
                           "migrator.range", "migrator.copy_in",
                           "migrator.remap", "migrator.copy_out",
                           "runtime.iteration", "runtime.optimize"})
    EXPECT_TRUE(SpanNames.count(Name)) << Name;
}

TEST_F(ObsExportTest, ExportIfConfiguredWritesBothArtifacts) {
  obs::Counter("export.counter").add(1);
  { obs::SpanScope Span("export.span", "test"); }

  obs::TelemetryConfig Config;
  Config.MetricsPath = testutil::tempPath("obs_export_metrics.json");
  Config.TracePath = testutil::tempPath("obs_export_trace.json");
  ASSERT_TRUE(obs::exportIfConfigured(Config));

  obs::JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(obs::parseJsonFile(Config.MetricsPath, Doc, &Error)) << Error;
  EXPECT_TRUE(obs::validateMetricsJson(Doc, &Error)) << Error;
  ASSERT_TRUE(obs::parseJsonFile(Config.TracePath, Doc, &Error)) << Error;
  EXPECT_TRUE(obs::validateTraceJson(Doc, &Error)) << Error;
}
