//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's workloads: each builds its graphs from the workload
/// seed, runs its experiment matrix in whole passes until the measuring
/// time is used up, checks the outputs, and reports end-to-end and
/// per-layer metrics.
///
//===----------------------------------------------------------------------===//

#ifndef ATMEM_PERFBENCH_WORKLOADS_H
#define ATMEM_PERFBENCH_WORKLOADS_H

#include "Spans.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10.0;
  bool Trace = false;
  /// Self-test size: tiny graphs, few epochs, one set-up repetition.
  bool Tiny = false;
  /// Directory the telemetry sinks write into.
  std::string ScratchDir;
};

struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

struct Report {
  /// False when any output check failed.
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Simulation threads the workload's runtimes used.
  uint32_t SimThreads = 1;
  std::vector<Metric> EndToEnd;
  std::vector<Metric> Layer;
  /// Human-readable lines printed before the result (checks, sample
  /// counts, simulated-result metrics).
  std::vector<std::string> Notes;
};

const std::vector<std::string> &workloadNames();

/// Runs \p Opts.Workload; spans go to \p Rec when tracing is on.
Report runWorkload(const Options &Opts, SpanRecorder &Rec);

} // namespace perfbench

#endif // ATMEM_PERFBENCH_WORKLOADS_H
