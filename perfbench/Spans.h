//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Host-time spans recorded by the benchmark program around each call it
/// makes into the library layers. Every call is timed (the end-to-end
/// metrics need the durations); spans are only stored when tracing is on.
/// Stored spans stay in memory until the run ends and are then written as
/// one JSON document.
///
//===----------------------------------------------------------------------===//

#ifndef ATMEM_PERFBENCH_SPANS_H
#define ATMEM_PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Which clock the recorder times calls with.
enum class ClockKind {
  /// Elapsed time on the steady clock.
  Wall,
  /// CPU time of the whole process (all threads, user and system). On a
  /// single-threaded run it is the elapsed time minus the time the core
  /// was taken away: by the hypervisor (steal) or by other processes.
  ProcessCpu,
};

const char *clockName(ClockKind Kind);

/// Seconds since the clock was created, on the steady clock (wall()) and
/// on the chosen timing clock (now()).
class Clock {
public:
  explicit Clock(ClockKind Kind = ClockKind::Wall) { reset(Kind); }

  void reset(ClockKind K) {
    Kind = K;
    WallOrigin = std::chrono::steady_clock::now();
    CpuOrigin = processCpu();
  }
  ClockKind kind() const { return Kind; }
  double wall() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         WallOrigin)
        .count();
  }
  double now() const {
    return Kind == ClockKind::Wall ? wall() : processCpu() - CpuOrigin;
  }

private:
  static double processCpu();

  ClockKind Kind = ClockKind::Wall;
  std::chrono::steady_clock::time_point WallOrigin;
  double CpuOrigin = 0.0;
};

struct Span {
  std::string Name;
  double Start = 0.0; ///< Seconds since the recorder's origin.
  double End = 0.0;
  int64_t Parent = -1; ///< Index of the enclosing span, -1 at top level.
  uint64_t Group = 0;  ///< Experiment or epoch the span belongs to.
};

class SpanRecorder {
public:
  explicit SpanRecorder(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }
  /// Pauses or resumes storing spans (timing continues either way).
  void setEnabled(bool On) { Enabled = On; }
  /// Seconds on the timing clock, and elapsed seconds, since the recorder
  /// was created or its clock was last chosen.
  double now() const { return Clk.now(); }
  double wall() const { return Clk.wall(); }
  ClockKind clock() const { return Clk.kind(); }
  /// Chooses the timing clock; only before any span is stored.
  void setClock(ClockKind Kind) { Clk.reset(Kind); }

  /// Starts a new group id; spans opened afterwards carry it.
  void newGroup() { CurrentGroup = ++LastGroup; }

  /// Times \p Fn and returns its duration in seconds; stores a span named
  /// \p Name nested under the innermost open span when tracing is on.
  template <typename Fn> double time(const char *Name, Fn &&Body) {
    int64_t Index = open(Name);
    double Start = Clk.now();
    Body();
    double End = Clk.now();
    close(Index, Start, End);
    return End - Start;
  }

  /// Self time per span name: each span's duration minus the part of it
  /// its direct children cover, summed by name.
  std::map<std::string, double> selfSeconds() const;

  /// Writes {"provenance", "clock", "spans", "self_s", "wall_s"} to
  /// \p Path; span times are on the timing clock, wall_s is the elapsed
  /// time since the clock was chosen.
  bool writeJson(const std::string &Path,
                 const std::string &ProvenanceJson) const;

private:
  int64_t open(const char *Name);
  void close(int64_t Index, double Start, double End);

  bool Enabled;
  Clock Clk;
  std::vector<Span> Spans;
  std::vector<int64_t> Stack;
  uint64_t LastGroup = 0;
  uint64_t CurrentGroup = 0;
};

} // namespace perfbench

#endif // ATMEM_PERFBENCH_SPANS_H
