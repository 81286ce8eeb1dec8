//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ATMem runtime: the paper's three components glued behind one
/// object. Applications allocate their data through the runtime (receiving
/// TrackedArray views whose accesses feed the simulated LLC and the
/// profiler), run a profiled iteration between profilingStart()/stop(),
/// call optimize() to analyze and migrate, and read simulated iteration
/// times from the iteration scope API.
///
/// The C-style API of the paper's Listing 1 (atmem_malloc & friends) is
/// provided in AtmemApi.h on top of this class.
///
//===----------------------------------------------------------------------===//

#ifndef ATMEM_CORE_RUNTIME_H
#define ATMEM_CORE_RUNTIME_H

#include "analyzer/Analyzer.h"
#include "core/SimContext.h"
#include "mem/AtmemMigrator.h"
#include "mem/DataObjectRegistry.h"
#include "mem/MbindMigrator.h"
#include "mem/ThreadPool.h"
#include "obs/Telemetry.h"
#include "profiler/SamplingProfiler.h"
#include "profiler/TraceFile.h"
#include "sim/Machine.h"
#include "sim/TranslationCache.h"

#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace atmem {

namespace obs {
class StatsServer;
}

namespace core {

/// Which migration mechanism optimize() uses.
enum class MigrationMechanism {
  Atmem, ///< Multi-stage multi-threaded (the paper's contribution).
  Mbind, ///< System-service model (the paper's comparison point).
};

/// How optimize() turns classifications into a plan.
enum class PlacementStrategy {
  /// The paper's default: all critical (sampled + estimated) chunks go to
  /// the fast tier, up to the byte budget.
  CriticalChunks,
  /// Section 9 extension for independent-channel machines (KNL): target
  /// a traffic split proportional to the tiers' bandwidths so both
  /// memories stream concurrently.
  BandwidthBalanced,
};

/// Complete runtime configuration.
struct RuntimeConfig {
  sim::MachineConfig Machine;
  prof::ProfilerConfig Profiler;
  analyzer::AnalyzerConfig Analyzer;
  /// Initial placement of new registrations (the experiment baselines
  /// flip this between Slow / Fast / PreferredFast).
  mem::InitialPlacement Placement = mem::InitialPlacement::Slow;
  /// Chunk-size override for registrations; 0 = adaptive (Section 4.1).
  uint64_t ChunkBytesOverride = 0;
  /// Registers every object as a single chunk, reducing ATMem to the
  /// coarse-grained whole-structure placement of prior work (Tahoe-style
  /// baseline; see paper Sections 1-2 and 9).
  bool WholeObjectChunks = false;
  MigrationMechanism Mechanism = MigrationMechanism::Atmem;
  PlacementStrategy Strategy = PlacementStrategy::CriticalChunks;
  /// Fraction of the fast tier's free bytes a plan may consume; the rest
  /// is headroom for the migration staging buffer and other tenants.
  double FastBudgetFraction = 0.85;
  /// Absolute cap on the plan budget in bytes (0 = uncapped). Models a
  /// shared server where co-tenants leave ATMem only a fixed slice of
  /// the fast memory (the paper's Section 1 motivation).
  uint64_t FastBudgetBytesCap = 0;
  /// When optimize() runs again after the access pattern changed (a new
  /// query, a new phase), fast-tier chunks that the fresh profile no
  /// longer selects are migrated back to the large-capacity tier before
  /// the newly critical chunks move in. Placement thus *adapts* across
  /// queries (the data-driven behaviour of paper Section 2.2).
  bool DemoteUnselected = true;
  /// Transient (Retryable) migration failures are retried up to this many
  /// times before the affected chunks are left on their source tier and
  /// recorded for the next epoch. Retries model a real runtime backing
  /// off and re-issuing the move; each costs MigrationRetryBackoffSec of
  /// simulated time on top of the migration work itself.
  uint32_t MigrationMaxRetries = 2;
  /// Simulated back-off added before the Nth retry (linear: N * this).
  double MigrationRetryBackoffSec = 100e-6;
  /// Host threads the tracked-execution engine uses for parallel kernel
  /// regions (Runtime::parallelTracked). 1 (the default) keeps the serial
  /// engine and is bit-identical to the pre-sharding runtime; T > 1 gives
  /// each thread a private LLC shard of SizeBytes / T plus private stats
  /// and miss buffers, merged deterministically at endIteration().
  uint32_t SimThreads = 1;
  /// Telemetry collection and export. Constructing a Runtime with
  /// Enabled (or any output path) set arms the process-wide obs switch;
  /// with the default (disabled) config every instrumentation site costs
  /// one relaxed atomic load and a branch.
  obs::TelemetryConfig Telemetry;
};

template <typename T> class TrackedArray;

/// One planned chunk range that optimize() could not place (capacity
/// pressure or an unrecovered fault). The runtime keeps the set from the
/// most recent epoch so the next optimize() re-nominates the chunks
/// instead of silently forgetting them.
struct SkippedChunk {
  mem::ObjectId Object = 0;
  mem::ChunkRange Range;
  /// Tier the chunks were headed for when they were skipped.
  sim::TierId Target = sim::TierId::Fast;
  /// Highest per-chunk priority (Eq. 1 PR) in the range at skip time.
  double Priority = 0.0;
};

/// The ATMem runtime for one simulated testbed.
class Runtime {
public:
  explicit Runtime(RuntimeConfig Config);
  ~Runtime();

  Runtime(const Runtime &) = delete;
  Runtime &operator=(const Runtime &) = delete;

  /// Registers an array of \p Count elements of T and returns a tracked
  /// view. Equivalent to the paper's atmem_malloc().
  template <typename T>
  TrackedArray<T> allocate(const std::string &Name, size_t Count);

  /// Unregisters an object; equivalent to atmem_free().
  void release(mem::ObjectId Id) { Registry.destroy(Id); }

  /// Arms hardware sampling (paper atmem_profiling_start()).
  void profilingStart();

  /// Disarms sampling (paper atmem_profiling_stop()).
  void profilingStop();

  /// Analyzes the collected profile and migrates the selected chunks to
  /// the fast tier with the configured mechanism (paper atmem_optimize()).
  /// Returns the migration counters; the applied plan is retrievable via
  /// lastPlan().
  mem::MigrationResult optimize();

  /// \name Iteration timing scope
  /// The application brackets each kernel iteration; the runtime counts
  /// accesses and converts them into simulated seconds at the end.
  /// @{
  void beginIteration();
  /// Ends the iteration and returns its simulated duration in seconds.
  double endIteration();
  const sim::AccessStats &iterationStats() const { return Hot.Stats; }
  /// @}

  /// Hot path: one tracked access at byte offset \p Offset of the object
  /// behind \p Handle. Inside a parallelTracked() region the access goes
  /// to the calling thread's private SimContext shard, lock-free;
  /// otherwise it is inline: flag test, LLC probe, and on a miss an out of
  /// line call for per-tier accounting and the profiler feed. Forced
  /// inline into the kernels' loops (the compiler's size heuristics
  /// otherwise leave most call sites as calls); the miss side stays out of
  /// line so each site only grows by the MRU probe.
  [[gnu::always_inline]] void onAccess(const TrackHandle &Handle,
                                       uint64_t Offset) {
    if (!Hot.TrackingEnabled)
      return;
    if (Bound.Owner == this) {
      Bound.Ctx->onAccess(Handle, Offset);
      return;
    }
    ++Hot.Stats.Accesses;
    uint64_t Va = Handle.VaBase + Offset;
    if (M.llc().access(Va)) {
      ++Hot.Stats.LlcHits;
      return;
    }
    onLlcMiss(Handle, Offset, Va);
  }

  /// \name Parallel tracked execution
  /// @{
  /// Body of a parallel tracked region: participant index in
  /// [0, simThreads()), then the chunk's [Begin, End).
  using TrackedBody = std::function<void(uint32_t, uint64_t, uint64_t)>;

  /// Runs \p Body over [Begin, End) on the kernel thread pool with
  /// chunked dynamic scheduling, binding each participant's tracked
  /// accesses to its SimContext shard. With SimThreads <= 1 the body runs
  /// inline as Body(0, Begin, End) on the serial engine. \p ChunkSize 0
  /// picks a size aimed at ~16 chunks per thread.
  void parallelTracked(uint64_t Begin, uint64_t End, const TrackedBody &Body,
                       uint64_t ChunkSize = 0);

  /// Threads the tracked-execution engine runs kernels with.
  uint32_t simThreads() const {
    return Contexts.empty() ? 1
                            : static_cast<uint32_t>(Contexts.size());
  }

  /// Shard \p Index's context (tests and diagnostics).
  SimContext &simContext(uint32_t Index) { return *Contexts[Index]; }
  /// @}

  /// Enables/disables all tracking (e.g. during graph construction).
  void setTrackingEnabled(bool Enabled) { Hot.TrackingEnabled = Enabled; }
  bool trackingEnabled() const { return Hot.TrackingEnabled; }

  /// Attaches a TLB that every tracked access replays against the current
  /// page table (Table 4 measurement mode); nullptr detaches.
  void setReplayTlb(sim::Tlb *Tlb) { ReplayTlb = Tlb; }

  /// Attaches a trace writer that records every LLC-miss address (for
  /// offline analysis through prof::OfflineProfiler); nullptr detaches.
  void setMissTrace(prof::TraceWriter *Writer) { MissTrace = Writer; }

  /// Fraction of registered bytes currently on the fast tier.
  double fastDataRatio() const;

  /// Modelled profiler overhead accumulated since profilingStart().
  double profilingOverheadSeconds() const {
    return Profiler.overheadSeconds();
  }

  /// The most recent plan applied by optimize().
  const analyzer::PlacementPlan &lastPlan() const { return LastPlan; }

  /// Chunks the most recent optimize() planned but could not place. The
  /// next optimize() merges still-unplaced entries back into its
  /// promotion work (re-nomination), so capacity pressure defers chunks
  /// instead of dropping them.
  const std::vector<SkippedChunk> &skippedChunks() const { return Skipped; }

  sim::Machine &machine() { return M; }
  mem::DataObjectRegistry &registry() { return Registry; }
  prof::SamplingProfiler &profiler() { return Profiler; }
  mem::ThreadPool &pool() { return Pool; }
  const RuntimeConfig &config() const { return Config; }
  analyzer::AnalyzerConfig &analyzerConfig() { return Config.Analyzer; }

private:
  /// onAccess() after a serial-engine LLC miss at \p Va: per-tier
  /// accounting, then the profiler, miss trace and TLB replay.
  void onLlcMiss(const TrackHandle &Handle, uint64_t Offset, uint64_t Va);

  /// Replays \p Va against the TLB through the epoch-validated translation
  /// cache (identical verdicts to a direct page-table walk).
  void replayTlbAccess(uint64_t Va);

  /// Migrates fast-resident chunks that LastPlan no longer selects back
  /// to the slow tier (the adaptive re-optimization path).
  void demoteUnselected(mem::Migrator &Mig, mem::MigrationResult &Result);

  /// Promotes \p Pending to the fast tier with graceful degradation:
  /// transient failures get bounded retry-with-backoff, capacity
  /// exhaustion shrinks the work to the highest-priority chunks that fit
  /// (\p Priorities indexes per-chunk Eq. 1 PR; may be null), and
  /// whatever remains unplaced lands in the skipped set.
  void promoteWithRecovery(mem::Migrator &Mig, mem::DataObject &Obj,
                           std::vector<mem::ChunkRange> Pending,
                           const std::vector<double> *Priorities,
                           mem::MigrationResult &Result);

  /// Records \p Ranges of \p Obj as skipped on the way to \p Target.
  void recordSkipped(const mem::DataObject &Obj,
                     const std::vector<mem::ChunkRange> &Ranges,
                     sim::TierId Target,
                     const std::vector<double> *Priorities);

  /// The shard drain: merges shard stats into Hot.Stats and replays buffered
  /// misses through the profiler / trace / TLB consumers, in thread-index
  /// order (select samples → attribute and commit them in order → replay
  /// the TLB → hand the buffers to the trace writer or recycle them).
  void mergeContexts();
  /// TLB replay over every shard buffer in thread-index order, resolving
  /// each 2 MiB run of huge-mapped misses with one translation.
  void replayTlbBatched();

  /// The calling thread's shard binding inside a parallelTracked region.
  /// Owner disambiguates between runtimes when several coexist (the
  /// concurrent bench harness runs one runtime per job thread).
  struct ContextBinding {
    Runtime *Owner = nullptr;
    SimContext *Ctx = nullptr;
  };
  static thread_local ContextBinding Bound;

  /// What onAccess() reads and writes on every serial-engine access, in
  /// one cache line at the start of the object: edits to RuntimeConfig or
  /// to the members below cannot move it.
  struct alignas(64) HotState {
    sim::AccessStats Stats;
    bool TrackingEnabled = true;
  };
  HotState Hot;

  RuntimeConfig Config;
  sim::Machine M;
  mem::DataObjectRegistry Registry;
  mem::ThreadPool Pool;
  prof::SamplingProfiler Profiler;
  mem::AtmemMigrator AtmemMig;
  mem::MbindMigrator MbindMig;
  analyzer::PlacementPlan LastPlan;
  /// Planned-but-unplaced chunks from the most recent optimize().
  std::vector<SkippedChunk> Skipped;
  /// One shard per SimThread when SimThreads > 1 (else empty).
  std::vector<std::unique_ptr<SimContext>> Contexts;
  /// Pool sized SimThreads driving parallelTracked (null when serial).
  std::unique_ptr<mem::ThreadPool> KernelPool;
  sim::Tlb *ReplayTlb = nullptr;
  prof::TraceWriter *MissTrace = nullptr;
  /// Direct-mapped translation cache for TLB replay, built lazily on
  /// first use (only when a replay TLB is attached).
  std::unique_ptr<sim::TranslationCache> ReplayCache;
  /// Reused drain scratch: the samples selected from the shard buffers.
  std::vector<prof::PendingSample> PendingScratch;
  /// Attribution hint recycled across drains: graph iterations miss in the
  /// same objects, so last drain's hint starts warm instead of re-walking
  /// the registry index from cold every batch.
  mem::AttributionHint AttrHint;
  /// True while a "runtime.iteration" trace span is open (beginIteration
  /// ran with telemetry enabled; endIteration closes it).
  bool IterationSpanOpen = false;
  /// \name Live observability (inert unless Telemetry configures it)
  /// @{
  /// 1-based ordinal of optimize() calls — the time-series x axis.
  uint64_t OptimizeEpochs = 0;
  /// Migration retries and range rollbacks of the epoch being built
  /// (reset every optimize()).
  uint64_t EpochRetries = 0;
  uint64_t EpochRollbacks = 0;
  /// Snapshot server for --stats-socket (null when not requested, so the
  /// only cost in that mode is a pointer null check at shutdown).
  std::unique_ptr<obs::StatsServer> StatsServer;
  /// Placement summary served by the socket: rebuilt under StatsMutex at
  /// each epoch boundary so the accept thread never walks live registry
  /// structures concurrently with a migration.
  std::mutex StatsMutex;
  std::string PlacementJson;
  /// Online health monitor (null unless --health / --health-log or the
  /// process-wide default armed it). Every epoch-cadence call site pays
  /// one pointer null check when disabled; the access hot path pays
  /// nothing.
  std::unique_ptr<obs::HealthMonitor> HealthMon;
  /// Wall clock of the previous epoch boundary, for the IterationWallUs
  /// budget denominator (valid once HaveLastEpochWall).
  std::chrono::steady_clock::time_point LastEpochWallEnd;
  bool HaveLastEpochWall = false;
  /// @}

  /// Captures this epoch's time-series sample, feeds the health monitor,
  /// and refreshes the stats snapshot (no-ops when no sink is configured).
  void captureEpochSample(const mem::MigrationResult &Result, double WallUs,
                          double IterWallUs);
  /// Reports the chunks \p Moved actually placed on \p ToFast's tier to
  /// the health monitor's ping-pong tracker (no-op when HealthMon is
  /// null).
  void noteHealthMigration(uint64_t Object, uint32_t FirstChunk,
                           uint32_t NumChunks, bool ToFast);
  /// Rebuilds PlacementJson from the live registry (epoch boundary only).
  void updatePlacementJson();
  /// Renders the document served to each stats-socket connection.
  std::string statsSnapshotJson();
};

/// A typed view over a registered data object. Every element access is
/// reported to the runtime, which models its cache/tier cost. Obtain raw()
/// for untracked bulk initialization.
template <typename T> class TrackedArray {
public:
  TrackedArray() = default;
  TrackedArray(Runtime *Rt, T *Data, size_t Count, TrackHandle Handle)
      : Rt(Rt), Data(Data), Count(Count), Handle(Handle) {}

  /// Tracked element access.
  T &operator[](size_t I) {
    Rt->onAccess(Handle, I * sizeof(T));
    return Data[I];
  }
  const T &operator[](size_t I) const {
    Rt->onAccess(Handle, I * sizeof(T));
    return Data[I];
  }

  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }

  /// Untracked raw pointer (initialization/verification only).
  T *raw() { return Data; }
  const T *raw() const { return Data; }

  mem::ObjectId objectId() const { return Handle.Object; }
  uint64_t va() const { return Handle.VaBase; }

private:
  Runtime *Rt = nullptr;
  T *Data = nullptr;
  size_t Count = 0;
  TrackHandle Handle;
};

template <typename T>
TrackedArray<T> Runtime::allocate(const std::string &Name, size_t Count) {
  uint64_t SizeBytes = Count * sizeof(T);
  uint64_t ChunkOverride = Config.ChunkBytesOverride;
  if (Config.WholeObjectChunks) {
    ChunkOverride = sim::SmallPageBytes;
    while (ChunkOverride < SizeBytes)
      ChunkOverride *= 2;
  }
  mem::DataObject &Obj =
      Registry.create(Name, SizeBytes, Config.Placement, ChunkOverride);
  TrackHandle Handle;
  Handle.VaBase = Obj.va();
  Handle.ChunkTiers = Obj.chunkTierData();
  Handle.ChunkShift = Obj.chunkShift();
  Handle.Object = Obj.id();
  return TrackedArray<T>(this, reinterpret_cast<T *>(Obj.data()), Count,
                         Handle);
}

} // namespace core
} // namespace atmem

#endif // ATMEM_CORE_RUNTIME_H
