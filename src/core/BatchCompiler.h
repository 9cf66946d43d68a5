//===- core/BatchCompiler.h - Concurrent batch compilation ------*- C++ -*-===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles a set of loops concurrently: one CompilationSession per
/// job, scheduled onto a fixed-size Executor, all sessions interning
/// their pass results in one shared ArtifactStore (by default the
/// compiler's own MemoryStore; optionally an external tiered store
/// that also persists to disk).  This is the
/// many-kernel batch workload the service roadmap centers on (and the
/// shape of Millo & de Simone's evaluation over families of nets):
/// `sdspc --batch <dir> -j N` and bench/BatchThroughput.cpp sit
/// directly on this class.
///
/// Determinism contract: results come back indexed by input order, a
/// job's rendered output depends only on (source, options) — never on
/// which thread ran it or what the cache contained (the cache is
/// semantically invisible and every pass is a pure function of its
/// key) — and the batch exit code is an order-independent fold (max).
/// So everything a caller can observe except wall time and cache-hit
/// *counts* is byte-identical for any thread count; the
/// batch-determinism CI job diffs `-j 1` against `-j 8` to pin this.
///
/// Failure isolation: a job that fails to compile reports through its
/// own exit code and rendered stderr; sibling jobs run to completion,
/// and the shared cache is never poisoned (failed pass results are
/// abandoned, not published).
///
/// Degradation policy (docs/ROBUSTNESS.md): failures classified
/// TransientFault retry inside their own task with capped, seeded
/// exponential backoff — attempt counts are part of the result and the
/// batch JSON — while permanent failures stay isolated to their job.
/// With KeepGoing off (`sdspc --fail-fast`), the first failed job
/// cancels the rest of the batch through a CancelToken; jobs cancelled
/// mid-queue report Cancelled, not a pool error.  Per-job deadlines
/// and a batch-wide token thread through the same channel.
///
//===----------------------------------------------------------------------===//

#ifndef SDSP_CORE_BATCHCOMPILER_H
#define SDSP_CORE_BATCHCOMPILER_H

#include "core/Session.h"
#include "core/SharedArtifactCache.h"
#include "support/CancelToken.h"

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

namespace sdsp {

class FaultSchedule;
class TraceCollector;

/// One unit of batch work: a named loop-language source.
struct BatchJob {
  /// Display identifier (file path, kernel id); batch output is labeled
  /// with it.
  std::string Name;
  /// Loop-language source text.
  std::string Source;
};

/// What one job produced, in input order.
struct BatchResult {
  std::string Name;
  /// The renderer's exit code (the sdspc contract: 0 ok, 1 input,
  /// 2 resource/budget/cancel, 3 internal).
  int ExitCode = 0;
  /// Error classification of the final attempt (Ok on success); for
  /// jobs that never ran, the executor-level code (Cancelled,
  /// DeadlineExceeded, ...).
  ErrorCode Error = ErrorCode::Ok;
  /// Times the job was dispatched: 1 for the common case, 1 + retries
  /// when transient failures were retried, 0 if the job was cancelled
  /// before it ever started.
  uint32_t Attempts = 0;
  /// Executor-level failure (task cancelled or threw); ok for every
  /// job that actually ran, even if compilation failed.
  Status TaskStatus;
  /// Rendered stdout/stderr text of the final attempt, exactly what a
  /// lone sdspc run would have written.
  std::string Out;
  std::string Err;
};

/// A finished batch.
struct BatchOutcome {
  /// Per-job results, in the order the jobs were given.
  std::vector<BatchResult> Results;
  /// All sessions' PipelineTraces summed row-wise.  Wall times and
  /// cache-hit counts legitimately vary with the thread count (who wins
  /// a compute race); invocation and failure counts do not.
  PipelineTrace MergedTrace;
  /// max over per-job exit codes (0 iff every job succeeded).
  int ExitCode = 0;
  /// Shared-cache counters at completion.
  MemoryStore::CounterSnapshot Cache;
  /// Total retry dispatches across all jobs (sum of Attempts - 1 over
  /// jobs that ran).
  uint64_t Retries = 0;
  /// Jobs whose final classification was Cancelled/DeadlineExceeded.
  uint64_t CancelledJobs = 0;
};

struct BatchOptions {
  /// Worker threads (0 is clamped to 1).
  unsigned Threads = 1;
  /// Intern pass results across sessions.  Off gives each session a
  /// MemoryStore of its own — the ablation arm of
  /// bench/BatchThroughput.cpp.
  bool ShareCache = true;
  /// When set (and ShareCache is on), sessions intern into this
  /// caller-owned store instead of the compiler's built-in memory
  /// cache — how sdspc/sdspd route batches through a TieredStore over a
  /// persistent DiskStore.  The store must outlive the batch run.
  ArtifactStore *Store = nullptr;
  /// Per-session cache tri-state, passed through to SessionConfig.
  std::optional<bool> EnableCache;
  /// Byte budget for the shared cache; 0 = unbounded.
  uint64_t MaxCacheBytes = 0;
  /// When set, run() creates one track per job (named after the job, in
  /// input order, so viewer tids are deterministic) and each session
  /// records its pass spans there; run() also flushes executor and
  /// batch counters into MetricsRegistry::global().  Wall-clock data
  /// lives only in the trace file, never in --batch-json, which is what
  /// keeps the latter byte-identical across thread counts.
  TraceCollector *Trace = nullptr;
  /// Retries granted per job for TransientFault failures (attempts =
  /// 1 + MaxRetries at most).  The retry loop runs inside the job's
  /// task, so submission order — and with it every determinism
  /// surface — is unaffected.
  unsigned MaxRetries = 2;
  /// Backoff before retry K (0-based) is
  ///   min(Cap, Base << K) + jitter(RetrySeed, job, K)
  /// milliseconds, jitter in [0, Base]; purely wall-clock, never
  /// observable in outputs.
  uint64_t RetryBackoffBaseMillis = 1;
  uint64_t RetryBackoffCapMillis = 64;
  uint64_t RetrySeed = 0x5d5f1991;
  /// Keep compiling after a job fails (the historical behavior).  Off =
  /// fail-fast: the first failure cancels every job that has not
  /// started; those report Cancelled.  Which jobs were already running
  /// when the failure happened depends on scheduling, so fail-fast
  /// outcomes are only deterministic at one worker thread.
  bool KeepGoing = true;
  /// Wall-clock deadline per job attempt, 0 = none.  Checked at pass
  /// boundaries and every frustum instant; an expired job reports
  /// DeadlineExceeded.
  uint64_t JobDeadlineMillis = 0;
  /// When set, each job gets a FaultContext over this schedule
  /// (support/FaultInjection.h), scoped by job name and persistent
  /// across that job's retry attempts.  The caller keeps ownership.
  const FaultSchedule *Faults = nullptr;
  /// External batch-wide cancellation (e.g. `sdspc` on SIGINT some
  /// day); each job's token chains under it.
  CancelToken Cancel = {};
};

/// What a Renderer reports back: the process-style exit code plus the
/// error classification the retry policy folds on (TransientFault
/// retries; everything else is final).
struct RenderResult {
  int ExitCode = 0;
  ErrorCode Error = ErrorCode::Ok;
};

class BatchCompiler {
public:
  /// Renders one job through \p Session into \p Out / \p Err and
  /// returns its exit code and error class.  sdspc passes its whole
  /// compile-and-emit path; tests and benches pass a compile-only
  /// summary.
  using Renderer = std::function<RenderResult(
      CompilationSession &Session, const BatchJob &Job, std::ostream &Out,
      std::ostream &Err)>;

  explicit BatchCompiler(BatchOptions Opts = {});

  /// Runs every job (each in its own session) and blocks until all
  /// finish.  Reusable: a second run() keeps the warm shared cache.
  BatchOutcome run(const std::vector<BatchJob> &Jobs,
                   const Renderer &Render);

  /// Compile-only convenience renderer: session.compile() under
  /// \p Opts, a one-line summary per job on success, the standard
  /// failure report on error.
  static Renderer compileOnly(const PipelineOptions &Opts);

  const BatchOptions &options() const { return Opts; }
  MemoryStore &cache() { return Cache; }

private:
  BatchOptions Opts;
  MemoryStore Cache;
};

} // namespace sdsp

#endif // SDSP_CORE_BATCHCOMPILER_H
