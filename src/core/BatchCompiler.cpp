//===- core/BatchCompiler.cpp - Concurrent batch compilation ----------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "core/BatchCompiler.h"

#include "core/Executor.h"
#include "support/FaultInjection.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <thread>

using namespace sdsp;

namespace {

/// splitmix64: the backoff jitter PRNG.  Seeded from (RetrySeed, job
/// index, attempt) so sleeps are deterministic per configuration but
/// decorrelated across jobs — no thundering herd after a shared
/// transient.
uint64_t splitmix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

uint64_t backoffMillis(const BatchOptions &Opts, size_t Job,
                       unsigned Attempt) {
  uint64_t Base = Opts.RetryBackoffBaseMillis;
  uint64_t Delay = Base;
  for (unsigned K = 0; K < Attempt && Delay < Opts.RetryBackoffCapMillis;
       ++K)
    Delay *= 2;
  Delay = std::min(Delay, Opts.RetryBackoffCapMillis);
  uint64_t Jitter =
      Base == 0 ? 0
                : splitmix64(Opts.RetrySeed ^ (Job * 0x9e3779b97f4a7c15ULL) ^
                             Attempt) %
                      (Base + 1);
  return Delay + Jitter;
}

/// Row-wise accumulation of one session trace into \p Into: an attempt
/// into its job's slot, so attempt counts reflect all work done, and
/// each job's slot into the batch's merged trace.
void accumulateTrace(PipelineTrace &Into, const PipelineTrace &From) {
  if (Into.Passes.empty()) {
    Into = From;
    return;
  }
  Into.CacheEnabled = From.CacheEnabled;
  for (size_t P = 0; P < Into.Passes.size() && P < From.Passes.size(); ++P) {
    PassStats &A = Into.Passes[P].Stats;
    const PassStats &B = From.Passes[P].Stats;
    A.Invocations += B.Invocations;
    A.CacheHits += B.CacheHits;
    A.Failures += B.Failures;
    A.WallSeconds += B.WallSeconds;
    A.ArtifactBytes += B.ArtifactBytes;
  }
}

} // namespace

BatchCompiler::BatchCompiler(BatchOptions O)
    : Opts(O), Cache(MemoryStore::Config{/*Shards=*/16,
                                         /*MaxBytes=*/O.MaxCacheBytes}) {}

BatchOutcome BatchCompiler::run(const std::vector<BatchJob> &Jobs,
                                const Renderer &Render) {
  BatchOutcome Outcome;
  Outcome.Results.resize(Jobs.size());
  std::vector<PipelineTrace> Traces(Jobs.size());

  // Trace tracks are created up front, in input order, so the viewer
  // tids — like everything else a caller can observe outside the trace
  // file's timestamps — do not depend on the thread count.
  std::vector<TraceTrack *> Tracks(Jobs.size(), nullptr);
  if (Opts.Trace)
    for (size_t I = 0; I < Jobs.size(); ++I)
      Tracks[I] = &Opts.Trace->track(Jobs[I].Name);

  // Per-job fault contexts, input order, shared across that job's
  // retry attempts: arrival counters keep advancing through a retry, so
  // an occurrence-N trigger fires exactly once and the retry converges.
  std::vector<std::unique_ptr<FaultContext>> Faults(Jobs.size());
  if (Opts.Faults && !Opts.Faults->empty())
    for (size_t I = 0; I < Jobs.size(); ++I)
      Faults[I] = std::make_unique<FaultContext>(Opts.Faults, Jobs[I].Name,
                                                 Tracks[I]);

  // Names are pre-filled so a job cancelled before it ever ran still
  // reports under its own name.
  for (size_t I = 0; I < Jobs.size(); ++I)
    Outcome.Results[I].Name = Jobs[I].Name;

  // Fail-fast and external cancellation share one channel: every job's
  // token chains under this source, and a failed job cancels it when
  // KeepGoing is off.
  CancelSource BatchSource(Opts.Cancel);
  CancelToken BatchTok = BatchSource.token();

  // Wall time per task, summed for the task_wall_seconds gauge.
  std::atomic<int64_t> TaskMicros{0};

  {
    Executor Ex(Opts.Threads);
    std::vector<std::future<Status>> Futures;
    Futures.reserve(Jobs.size());
    for (size_t I = 0; I < Jobs.size(); ++I) {
      // Each task writes only its own slot in the pre-sized vectors;
      // the futures (and the pool join) publish the writes back here.
      // The token makes queued tasks cancellable mid-queue (fail-fast,
      // external cancel) with a Cancelled — not ResourceConflict —
      // resolution.
      Futures.push_back(Ex.submit(
          [&, I]() -> Status {
            auto T0 = std::chrono::steady_clock::now();
            BatchResult &R = Outcome.Results[I];
            FaultContext *FC = Faults[I].get();
            if (Tracks[I])
              Tracks[I]->beginSpan(Jobs[I].Name, "job");
            // The retry loop lives inside the task: resubmitting would
            // make completion order observable, and it must not be.
            for (unsigned Attempt = 0;; ++Attempt) {
              R.Attempts = Attempt + 1;
              // Each attempt gets a fresh deadline chained under the
              // batch token.
              CancelToken JobTok =
                  Opts.JobDeadlineMillis
                      ? CancelSource::withDeadline(
                            std::chrono::milliseconds(Opts.JobDeadlineMillis),
                            BatchTok)
                            .token()
                      : BatchTok;
              std::ostringstream Out, Err;
              RenderResult RR;
              Status Dispatch =
                  FC ? FC->checkpoint("executor:dispatch") : Status::ok();
              if (JobTok.cancelled()) {
                Status St = JobTok.status("batch", "before the job started");
                Err << "error: " << St.str() << "\n";
                RR = {exitCodeFor(St), St.code()};
              } else if (!Dispatch) {
                Err << "error: " << Dispatch.str() << "\n";
                RR = {exitCodeFor(Dispatch), Dispatch.code()};
              } else {
                SessionConfig Cfg;
                Cfg.EnableCache = Opts.EnableCache;
                Cfg.Store = Opts.ShareCache
                                ? (Opts.Store ? Opts.Store : &Cache)
                                : nullptr;
                Cfg.Trace = Tracks[I];
                Cfg.Cancel = JobTok;
                Cfg.Faults = FC;
                CompilationSession Session(Cfg);
                RR = Render(Session, Jobs[I], Out, Err);
                accumulateTrace(Traces[I], Session.trace());
              }
              R.ExitCode = RR.ExitCode;
              R.Error = RR.Error;
              R.Out = Out.str();
              R.Err = Err.str();
              if (RR.ExitCode == 0 ||
                  RR.Error != ErrorCode::TransientFault ||
                  Attempt >= Opts.MaxRetries)
                break;
              if (Tracks[I]) {
                Tracks[I]->instant("job-retry", "batch");
                Tracks[I]->argU64("attempt", Attempt + 1);
              }
              std::this_thread::sleep_for(std::chrono::milliseconds(
                  backoffMillis(Opts, I, Attempt)));
            }
            if (R.ExitCode != 0 && !Opts.KeepGoing)
              BatchSource.cancel();
            if (Tracks[I]) {
              Tracks[I]->endSpan();
              Tracks[I]->argU64("exit_code",
                                static_cast<uint64_t>(R.ExitCode));
              Tracks[I]->argU64("attempts", R.Attempts);
            }
            TaskMicros.fetch_add(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - T0)
                    .count(),
                std::memory_order_relaxed);
            return Status::ok();
          },
          BatchTok));
    }
    for (size_t I = 0; I < Jobs.size(); ++I) {
      BatchResult &R = Outcome.Results[I];
      R.TaskStatus = Futures[I].get();
      if (!R.TaskStatus && R.ExitCode == 0) {
        // The task never ran (cancelled mid-queue) or threw; map the
        // executor-level status through the standard exit contract —
        // Cancelled/DeadlineExceeded are exit 2, a throw stays 3.
        R.ExitCode = exitCodeFor(R.TaskStatus);
        R.Error = R.TaskStatus.code();
      }
    }
    // Executor counters must be read before the pool leaves scope.  The
    // task counts are deterministic; queue peak and wall time are
    // scheduling-dependent, so they flush as gauges and stay out of
    // every determinism-compared surface.
    Executor::Counters EC = Ex.counters();
    MetricsRegistry &MR = MetricsRegistry::global();
    MR.add("executor.tasks_submitted", EC.Submitted);
    MR.add("executor.tasks_completed", EC.Completed);
    MR.add("executor.tasks_cancelled", EC.Cancelled);
    MR.gaugeMax("executor.queue_depth_peak",
                static_cast<double>(EC.QueuePeak));
    MR.gaugeAdd("executor.task_wall_seconds",
                static_cast<double>(TaskMicros.load()) / 1e6);
  }

  // Row-wise sum of the per-session traces, in registered-pass order.
  // A job cancelled before its first attempt never built a session, so
  // its trace has no rows to contribute.
  PipelineTrace &Merged = Outcome.MergedTrace;
  for (size_t P = 0; P < NumPassKinds; ++P) {
    const PassInfo &Info = passInfo(static_cast<PassKind>(P));
    Merged.Passes.push_back({Info.Id, Info.Inputs, Info.Output, {}});
  }
  for (const PipelineTrace &T : Traces)
    accumulateTrace(Merged, T);
  Merged.CacheEnabled = !Opts.EnableCache || *Opts.EnableCache;

  for (const BatchResult &R : Outcome.Results)
    Outcome.ExitCode = std::max(Outcome.ExitCode, R.ExitCode);
  Outcome.Cache = Cache.counters();

  uint64_t Failed = 0;
  for (const BatchResult &R : Outcome.Results) {
    Failed += R.ExitCode != 0;
    if (R.Attempts > 1)
      Outcome.Retries += R.Attempts - 1;
    if (R.Error == ErrorCode::Cancelled ||
        R.Error == ErrorCode::DeadlineExceeded)
      ++Outcome.CancelledJobs;
  }
  MetricsRegistry &MR = MetricsRegistry::global();
  MR.add("batch.jobs", Jobs.size());
  MR.add("batch.jobs_failed", Failed);
  MR.add("batch.retries", Outcome.Retries);
  // Which jobs a fail-fast cancellation reaps depends on scheduling, so
  // this is a gauge, off the counter determinism surface.
  if (Outcome.CancelledJobs)
    MR.gaugeAdd("batch.jobs_cancelled",
                static_cast<double>(Outcome.CancelledJobs));
  return Outcome;
}

BatchCompiler::Renderer
BatchCompiler::compileOnly(const PipelineOptions &Opts) {
  return [Opts](CompilationSession &Session, const BatchJob &Job,
                std::ostream &Out, std::ostream &Err) -> RenderResult {
    Expected<CompiledLoop> R = Session.compile(Job.Source, Opts);
    if (!R) {
      Err << "error: " << R.status().str() << "\n";
      return {exitCodeFor(R.status()), R.status().code()};
    }
    Out << "ok";
    if (R->Rate)
      Out << " rate " << R->Rate->OptimalRate;
    if (R->Frustum)
      Out << " frustum [" << R->Frustum->StartTime << ", "
          << R->Frustum->RepeatTime << ")";
    if (R->Schedule)
      Out << " kernel " << R->Schedule->kernelLength();
    Out << "\n";
    return {0, ErrorCode::Ok};
  };
}
