//===- support/FaultInjection.h - Deterministic fault injection -*- C++ -*-===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic, replayable fault injection for the pipeline's
/// robustness machinery (docs/ROBUSTNESS.md).  Production code is
/// instrumented with *named fault sites* — fixed strings checked at
/// well-defined points:
///
///   pass:<id>          every pass boundary in the compilation session
///                      (one site per PassTable id: pass:lower,
///                      pass:frustum, ...)
///   cache:lookup       before every cached session's store lookup
///   cache:publish      after a successful compute, before the owner
///                      publishes (failing here exercises owner death
///                      and the abandon handoff)
///   executor:dispatch  at the start of every batch job attempt
///   frustum:step       every sampled instant of the frustum search,
///                      on the same cadence as the step budget
///   rate:iteration     before each policy-improvement round of the
///                      rate pass's Howard iteration
///   schedule:batch     before each batch of trace rows the schedule
///                      pass derives from and of constraints its
///                      replay and verify's check
///   sdsp-pn:batch      before each batch of places and transitions
///                      the sdsp-pn pass adds to the net
///   verify:check       before each check of verifyCompiledLoop
///   pnml:parse         inside the import-pnml pass, before the reader
///   pnml:classify      before an imported net's classification and
///                      before each 64-source batch of its safety sweep
///   pnml:verify        in `sdspc --pnml --verify`, before the canonical
///                      export is re-parsed
///   store:read         before the persistent disk store reads an
///                      object (failing degrades to a disk miss)
///   store:write        before the disk store writes an object (failing
///                      skips the write; the index is never touched)
///   daemon:accept      per accepted sdspd connection (failing drops
///                      the connection; the daemon keeps serving)
///
/// A FaultSchedule is parsed from a spec string (SDSP_FAULT_SPEC env
/// var or `sdspc --fault-spec`):
///
///   spec     := trigger (',' trigger)*
///   trigger  := site ':' action ('@' N)? ('~' filter)?
///   action   := 'fail' | 'fail-hard' | 'delay=' MILLIS 'ms'
///
/// `@N` fires the trigger at the Nth arrival at the site (1-based,
/// default 1), counted per FaultContext — i.e. per batch job or per
/// sdspc invocation — so firing does not depend on thread count.
/// `~filter` restricts the trigger to contexts whose scope name
/// contains the substring.  Actions map to the error taxonomy:
/// `fail` returns ErrorCode::TransientFault (the batch layer retries
/// it), `fail-hard` returns ErrorCode::InternalInvariant (permanent,
/// isolates the job), `delay=NNms` sleeps and succeeds.
///
/// Determinism: arrival counters live in the FaultContext and persist
/// across a job's retry attempts, so a `fail@N` trigger fires exactly
/// once and the retry sails past it.  Sites whose arrival order is
/// fixed per job (pass:*, frustum:step, executor:dispatch) therefore
/// replay byte-for-byte at any -j; cache:* sites over a store shared
/// across jobs depend on cross-job races and are only deterministic at
/// -j1 or over each session's own store (sharing off, or one sdspc run).
///
/// Every firing increments the `fault.injected` counter (plus a
/// per-site `fault.injected.<site>` counter, ':' replaced by '.') and,
/// when the context carries a TraceTrack, emits a "fault-injected"
/// instant — `tools/tracecheck.py faults` cross-checks the two.
///
//===----------------------------------------------------------------------===//

#ifndef SDSP_SUPPORT_FAULTINJECTION_H
#define SDSP_SUPPORT_FAULTINJECTION_H

#include "support/Status.h"

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace sdsp {

class TraceTrack;

/// What an armed trigger does when it fires.
enum class FaultAction {
  /// Return ErrorCode::TransientFault — retryable.
  Fail,
  /// Return ErrorCode::InternalInvariant — permanent.
  FailHard,
  /// Sleep for DelayMillis, then succeed.
  Delay,
};

/// One parsed trigger of a fault spec.
struct FaultTrigger {
  std::string Site;
  FaultAction Action = FaultAction::Fail;
  /// Sleep length for FaultAction::Delay.
  uint64_t DelayMillis = 0;
  /// Fires at this arrival count (1-based) at Site, per context.
  uint64_t Occurrence = 1;
  /// When non-empty, fires only in contexts whose scope name contains
  /// this substring (e.g. a batch job name).
  std::string JobFilter;
};

/// An immutable, validated set of triggers shared by every context of a
/// run.  Thread-safe to read concurrently.
class FaultSchedule {
public:
  FaultSchedule() = default;

  /// Parses \p Spec against the site catalog.  Unknown sites, malformed
  /// actions, zero occurrences and bad delays are InvalidInput errors
  /// naming the offending trigger.
  static Expected<FaultSchedule> parse(const std::string &Spec);

  /// True when \p Site names a site the codebase is instrumented with.
  static bool isKnownSite(std::string_view Site);

  bool empty() const { return Triggers.empty(); }
  const std::vector<FaultTrigger> &triggers() const { return Triggers; }

  /// Installs \p Spec as the process-wide schedule consulted by
  /// process(), overriding SDSP_FAULT_SPEC (`sdspc --fault-spec`).
  static Status setProcess(const std::string &Spec);

  /// The process-wide schedule: the one installed by setProcess, else
  /// one parsed lazily from the SDSP_FAULT_SPEC environment variable.
  /// Returns nullptr when neither is set, and the parse error when the
  /// env spec is malformed.  Thread-safe.
  static Expected<const FaultSchedule *> process();

  /// Forgets any process-wide schedule and re-reads the environment on
  /// the next process() call.  Test-only.
  static void resetProcessForTesting();

private:
  std::vector<FaultTrigger> Triggers;
};

/// Per-scope arrival counting and firing.  One context per unit whose
/// fault behaviour must be independent of its neighbours: a batch job,
/// or a whole sdspc single run.  NOT thread-safe — a context belongs to
/// the one thread driving its scope, like the session it is wired into.
/// Reused across a job's retry attempts on purpose (see file comment).
class FaultContext {
public:
  /// An inert context: every checkpoint succeeds without counting.
  FaultContext() = default;

  /// Counts against \p Sched (may be null = inert).  \p Scope is the
  /// name `~filter` matches against; \p Trace, when non-null, receives
  /// a "fault-injected" instant per firing.
  FaultContext(const FaultSchedule *Sched, std::string Scope,
               TraceTrack *Trace = nullptr)
      : Sched(Sched), Scope(std::move(Scope)), Trace(Trace) {}

  bool enabled() const { return Sched && !Sched->empty(); }

  /// Production code calls this at a named site.  Counts the arrival,
  /// fires any trigger scheduled for it, and returns the injected
  /// error (or ok, possibly after an injected delay).
  Status checkpoint(std::string_view Site);

  /// Arrivals recorded at \p Site so far.
  uint64_t arrivals(std::string_view Site) const;

  /// Total triggers fired in this context (delays included).
  uint64_t fired() const { return Fired; }

  const std::string &scope() const { return Scope; }

  /// Re-points trace output (e.g. when a track is created after the
  /// context).
  void setTrace(TraceTrack *T) { Trace = T; }

private:
  const FaultSchedule *Sched = nullptr;
  std::string Scope;
  TraceTrack *Trace = nullptr;
  std::map<std::string, uint64_t, std::less<>> Arrivals;
  uint64_t Fired = 0;
};

} // namespace sdsp

#endif // SDSP_SUPPORT_FAULTINJECTION_H
