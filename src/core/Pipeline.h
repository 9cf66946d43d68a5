//===- core/Pipeline.h - Guarded end-to-end compilation ---------*- C++ -*-===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one-call orchestration API over the paper's pipeline:
///
///   source --frontend--> dataflow graph --[opt, unroll]-->
///   SDSP --[storage minimization]--> SDSP-PN --rate analysis-->
///   [SCP model] --earliest firing--> cyclic frustum --> schedule
///
/// Since the compilation-session refactor the stages live in
/// core/Session.h as registered passes over immutable, content-hashed
/// artifacts; runPipeline() is a thin wrapper that runs a throwaway
/// CompilationSession.  Sweeps that revisit upstream stages (benches,
/// ablations, tools) should hold a session of their own and let its
/// artifact cache reuse shared prefixes — see docs/ARCHITECTURE.md.
///
/// Every stage validates its inputs and returns a stage-tagged Status
/// instead of asserting, so a Release-built driver can neither crash
/// nor silently mis-compile on malformed input; the frustum search
/// runs under an explicit budget (Theorems 4.1.1-4.2.2 bound how long
/// it may legitimately take).  verifyCompiledLoop() re-checks the
/// result against independent oracles: marked-graph liveness/safeness/
/// persistence and consistency of the net, and the frustum-derived
/// computation rate against the analytic critical-cycle rate of
/// petri/CycleRatio.h (the paper's alpha* theorem, used the way Millo &
/// de Simone use periodic schedulability as a check).
///
/// The sdspc exit-code contract is derived from the error codes:
///   0  success
///   1  input diagnostics (InvalidInput / InvalidGraph / InvalidNet)
///   2  resource or budget exhaustion (BudgetExceeded / ResourceConflict)
///   3  internal invariant failure (a bug in the compiler)
///
//===----------------------------------------------------------------------===//

#ifndef SDSP_CORE_PIPELINE_H
#define SDSP_CORE_PIPELINE_H

#include "core/Frustum.h"
#include "core/RateAnalysis.h"
#include "core/Schedule.h"
#include "core/ScpModel.h"
#include "core/Sdsp.h"
#include "core/SdspPn.h"
#include "dataflow/Transforms.h"
#include "loopir/Diagnostics.h"
#include "support/CancelToken.h"
#include "support/Status.h"

#include <memory>
#include <optional>
#include <string>

namespace sdsp {

class FaultContext;

/// Largest accepted per-arc buffer capacity.
inline constexpr uint32_t MaxBufferCapacity = 1u << 16;

/// How far to run the pipeline.  Later stages require everything
/// before them; stopping early leaves the later CompiledLoop fields
/// unset.
enum class PipelineStage {
  /// Source to (optimized, unrolled) dataflow graph.
  Frontend,
  /// SDSP construction and optional Section 6 storage minimization.
  Storage,
  /// SDSP-PN translation plus analytic rate report.
  Petri,
  /// Machine model (ideal or SCP) and the earliest-firing frustum.
  Frustum,
  /// Schedule derivation + independent validation (ideal machine only;
  /// the SCP model reports its frustum pattern instead).
  Schedule,
};

/// Which frustum detector to run.  Fast is the incremental engine of
/// petri/EarliestFiring.h; Reference is the retained naive oracle
/// (petri/ReferenceEngine.h); Analytic constructs the steady state
/// directly from critical-cycle analysis when the net qualifies
/// (petri/AnalyticSteadyState.h) and falls back to Fast otherwise.
/// All produce identical FrustumInfo (the golden-equivalence suite
/// pins this), but they are distinct engines with distinct costs, so
/// the session cache fingerprints the choice.
enum class FrustumEngine {
  Fast,
  Reference,
  Analytic,
};

/// Everything the pipeline can be asked to do.
struct PipelineOptions {
  bool Optimize = false;
  uint32_t Capacity = 1;
  uint32_t Unroll = 1;
  /// 0 = ideal machine (no SCP model).
  uint32_t ScpDepth = 0;
  uint32_t Pipelines = 1;
  bool OptimizeStorage = false;
  /// Frustum search budget in time steps; 0 = the theory bound
  /// (FrustumBudget::resolve).
  TimeStep FrustumBudgetSteps = 0;
  /// Which frustum detector to run (both budget and engine are part of
  /// the session's frustum cache fingerprint).
  FrustumEngine Engine = FrustumEngine::Fast;
  /// Which max-cycle-ratio algorithm backs the rate pass (fingerprinted
  /// in the session's rate cache key; see RateAnalysis.h).
  RateEngine Rate = RateEngine::Auto;
  /// Run verifyCompiledLoop() before returning success.
  bool Verify = false;
  /// Iterations the schedule validator replays.
  uint64_t ValidateIterations = 64;
  PipelineStage StopAfter = PipelineStage::Schedule;
};

/// Before/after storage accounting when OptimizeStorage ran.
struct StorageOptSummary {
  uint64_t Before = 0;
  uint64_t After = 0;
  /// The preserved optimal rate (verified by the minimizer).
  Rational OptimalRate;
};

/// The pipeline's product.  Fields are populated up to
/// PipelineOptions::StopAfter; machineNet() picks the net the frustum
/// was searched on.
struct CompiledLoop {
  DataflowGraph Graph;
  TransformStats OptStats{};
  std::optional<StorageOptSummary> Storage;
  std::optional<Sdsp> S;
  std::optional<SdspPn> Pn;
  std::optional<RateReport> Rate;
  std::optional<ScpPn> Scp;
  std::unique_ptr<FifoPolicy> Policy;
  std::optional<FrustumInfo> Frustum;
  std::optional<SoftwarePipelineSchedule> Schedule;
  /// Whether the frustum appeared within the paper's empirical ~2n
  /// fast path ("BD"); the budget defaults to the far larger theorem
  /// bound.
  bool FrustumWithinEmpiricalBound = false;
  /// Set when verifyCompiledLoop() ran and passed.
  bool Verified = false;

  const PetriNet &machineNet() const { return Scp ? Scp->Net : Pn->Net; }
};

/// Compiles \p Source end to end.  Frontend problems are reported to
/// \p Diags (when given) and also summarized in the returned Status;
/// later stages fail with their own stage tag.
Expected<CompiledLoop> runPipeline(const std::string &Source,
                                   const PipelineOptions &Opts,
                                   DiagnosticEngine *Diags = nullptr);

/// Same, starting from an already-built dataflow graph (validated, not
/// trusted).
Expected<CompiledLoop> runPipeline(DataflowGraph G,
                                   const PipelineOptions &Opts);

/// Cross-stage self-checks over whatever \p CL contains:
///   - the SDSP-PN is a live marked graph, structurally persistent and
///     consistent (uniform T-invariant); safe when every buffer has one
///     slot;
///   - every transition fires equally often in the frustum, and the
///     frustum-derived rate equals the analytic critical-cycle rate
///     (ideal machine) or respects it plus Thm 5.2.2's pipelines/n
///     issue bound (SCP machine);
///   - the derived schedule replays without dependence, capacity, or
///     reentrancy violations.
/// Failures are InternalInvariant: the pipeline contradicted its own
/// theory.  Before each check the `verify:check` fault site is checked
/// in \p Faults (when given) and \p Cancel polled; the safety check's
/// sweep, when it runs, polls \p Cancel once per 64-source batch too.
/// A cancelled verify returns the token's status, naming the check.
Status verifyCompiledLoop(const CompiledLoop &CL,
                          const PipelineOptions &Opts,
                          const CancelToken &Cancel = {},
                          FaultContext *Faults = nullptr);

/// The documented sdspc exit code for \p S (see file comment).
int exitCodeFor(const Status &S);

} // namespace sdsp

#endif // SDSP_CORE_PIPELINE_H
