//===- core/Frustum.cpp - Cyclic frustum detection -------------------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
//
// Two implementations share the detection contract:
//
//   detectFrustumChecked    the fast path: packed states (1 bit/place +
//                           sparse residuals) in an open-addressing
//                           table, an incremental engine, and
//                           event-driven time leaping across idle
//                           stretches (each skipped instant's state is
//                           synthesized by decrementing the packed
//                           residuals, so detection still observes
//                           every instant and the results are identical
//                           to the reference);
//
//   detectFrustumReference  the retained naive oracle: full
//                           InstantaneousState copies hashed into an
//                           unordered_map, one engine step per instant.
//
// The golden-equivalence suite pins both to byte-identical frustums.
//
//===----------------------------------------------------------------------===//

#include "core/Frustum.h"

#include "petri/AnalyticSteadyState.h"
#include "petri/ReferenceEngine.h"
#include "petri/SimdDispatch.h"
#include "support/FaultInjection.h"
#include "support/Metrics.h"

#include <cassert>
#include <unordered_map>

using namespace sdsp;

TimeStep FrustumBudget::resolve(size_t NumTransitions) const {
  if (MaxSteps != 0)
    return MaxSteps < Cap ? MaxSteps : Cap;
  // n^3 with saturation; 1024 floor for tiny nets.
  TimeStep N = NumTransitions;
  TimeStep Cubed = N;
  for (int I = 0; I < 2; ++I)
    Cubed = (N != 0 && Cubed > Cap / N) ? Cap : Cubed * N;
  return Cubed < 1024 ? 1024 : Cubed;
}

bool FrustumInfo::hasUniformCount(const std::vector<TransitionId> &Ts) const {
  if (Ts.empty())
    return true;
  uint32_t First = FiringCounts[Ts.front().index()];
  for (TransitionId T : Ts)
    if (FiringCounts[T.index()] != First)
      return false;
  return true;
}

bool FrustumInfo::hasUniformCount(size_t NumTransitions) const {
  for (size_t I = 1; I < NumTransitions; ++I)
    if (FiringCounts[I] != FiringCounts[0])
      return false;
  return true;
}

Rational FrustumInfo::computationRate(TransitionId T) const {
  SDSP_CHECK(length() > 0, "empty frustum");
  return Rational(transitionCount(T), static_cast<int64_t>(length()));
}

namespace {

/// Shared tail-of-detection helpers so the fast and reference paths
/// report byte-identical diagnostics and results.

FrustumInfo makeInfo(const PetriNet &Net, TimeStep Start, TimeStep Repeat,
                     InstantaneousState State, FiringTrace Trace) {
  FrustumInfo Info;
  Info.StartTime = Start;
  Info.RepeatTime = Repeat;
  Info.State = std::move(State);
  Info.Trace = std::move(Trace);
  Info.FiringCounts.assign(Net.numTransitions(), 0);
  for (StepView Rec : Info.Trace)
    if (Rec.Time >= Info.StartTime)
      for (TransitionId T : Rec.Fired)
        ++Info.FiringCounts[T.index()];
  return Info;
}

Status deadNetError(TimeStep Now, uint64_t TotalFirings) {
  return Status::error(
      ErrorCode::InvalidNet, "frustum",
      "net is dead: quiescent at t=" + std::to_string(Now) + " after " +
          std::to_string(TotalFirings) +
          " firings (the state would repeat forever without firing "
          "anything)");
}

/// "(simulated to t=..., N firings over M transitions; last step fired:
/// ...)" — the partial-trace context shared by every way a search can
/// end early (budget, cancellation, deadline).
std::string partialTraceContext(const PetriNet &Net, TimeStep Now,
                                uint64_t TotalFirings,
                                const FiringTrace &Trace) {
  std::string Msg = "(simulated to t=" + std::to_string(Now) + ", " +
                    std::to_string(TotalFirings) + " firings over " +
                    std::to_string(Net.numTransitions()) +
                    " transitions; last step fired:";
  if (Trace.empty() || Trace.back().Fired.empty()) {
    Msg += " nothing";
  } else {
    for (TransitionId T : Trace.back().Fired) {
      Msg += " ";
      Msg += Net.transition(T).Name;
    }
  }
  Msg += ")";
  return Msg;
}

Status budgetError(const PetriNet &Net, TimeStep MaxSteps, TimeStep Now,
                   uint64_t TotalFirings, const FiringTrace &Trace) {
  // Budget exhausted: describe where the search got stuck so the
  // caller's diagnostic carries partial-trace context.
  return Status::error(ErrorCode::BudgetExceeded, "frustum",
                       "no repeated instantaneous state within " +
                           std::to_string(MaxSteps) + " steps " +
                           partialTraceContext(Net, Now, TotalFirings,
                                               Trace));
}

Status cancelError(const CancelToken &Cancel, const PetriNet &Net,
                   TimeStep Now, uint64_t TotalFirings,
                   const FiringTrace &Trace) {
  ErrorCode Code = Cancel.reason();
  if (Code == ErrorCode::Ok)
    Code = ErrorCode::Cancelled;
  std::string What = Code == ErrorCode::DeadlineExceeded
                         ? "deadline exceeded during frustum search "
                         : "frustum search cancelled ";
  return Status::error(Code, "frustum",
                       What + partialTraceContext(Net, Now, TotalFirings,
                                                  Trace));
}

/// One cancellation/fault poll per sampled instant, after the budget
/// check (the ordering contract in core/Frustum.h).  Returns ok when
/// the search may sample the instant.
Status pollInstant(const CancelToken &Cancel, FaultContext *Faults,
                   const PetriNet &Net, TimeStep Now,
                   uint64_t TotalFirings, const FiringTrace &Trace) {
  if (Cancel.cancelled())
    return cancelError(Cancel, Net, Now, TotalFirings, Trace);
  if (Faults)
    return Faults->checkpoint("frustum:step");
  return Status::ok();
}

/// Flushes the fast path's engine/table counters into the global
/// registry exactly once per detection, on every exit path (repeat
/// found, dead net, budget exhausted).  Keeping the flush out of the
/// simulation loop preserves the hot path's cost profile
/// (docs/OBSERVABILITY.md); everything flushed here is deterministic.
struct EngineMetricsFlusher {
  const EarliestFiringEngine &Engine;
  const PackedStateTable &Seen;
  const FiringPolicy *Policy;
  const uint64_t &FalseMatches;
  ~EngineMetricsFlusher() {
    MetricsRegistry &MR = MetricsRegistry::global();
    const EarliestFiringEngine::Counters &C = Engine.counters();
    MR.add("engine.enabled_rebuilds", C.Rebuilds);
    MR.add("engine.firings", C.Firings);
    MR.add("engine.completions", C.Completions);
    MR.add("engine.instants_leapt", C.InstantsLeapt);
    MR.add("packedstate.probes", Seen.probes());
    MR.add("packedstate.collisions", Seen.collisions());
    MR.add("packedstate.states_interned", Seen.size());
    MR.add("packedstate.arena_words", Seen.arenaWords());
    MR.add("packedstate.false_matches", FalseMatches);
    MR.add("hash.delta_validations", Seen.deltaValidations());
    // Which SIMD tier served the readiness sweeps: a per-tier counter
    // (process-wide constant, so still deterministic across -j).
    MR.add(std::string("simd.tier.") + simdTierName(activeSimdTier()),
           1);
    MR.add("frustum.detections", 1);
    if (Policy) {
      MR.add("policy.readiness_checks", Policy->readinessChecks());
      MR.add("policy.list_visits", Policy->listVisits());
    }
  }
};

} // namespace

Expected<FrustumInfo> sdsp::detectFrustumChecked(const PetriNet &Net,
                                                 FiringPolicy *Policy,
                                                 FrustumBudget Budget,
                                                 const CancelToken &Cancel,
                                                 FaultContext *Faults) {
  if (Status S = validateTimedNet(Net); !S)
    return S;
  TimeStep MaxSteps = Budget.resolve(Net.numTransitions());
  size_t MarkWords = packedMarkWords(Net.numPlaces());

  EarliestFiringEngine Engine(Net, Policy);
  PackedStateTable Seen;
  // A policy with a summary packs it in place of its fingerprint, so a
  // match of the packed words is a repeat only once the policy confirms
  // the machine conditions equal; a rejected match is counted.
  bool Summarized = Policy && Policy->conditionSummary().has_value();
  uint64_t FalseMatches = 0;
  auto Exact = [&](uint64_t Then) {
    if (!Summarized || Policy->sameConditionAt(Then))
      return true;
    ++FalseMatches;
    return false;
  };
  EngineMetricsFlusher Flusher{Engine, Seen, Policy, FalseMatches};
  PackedState PS;
  FiringTrace Trace;
  uint64_t TotalFirings = 0;
  // Instants observed so far; the budget counts every instant, leapt or
  // not, so budget diagnostics match the reference detector exactly.
  TimeStep Sampled = 0;

  while (true) {
    if (Sampled > MaxSteps)
      return budgetError(Net, MaxSteps, Engine.now(), TotalFirings, Trace);
    if (Status S = pollInstant(Cancel, Faults, Net, Engine.now(),
                               TotalFirings, Trace);
        !S)
      return S;
    Engine.prepare();
    uint64_t Raw = Engine.packStateHashed(PS);
    std::optional<uint64_t> Prev =
        Seen.insertOrFindHashed(PS, Raw, Engine.now(), Exact);
    ++Sampled;
    if (Prev)
      return makeInfo(Net, *Prev, Engine.now(), Engine.state(),
                      std::move(Trace));
    if (Engine.isQuiescent())
      return deadNetError(Engine.now(), TotalFirings);
    Engine.fireAndAdvance(Trace);
    StepView Rec = Trace.back();
    TotalFirings += Rec.Fired.size();
    if (!Rec.Completed.empty() || !Rec.Fired.empty())
      continue;

    // Event-driven time leap: the step did nothing, so the state can
    // only change at the next pending finish time.  The skipped
    // instants still exist in the behavior graph — their states are
    // the current one with every residual one smaller per instant — so
    // synthesize and record each one (empty trace record, table
    // insert), then jump the engine clock straight to the event.
    std::optional<TimeStep> NextF = Engine.nextFinishTime();
    SDSP_CHECK(NextF.has_value(),
               "idle non-quiescent instant with nothing in flight");
    for (TimeStep V = Engine.now(); V < *NextF; ++V) {
      if (Sampled > MaxSteps) {
        Engine.leapTo(V);
        return budgetError(Net, MaxSteps, Engine.now(), TotalFirings,
                           Trace);
      }
      if (Status S = pollInstant(Cancel, Faults, Net, V, TotalFirings,
                                 Trace);
          !S) {
        Engine.leapTo(V);
        return S;
      }
      Raw = PS.decrementResiduals(MarkWords, Raw);
      std::optional<uint64_t> PrevV =
          Seen.insertOrFindHashed(PS, Raw, V, Exact);
      ++Sampled;
      if (PrevV) {
        // The repeat landed on a leapt instant: move the engine there
        // (provably idle in between) and sample it for FrustumInfo.
        // Checked before recording, like the main loop: the repeat
        // instant itself is never part of the trace.
        Engine.leapTo(V);
        Engine.prepare();
        return makeInfo(Net, *PrevV, V, Engine.state(), std::move(Trace));
      }
      Trace.append(StepView(V, {}, {}));
    }
    Engine.leapTo(*NextF);
  }
}

Expected<FrustumInfo> sdsp::detectFrustumReference(const PetriNet &Net,
                                                   FiringPolicy *Policy,
                                                   FrustumBudget Budget,
                                                   const CancelToken &Cancel,
                                                   FaultContext *Faults) {
  if (Status S = validateTimedNet(Net); !S)
    return S;
  TimeStep MaxSteps = Budget.resolve(Net.numTransitions());

  ReferenceEngine Engine(Net, Policy);
  std::unordered_map<InstantaneousState, TimeStep> Seen;
  FiringTrace Trace;
  uint64_t TotalFirings = 0;
  // The reference engine keeps no counters of its own; report its step
  // and firing totals under a separate prefix so a mixed run (fast +
  // reference) stays attributable.
  struct ReferenceFlusher {
    const uint64_t &Firings;
    const std::unordered_map<InstantaneousState, TimeStep> &Seen;
    ~ReferenceFlusher() {
      MetricsRegistry &MR = MetricsRegistry::global();
      MR.add("engine.reference.firings", Firings);
      MR.add("engine.reference.states_interned", Seen.size());
      MR.add("frustum.reference_detections", 1);
    }
  } Flusher{TotalFirings, Seen};

  for (TimeStep Step = 0; Step <= MaxSteps; ++Step) {
    if (Status S = pollInstant(Cancel, Faults, Net, Engine.now(),
                               TotalFirings, Trace);
        !S)
      return S;
    Engine.prepare();
    InstantaneousState S = Engine.state();
    auto [It, Inserted] = Seen.emplace(std::move(S), Engine.now());
    if (!Inserted)
      return makeInfo(Net, It->second, Engine.now(), It->first,
                      std::move(Trace));
    if (Engine.isQuiescent())
      return deadNetError(Engine.now(), TotalFirings);
    StepRecord Rec = Engine.fireAndAdvance();
    TotalFirings += Rec.Fired.size();
    Trace.append(Rec);
  }

  return budgetError(Net, MaxSteps, Engine.now(), TotalFirings, Trace);
}

Expected<FrustumInfo> sdsp::detectFrustumAnalytic(const PetriNet &Net,
                                                  FiringPolicy *Policy,
                                                  FrustumBudget Budget,
                                                  const CancelToken &Cancel,
                                                  FaultContext *Faults,
                                                  std::string *FallbackReason) {
  if (Status S = validateTimedNet(Net); !S)
    return S;
  if (FallbackReason)
    FallbackReason->clear();

  // A firing policy folds machine state into the instantaneous state,
  // and an armed fault context counts an arrival per simulated step —
  // neither is reproducible without stepping, so both bar the analytic
  // path before the structural gate even runs.  The view built for the
  // structural gate is handed on to compute() below.
  // (The view holds a net reference, so the optional is initialized at
  // declaration — it is not move-assignable.)
  std::optional<MarkedGraphView> View =
      (Policy || Faults) ? std::optional<MarkedGraphView>()
                         : MarkedGraphView::tryBuild(Net);
  AnalyticBar Bar;
  if (Policy)
    Bar = AnalyticBar::ExternalPolicy;
  else if (Faults)
    Bar = AnalyticBar::FaultInjection;
  else if (!View)
    Bar = AnalyticBar::NotMarkedGraph;
  else
    Bar = qualifiesForAnalytic(Net, *View);
  if (Bar != AnalyticBar::Qualifies) {
    MetricsRegistry::global().add("frustum.analytic.fallbacks", 1);
    if (FallbackReason)
      *FallbackReason = analyticBarName(Bar);
    return detectFrustumChecked(Net, Policy, Budget, Cancel, Faults);
  }

  TimeStep MaxSteps = Budget.resolve(Net.numTransitions());
  // A pre-cancelled token reproduces the simulators' instant-0 poll.
  if (Cancel.cancelled())
    return cancelError(Cancel, Net, /*Now=*/0, /*TotalFirings=*/0, {});

  AnalyticSteadyState A =
      AnalyticSteadyState::compute(Net, MaxSteps + 1, &*View);
  MetricsRegistry &MR = MetricsRegistry::global();
  MR.add("frustum.analytic.constructions", 1);
  MR.add("frustum.analytic.rounds", A.roundsComputed());
  MR.add("frustum.detections", 1);

  if (!A.periodic() || A.repeatTime() > MaxSteps) {
    // The simulators sample instants 0..MaxSteps, record each one, and
    // report from t = MaxSteps+1; reconstruct exactly that.
    FiringTrace Trace = A.steps(MaxSteps + 1);
    return budgetError(Net, MaxSteps, MaxSteps + 1,
                       A.firingsThrough(MaxSteps), Trace);
  }

  // Qualifying nets are live and strongly connected, so quiescence
  // (the dead-net diagnostic) is impossible: the remaining outcome is
  // the frustum itself.
  return makeInfo(Net, A.startTime(), A.repeatTime(),
                  A.stateAt(A.repeatTime()), A.steps(A.repeatTime()));
}

std::optional<FrustumInfo> sdsp::detectFrustum(const PetriNet &Net,
                                               FiringPolicy *Policy,
                                               TimeStep MaxSteps) {
  Expected<FrustumInfo> E =
      detectFrustumChecked(Net, Policy, FrustumBudget::steps(MaxSteps));
  if (!E)
    return std::nullopt;
  return std::move(*E);
}
