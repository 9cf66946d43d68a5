//===- core/Frustum.h - Cyclic frustum detection ----------------*- C++ -*-===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Definition 3.3.1: the *cyclic frustum* is the portion of the behavior
/// graph between two consecutive occurrences of a repeated instantaneous
/// state; the surrounding states are the initial and terminal
/// instantaneous states.  Because a live safe timed marked graph under
/// the earliest firing rule visits finitely many instantaneous states,
/// the frustum always exists (Lemma 3.3.2), and Section 4 bounds how
/// soon: O(n^4) time steps for a single critical cycle.  In practice
/// (Section 5) it appears within about 2n steps.
///
/// Detection hashes every sampled instantaneous state (marking, residual
/// firing times, and machine condition for conflict policies) and stops
/// at the first recurrence.  A policy that summarizes its machine
/// condition in one word (the FIFO/LIFO ready list's rolling hash) is
/// stored by that word, and a match is confirmed exactly against the
/// earlier condition before it counts as the repeat.  The recorded
/// trace covers [0, RepeatTime)
/// so schedule derivation and behavior-graph rendering can replay it.
///
//===----------------------------------------------------------------------===//

#ifndef SDSP_CORE_FRUSTUM_H
#define SDSP_CORE_FRUSTUM_H

#include "petri/EarliestFiring.h"
#include "support/CancelToken.h"
#include "support/Rational.h"
#include "support/Status.h"

#include <optional>
#include <vector>

namespace sdsp {

class FaultContext;

/// An explicit step budget for the frustum search.  The default (0
/// steps) resolves to the theory bound: Theorems 4.1.1-4.2.2 guarantee
/// the periodic regime within O(n^3) time steps when several critical
/// cycles exist (O(n^4) with one), so a search that runs past n^3 steps
/// without repeating a state indicates a net outside the model's
/// assumptions — better reported as BudgetExceeded than looped on
/// forever.  The empirical fast path ("BD" next to Tables 1 and 2) is
/// ~2n steps; FrustumInfo::withinEmpiricalBound() reports whether it
/// held.
struct FrustumBudget {
  /// Maximum time steps to simulate; 0 means "use the theory bound".
  TimeStep MaxSteps = 0;

  /// Saturation cap for resolve(): half the TimeStep range, so the
  /// search loop's step arithmetic (Now + tau, sample counters) can
  /// never overflow a 64-bit comparison even for huge explicit budgets.
  static constexpr TimeStep Cap = ~static_cast<TimeStep>(0) / 2;

  static FrustumBudget steps(TimeStep N) { return FrustumBudget{N}; }

  /// The defaulted budget for a net of \p NumTransitions transitions:
  /// max(1024, n^3), saturating at Cap (the 1024 floor absorbs the
  /// constants the O(n^3) hides on tiny nets).  Explicit budgets are
  /// clamped to Cap too.
  TimeStep resolve(size_t NumTransitions) const;
};

/// A detected cyclic frustum and the trace leading to it.
struct FrustumInfo {
  /// First occurrence of the repeated state ("start time" in Table 1).
  TimeStep StartTime = 0;
  /// Second occurrence ("repeat time" in Table 1).
  TimeStep RepeatTime = 0;
  /// The repeated instantaneous state.
  InstantaneousState State;
  /// The full earliest-firing trace over [0, RepeatTime), one row per
  /// instant.
  FiringTrace Trace;
  /// Firings of each transition within [StartTime, RepeatTime).
  std::vector<uint32_t> FiringCounts;

  /// "Length of frustum" p.
  TimeStep length() const { return RepeatTime - StartTime; }

  /// The paper's "transition count" column: occurrences of transition
  /// \p T in the frustum.
  uint32_t transitionCount(TransitionId T) const {
    return FiringCounts[T.index()];
  }

  /// True if all listed transitions fire equally often in the frustum
  /// (guaranteed for marked graphs by Thm A.5.3).
  bool hasUniformCount(const std::vector<TransitionId> &Ts) const;
  /// The same over transitions 0 .. \p NumTransitions - 1, without
  /// listing them.
  bool hasUniformCount(size_t NumTransitions) const;

  /// "Computation rate": average firing rate of \p T, i.e.
  /// transitionCount / length.
  Rational computationRate(TransitionId T) const;

  /// True if the repeated state appeared within the paper's empirical
  /// ~2n bound ("BD" in Tables 1 and 2) for a net of \p NumTransitions
  /// transitions.
  bool withinEmpiricalBound(size_t NumTransitions) const {
    return RepeatTime <= 2 * static_cast<TimeStep>(NumTransitions);
  }
};

/// Runs \p Net under the earliest firing rule (with optional conflict
/// policy) until an instantaneous state repeats or the budget runs out.
/// Requires every execution time >= 1 (validateTimedNet).  Errors:
///   - InvalidNet        the net is malformed or dies (quiescence);
///   - BudgetExceeded    no repeated state within the budget, with the
///                       partial-trace context (steps simulated,
///                       firings observed, last transitions fired) in
///                       the message;
///   - Cancelled /       \p Cancel reported cancellation; same
///     DeadlineExceeded  partial-trace context as BudgetExceeded.
///
/// \p Cancel is polled once per sampled instant, on the same cadence
/// as the step budget; within one instant the budget is checked first,
/// so at budget==deadline-instant the budget's own status wins.
/// \p Faults, when non-null, arms the "frustum:step" fault site at
/// every sampled instant (support/FaultInjection.h).
Expected<FrustumInfo> detectFrustumChecked(const PetriNet &Net,
                                           FiringPolicy *Policy = nullptr,
                                           FrustumBudget Budget = {},
                                           const CancelToken &Cancel = {},
                                           FaultContext *Faults = nullptr);

/// Legacy convenience: detectFrustumChecked with any failure collapsed
/// to std::nullopt.
std::optional<FrustumInfo> detectFrustum(const PetriNet &Net,
                                         FiringPolicy *Policy = nullptr,
                                         TimeStep MaxSteps = 1 << 22);

/// The pre-optimization detector, retained as the behavioral oracle: a
/// naive per-step deep-copied InstantaneousState hashed into an
/// unordered_map, driven by petri/ReferenceEngine.h.  Same contract and
/// diagnostics as detectFrustumChecked; the golden-equivalence suite
/// asserts both return byte-identical results, and bench/ScalingFrustum
/// times the two side by side for BENCH_frustum.json.  Cancellation and
/// fault sites follow the same per-instant cadence and ordering as
/// detectFrustumChecked so both paths fail identically too.
Expected<FrustumInfo> detectFrustumReference(const PetriNet &Net,
                                             FiringPolicy *Policy = nullptr,
                                             FrustumBudget Budget = {},
                                             const CancelToken &Cancel = {},
                                             FaultContext *Faults = nullptr);

/// The analytic engine (petri/AnalyticSteadyState.h): when \p Net
/// qualifies — live safe strongly connected marked graph, single
/// critical cycle, no firing policy, no fault injection — the frustum
/// window is constructed directly from the max-plus round recurrence
/// and the result (success, budget, dead-net, and pre-cancelled
/// diagnostics included) is byte-identical to the simulators'.
/// Non-qualifying nets fall back to detectFrustumChecked, bumping the
/// frustum.analytic.fallbacks counter.  \p FallbackReason, when
/// non-null, receives the human-readable bar that forced the fallback
/// (cleared to empty when the analytic path ran).
///
/// Cancellation is polled once at entry (reproducing the simulators'
/// instant-0 diagnostic for pre-cancelled tokens); a token that fires
/// mid-construction is not observed — the analytic path does no
/// per-instant work to poll from.
Expected<FrustumInfo> detectFrustumAnalytic(const PetriNet &Net,
                                            FiringPolicy *Policy = nullptr,
                                            FrustumBudget Budget = {},
                                            const CancelToken &Cancel = {},
                                            FaultContext *Faults = nullptr,
                                            std::string *FallbackReason =
                                                nullptr);

} // namespace sdsp

#endif // SDSP_CORE_FRUSTUM_H
