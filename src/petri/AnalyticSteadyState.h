//===- petri/AnalyticSteadyState.h - Analytic periodic schedule -*- C++ -*-===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Direct construction of the earliest-firing steady state of a live
/// safe marked graph, without simulating individual time instants
/// (Millo & de Simone, "Periodic scheduling of marked graphs using
/// balanced binary words"; the ROADMAP's analytic short-circuit).
///
/// The k-th firing epoch of transition t obeys the max-plus recurrence
///
///     S_t(k) = max( S_t(k-1) + tau_t,                 [non-reentrancy]
///                   max over input edges e = (u -> t):
///                     S_u(k - Tok_e) + tau_u )        [token supply]
///
/// with S_u(j) + tau_u read as 0 for j < 0 (initial tokens).  Edges
/// with zero initial tokens form an acyclic subgraph (liveness), so
/// each round evaluates in one topological sweep.  The recurrence is
/// max-plus linear, hence shift-equivariant: once the *normalized*
/// round vector Norm_t(k) = S_t(k) - S_0(k) repeats at rounds
/// (k1, k2), the whole execution is periodic with round count
/// c = k2 - k1 and time shift p = S_0(k2) - S_0(k1), and p equals the
/// minimal period of the instantaneous-state sequence.  The earliest
/// repeated instantaneous state (the frustum window the simulators
/// report) is then recovered by a monotone binary search on
/// state(T) == state(T + p): the state sequence is a deterministic
/// function of the current state, so the predicate is monotone in T
/// and the first true instant is exactly the simulator's StartTime.
///
/// Within one period each transition fires c times over p instants;
/// the firing pattern of a transition, written as the binary word
/// marking its firing instants, is the balanced word of rate c/p that
/// the cited construction assigns — here it falls out of the collision
/// rather than being synthesized symbol by symbol.
///
/// Everything the simulation engines report is reconstructible in
/// O(log rounds) per query from the stored rounds plus the periodic
/// extension S_t(k + c) = S_t(k) + p: instantaneous states
/// (marking + residual vector sampled post-completion, pre-firing),
/// per-instant step records, and firing totals.  The frustum pass uses
/// these to emit results byte-identical to the simulators'.
///
//===----------------------------------------------------------------------===//

#ifndef SDSP_PETRI_ANALYTICSTEADYSTATE_H
#define SDSP_PETRI_ANALYTICSTEADYSTATE_H

#include "petri/CycleRatio.h"
#include "petri/EarliestFiring.h"
#include "petri/MarkedGraph.h"

#include <optional>
#include <vector>

namespace sdsp {

/// Why a net cannot take the analytic path and must fall back to
/// simulation.  The structural bars come from qualifiesForAnalytic();
/// the last two are imposed by the frustum pass (a firing policy folds
/// machine state into the instantaneous state, and fault injection
/// targets the per-step site the analytic path never visits).
enum class AnalyticBar {
  Qualifies = 0,
  NotMarkedGraph,
  NotLive,
  NotSafe,
  NotStronglyConnected,
  NoUniformTInvariant,
  NoCycle,
  MultipleCriticalCycles,
  ExternalPolicy,
  FaultInjection,
};

/// Human-readable bar name for diagnostics and trace instants.
const char *analyticBarName(AnalyticBar Bar);

/// Structural qualification: a live safe strongly connected marked
/// graph with a uniform T-invariant whose tight subgraph at lambda* is
/// a single simple cycle (detected via Howard's policy iteration).
/// Returns AnalyticBar::Qualifies when the analytic engine applies.
AnalyticBar qualifiesForAnalytic(const PetriNet &Net);

/// Overload taking a prebuilt view so the frustum pass can share one
/// MarkedGraphView between qualification and compute().  Precondition:
/// isMarkedGraph(Net) already holds (the view cannot be built
/// otherwise), so the NotMarkedGraph bar is never returned here.
AnalyticBar qualifiesForAnalytic(const PetriNet &Net,
                                 const MarkedGraphView &G);

/// The analytically constructed steady state of a qualifying net.
class AnalyticSteadyState {
public:
  /// Runs the round recurrence until the first normalized collision,
  /// then locates the earliest repeated instantaneous state.  \p
  /// TimeCap bounds the search like the simulators' step budget: when
  /// every transition's next firing already lies beyond TimeCap with
  /// no collision yet, iteration stops and the object reports
  /// periodic() == false — every event at instants <= TimeCap is still
  /// known exactly, which is all a budget diagnostic needs.  \p Net
  /// must qualify (qualifiesForAnalytic) and outlive the object.  \p G,
  /// when non-null, must be a view of \p Net; passing the view built
  /// for qualification avoids rebuilding it here.
  static AnalyticSteadyState compute(const PetriNet &Net, TimeStep TimeCap,
                                     const MarkedGraphView *G = nullptr);

  /// True when the collision (and thus the frustum window) was found.
  bool periodic() const { return Periodic; }
  /// Earliest repeated instantaneous state (the simulator's StartTime).
  TimeStep startTime() const { return Start; }
  /// Second occurrence (the simulator's RepeatTime).
  TimeStep repeatTime() const { return Start + Period; }
  /// Rounds of the recurrence evaluated before the collision (or cap).
  uint64_t roundsComputed() const { return NumRounds; }

  /// The instantaneous state at instant \p T, sampled exactly like the
  /// engines: completions at T drained, firings at T not yet started.
  InstantaneousState stateAt(TimeStep T) const;

  /// The trace over [0, End), one row per instant — completion and
  /// firing lists in transition-index order, empty rows for idle
  /// instants — matching the simulators' traces byte for byte.
  FiringTrace steps(TimeStep End) const;

  /// Total firings at instants <= \p T (the budget diagnostics count).
  uint64_t firingsThrough(TimeStep T) const;

private:
  AnalyticSteadyState(const PetriNet &Net);

  TimeStep roundTime(size_t T, uint64_t K) const;
  uint64_t countFiringsThrough(size_t T, TimeStep X) const;
  /// Residual equality of transition \p T between samples \p A and
  /// \p B, given the precomputed firing counts through A-1 / B-1.
  bool sameResidual(size_t T, TimeStep A, TimeStep B, uint64_t CA,
                    uint64_t CB) const;
  bool statesEqual(TimeStep A, TimeStep B) const;

  const PetriNet *Net;
  size_t N = 0;
  std::vector<TimeUnits> Tau;
  /// Marked-graph edges (From, To, Via, Tokens) for marking queries.
  std::vector<MarkedGraphView::Edge> Edges;
  /// Row-major firing epochs: S[K * N + T].
  std::vector<TimeStep> S;
  uint64_t NumRounds = 0;
  bool Periodic = false;
  uint64_t K1 = 0;          ///< First round of the collision pair.
  uint64_t CycleRounds = 0; ///< c = K2 - K1.
  TimeStep Period = 0;      ///< p = S_0(K2) - S_0(K1).
  TimeStep Start = 0;       ///< rho.
};

} // namespace sdsp

#endif // SDSP_PETRI_ANALYTICSTEADYSTATE_H
