//===- petri/CycleRatio.h - Critical cycles & cycle time --------*- C++ -*-===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cycle-time analysis of timed marked graphs (Appendix A.7).  The cycle
/// time of every transition equals
///
///     alpha* = max over simple cycles C of Omega(C) / M(C),
///
/// the ratio of the cycle's value sum (execution times) to its token sum.
/// A cycle achieving the maximum is *critical*; the optimal computation
/// rate is gamma = 1/alpha*.  Cycles with zero tokens make the net dead,
/// so callers must pass live nets.
///
/// Three algorithms are provided:
///   - enumeration over Johnson's simple cycles (exact, exponential worst
///     case, fine at the paper's scale and used as the test oracle);
///   - Lawler-style parametric search with positive-cycle detection
///     (polynomial; this is the "more efficient approach" the paper cites
///     via Magott's linear-programming formulation); and
///   - Howard's policy iteration (the hot path at 10^5+ transitions:
///     near-linear practical time, exact rational output).
///
//===----------------------------------------------------------------------===//

#ifndef SDSP_PETRI_CYCLERATIO_H
#define SDSP_PETRI_CYCLERATIO_H

#include "petri/MarkedGraph.h"
#include "petri/SimpleCycles.h"
#include "support/Rational.h"

#include <functional>
#include <optional>
#include <vector>

namespace sdsp {

/// Shape of the tight (critical) subgraph once a max-cycle-ratio solve
/// has converged: the nontrivial strongly connected components of the
/// edges that attain lambda*.  A live marked graph has a *unique*
/// critical simple cycle exactly when that subgraph is one nontrivial
/// SCC with as many tight edges as vertices (a single directed cycle;
/// any chord, parallel tight edge, or second component adds an edge or
/// a component without keeping the counts equal).  The analytic frustum
/// engine gates on this.
struct TightCycleStructure {
  /// Number of SCCs that contain a cycle (size > 1, or a self-loop).
  size_t NumNontrivialSccs = 0;
  /// Total vertices across the nontrivial SCCs.
  size_t SccVertices = 0;
  /// Total tight edges internal to the nontrivial SCCs.
  size_t SccEdges = 0;

  bool singleSimpleCycle() const {
    return NumNontrivialSccs == 1 && SccEdges == SccVertices;
  }
};

/// The result of a critical-cycle query.
struct CriticalCycleInfo {
  /// alpha* = Omega(C*)/M(C*); the cycle time of every transition.
  Rational CycleTime;
  /// gamma = 1/alpha*; the optimal computation rate.
  Rational ComputationRate;
  /// One witness critical cycle (edge indices into the view).
  SimpleCycle Witness;
  /// All transitions lying on *some* critical cycle.
  std::vector<TransitionId> CriticalTransitions;
  /// Number of distinct critical simple cycles (only filled by the
  /// enumeration algorithm; 0 means "not computed").
  size_t NumCriticalCycles = 0;
};

/// Computes the critical cycle by enumerating all simple cycles.
/// Returns std::nullopt if the graph has no cycle at all (e.g. a DOALL
/// dataflow graph before acknowledgement arcs are added).  \p G must be
/// live (no token-free cycles).
std::optional<CriticalCycleInfo>
criticalCycleByEnumeration(const MarkedGraphView &G);

/// Computes the critical cycle by parametric search: repeatedly tests
/// whether a cycle with Omega(C) - lambda * M(C) > 0 exists (Bellman-Ford
/// positive-cycle detection on scaled integer weights) and tightens
/// lambda to the exact ratio of the witness until none remains.
/// Returns std::nullopt for acyclic graphs.  \p G must be live.
std::optional<CriticalCycleInfo>
criticalCycleByParametricSearch(const MarkedGraphView &G);

/// Asked before each policy-improvement round of Howard's iteration with
/// the round's number, from 1; false stops the solve, which then
/// returns std::nullopt (the caller knows why it said stop).
using RoundPoll = std::function<bool(uint64_t Round)>;

/// Computes the maximum cycle ratio by Howard's policy iteration
/// (Dasdan's MCR survey lineage): each vertex keeps one chosen
/// out-edge, the resulting functional graph is evaluated exactly (its
/// unique per-component cycle gives a rational ratio and integer
/// reduced-weight biases), and policies improve lexicographically on
/// (ratio, bias) until fixed.  Converges in a handful of evaluations in
/// practice; an iteration cap falls back to the parametric search, so
/// the result is always exact.  Returns std::nullopt for acyclic
/// graphs.  \p G must be live.  \p IterationsOut, when non-null,
/// receives the number of policy-evaluation rounds performed (0 when
/// the fallback ran) — surfaced as the `rate.howard.iterations` metric.
/// \p StructureOut, when non-null, receives the shape of the tight
/// subgraph at lambda* (filled by both the policy-iteration path and
/// the parametric fallback).  \p Poll, when set, is asked before each
/// round.
std::optional<CriticalCycleInfo>
maxCycleRatioHoward(const MarkedGraphView &G,
                    uint64_t *IterationsOut = nullptr,
                    TightCycleStructure *StructureOut = nullptr,
                    const RoundPoll &Poll = {});

/// Convenience dispatcher: Howard's policy iteration for large graphs,
/// enumeration (which also fills NumCriticalCycles and the full critical
/// transition set) up to \p EnumerationLimit vertices.  When Howard
/// answered and \p HowardIterationsOut is non-null, it receives
/// Howard's IterationsOut; when enumeration answered it is untouched.
/// \p Poll is passed to Howard's iteration.
std::optional<CriticalCycleInfo>
criticalCycle(const MarkedGraphView &G,
              std::optional<uint64_t> *HowardIterationsOut = nullptr,
              size_t EnumerationLimit = 64, const RoundPoll &Poll = {});

} // namespace sdsp

#endif // SDSP_PETRI_CYCLERATIO_H
