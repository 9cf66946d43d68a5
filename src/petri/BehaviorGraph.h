//===- petri/BehaviorGraph.h - Execution traces as graphs -------*- C++ -*-===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The behavior graph of Section 3.3: a trace of an earliest-firing
/// execution recording, per time step, the newly marked places and the
/// transitions fired, with token-flow arcs between them (place instance
/// -> firing for consumption, firing -> place instance for production).
/// Token identity within a place is FIFO, which is exact for safe nets
/// and a faithful convention otherwise.
///
/// Figures 1(e) and 3(c) of the paper are renderings of this structure;
/// printDot() regenerates them.
///
//===----------------------------------------------------------------------===//

#ifndef SDSP_PETRI_BEHAVIORGRAPH_H
#define SDSP_PETRI_BEHAVIORGRAPH_H

#include "petri/EarliestFiring.h"

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <vector>

namespace sdsp {

/// Records an execution as an explicit token-flow graph.
class BehaviorGraph {
public:
  static constexpr uint32_t NoFiring = ~0u;

  /// One firing of one transition.
  struct FiringNode {
    TransitionId T;
    TimeStep StartTime;
    /// 0-based occurrence count of T ("the h-th firing").
    uint32_t Occurrence;
    /// Token instances consumed when the firing started.
    std::vector<uint32_t> Consumed;
  };

  /// One token's residence in one place.
  struct TokenNode {
    PlaceId P;
    /// Production instant (0 for initial tokens).
    TimeStep ProducedAt;
    /// Producing firing, or NoFiring for an initial token.
    uint32_t Producer = NoFiring;
    /// Consuming firing, or NoFiring while the token is still present.
    uint32_t Consumer = NoFiring;
  };

  /// Starts a trace of \p Net: creates token nodes for initial tokens.
  explicit BehaviorGraph(const PetriNet &Net);

  /// Appends one engine step.  Steps must be fed in execution order.
  void recordStep(StepView Rec);

  const std::vector<FiringNode> &firings() const { return Firings; }
  const std::vector<TokenNode> &tokens() const { return Tokens; }

  /// Number of recorded firings of \p T so far.
  uint32_t occurrenceCount(TransitionId T) const {
    return OccurrenceCount[T.index()];
  }

  /// Renders the trace in DOT syntax.  When \p HighlightFrom /
  /// \p HighlightTo are set, firings in [HighlightFrom, HighlightTo)
  /// (the cyclic frustum) are shaded.
  void printDot(std::ostream &OS, const std::string &GraphName,
                TimeStep HighlightFrom = ~static_cast<TimeStep>(0),
                TimeStep HighlightTo = 0) const;

private:
  const PetriNet &Net;
  std::vector<FiringNode> Firings;
  std::vector<TokenNode> Tokens;
  /// FIFO of present (unconsumed) token nodes, per place.
  std::vector<std::deque<uint32_t>> Present;
  /// In-flight firing of each transition (NoFiring when idle).
  std::vector<uint32_t> InFlight;
  std::vector<uint32_t> OccurrenceCount;

  uint32_t addToken(PlaceId P, TimeStep At, uint32_t Producer);
};

} // namespace sdsp

#endif // SDSP_PETRI_BEHAVIORGRAPH_H
