//===- core/SteadyStateNet.cpp - Steady-state equivalent nets --------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "core/SteadyStateNet.h"

#include "petri/MarkedGraph.h"

#include <cassert>

using namespace sdsp;

SteadyStateNet sdsp::buildSteadyStateNet(const PetriNet &Net,
                                         const FrustumInfo &Frustum) {
  assert(isMarkedGraph(Net) &&
         "steady-state construction needs a marked graph");

  SteadyStateNet SSN;
  PetriNetBuilder Builder;
  SSN.Occurrences = Frustum.FiringCounts;
  SSN.Instance.resize(Net.numTransitions());

  for (TransitionId T : Net.transitionIds()) {
    uint32_t K = SSN.Occurrences[T.index()];
    assert(K >= 1 && "transition never fires in the frustum");
    for (uint32_t J = 0; J < K; ++J) {
      TransitionId Inst = Builder.addTransition(
          {Net.transition(T).Name, "#", std::to_string(J)},
          Net.transition(T).ExecTime);
      SSN.Instance[T.index()].push_back(Inst);
    }
  }

  // The marking of the repeated instantaneous state, not the initial
  // marking: the frustum starts in steady state.
  const Marking &M = Frustum.State.M;

  for (PlaceId P : Net.placeIds()) {
    const PetriNet::Place &Pl = Net.place(P);
    TransitionId U = Pl.Producers.front();
    TransitionId V = Pl.Consumers.front();
    uint32_t K = SSN.Occurrences[U.index()];
    assert(K == SSN.Occurrences[V.index()] &&
           "producer/consumer occurrence mismatch (Thm A.5.3)");
    int64_t Tokens = M.tokens(P);
    for (uint32_t J = 0; J < K; ++J) {
      // v#J consumes the token produced by u's firing number J - m
      // (negative = earlier period).
      int64_t Q = static_cast<int64_t>(J) - Tokens;
      int64_t O = ((Q % K) + K) % K;
      int64_t Wraps = (O - Q) / K;
      PlaceId Inst = Builder.addPlace({Pl.Name, "#", std::to_string(J)},
                                      static_cast<uint32_t>(Wraps));
      Builder.addArc(SSN.Instance[U.index()][static_cast<size_t>(O)], Inst);
      Builder.addArc(Inst, SSN.Instance[V.index()][J]);
    }
  }
  SSN.Net = Builder.build();
  return SSN;
}
