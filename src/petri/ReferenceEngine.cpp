//===- petri/ReferenceEngine.cpp - Naive earliest-firing engine ------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "petri/ReferenceEngine.h"

#include <cassert>

using namespace sdsp;

/// Sentinel finish time for idle transitions.
static constexpr TimeStep IdleFinish = ~static_cast<TimeStep>(0);

ReferenceEngine::ReferenceEngine(const PetriNet &Net, FiringPolicy *Policy)
    : Net(Net), Policy(Policy), M(Net.initialMarking()),
      FinishTime(Net.numTransitions(), IdleFinish) {
  for (TransitionId T : Net.transitionIds())
    SDSP_CHECK(Net.transition(T).ExecTime >= 1,
               "engine requires execution times >= 1");
  if (Policy)
    Policy->reset();
}

void ReferenceEngine::prepare() {
  if (Prepared)
    return;
  Prepared = true;
  CompletedThisStep.clear();

  // Phase A1: completions.  A transition fired at u with time tau
  // finishes and produces its output tokens at u + tau.
  for (size_t I = 0; I < FinishTime.size(); ++I) {
    if (FinishTime[I] != Now)
      continue;
    FinishTime[I] = IdleFinish;
    TransitionId T(I);
    for (PlaceId P : Net.transition(T).OutputPlaces)
      M.produce(P);
    CompletedThisStep.push_back(T);
  }

  // Phase A2: candidate set = enabled idle transitions, index order.
  Ordered.clear();
  for (TransitionId T : Net.transitionIds())
    if (FinishTime[T.index()] == IdleFinish && Net.isEnabled(T, M))
      Ordered.push_back(T);

  // Phase A3: the machine observes the state and orders its choices.
  if (Policy)
    Policy->orderCandidates(Net, M, CompletedThisStep, Ordered);
}

InstantaneousState ReferenceEngine::state() const {
  assert(Prepared && "state sampled before prepare()");
  InstantaneousState S;
  S.M = M;
  S.Residual.assign(Net.numTransitions(), 0);
  for (size_t I = 0; I < FinishTime.size(); ++I)
    if (FinishTime[I] != IdleFinish)
      S.Residual[I] = static_cast<TimeUnits>(FinishTime[I] - Now);
  if (Policy)
    S.PolicyFingerprint = Policy->stateFingerprint();
  return S;
}

const std::vector<TransitionId> &ReferenceEngine::candidates() const {
  assert(Prepared && "candidates requested before prepare()");
  return Ordered;
}

StepRecord ReferenceEngine::fireAndAdvance() {
  prepare();

  StepRecord Rec;
  Rec.Time = Now;
  Rec.Completed = CompletedThisStep;

  // Greedy maximal firing in policy order.  Consumption happens now;
  // production is deferred to completion, so firings within one step
  // cannot cascade (execution times are >= 1).
  for (TransitionId T : Ordered) {
    if (!Net.isEnabled(T, M))
      continue; // An earlier firing consumed a shared token.
    for (PlaceId P : Net.transition(T).InputPlaces)
      M.consume(P);
    FinishTime[T.index()] = Now + Net.transition(T).ExecTime;
    Rec.Fired.push_back(T);
    if (Policy)
      Policy->noteFired(T);
  }

  ++Now;
  Prepared = false;
  return Rec;
}

bool ReferenceEngine::isQuiescent() const {
  for (TimeStep F : FinishTime)
    if (F != IdleFinish)
      return false;
  for (TransitionId T : Net.transitionIds())
    if (Net.isEnabled(T, M))
      return false;
  return true;
}
