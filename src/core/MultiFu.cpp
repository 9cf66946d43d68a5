//===- core/MultiFu.cpp - Heterogeneous function-unit machines -------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "core/MultiFu.h"

#include <cassert>

using namespace sdsp;

std::unique_ptr<FifoPolicy> MultiFuPn::makeFifoPolicy() const {
  return std::make_unique<FifoPolicy>(IsSdspTransition, RunPlaces);
}

MultiFuPn sdsp::buildMultiFuPn(const SdspPn &Pn, const Sdsp &S,
                               const std::vector<FuClass> &Classes) {
  assert(!Classes.empty() && "machine needs at least one class");
  const PetriNet &Src = Pn.Net;

  MultiFuPn M;
  M.ClassOf.resize(Src.numTransitions());

  // Classify each operation by its dataflow op kind.
  for (TransitionId T : Src.transitionIds()) {
    OpKind Kind = S.graph().node(Pn.TransitionToNode[T.index()]).Kind;
    bool Found = false;
    for (size_t C = 0; C < Classes.size() && !Found; ++C) {
      if (Classes[C].Accepts(Kind)) {
        M.ClassOf[T.index()] = static_cast<uint32_t>(C);
        Found = true;
      }
    }
    assert(Found && "operation accepted by no function-unit class");
    (void)Found;
  }

  // SDSP transitions: issue slot of 1 cycle.
  PetriNetBuilder Net;
  for (TransitionId T : Src.transitionIds())
    M.SdspTransitions.push_back(Net.addTransition(Src.transition(T).Name, 1));

  // Series expansion, depth chosen by the *producer's* class.
  for (PlaceId P : Src.placeIds()) {
    const PetriNet::Place &Pl = Src.place(P);
    TransitionId Producer =
        M.SdspTransitions[Pl.Producers.front().index()];
    TransitionId Consumer =
        M.SdspTransitions[Pl.Consumers.front().index()];
    uint32_t Depth =
        Classes[M.ClassOf[Pl.Producers.front().index()]].Depth;
    if (Depth == 1) {
      PlaceId NewP = Net.addPlace(Pl.Name, Pl.InitialTokens);
      Net.addArc(Producer, NewP);
      Net.addArc(NewP, Consumer);
      continue;
    }
    PlaceId Pre = Net.addPlace({Pl.Name, ".pre"}, 0);
    TransitionId Dummy = Net.addTransition({"d:", Pl.Name}, Depth - 1);
    PlaceId Post = Net.addPlace({Pl.Name, ".post"}, Pl.InitialTokens);
    Net.addArc(Producer, Pre);
    Net.addArc(Pre, Dummy);
    Net.addArc(Dummy, Post);
    Net.addArc(Post, Consumer);
    M.DummyTransitions.push_back(Dummy);
  }

  // One run place per class.
  for (const FuClass &C : Classes)
    M.RunPlaces.push_back(Net.addPlace({"p_run:", C.Name}, C.Count));
  for (TransitionId T : Src.transitionIds()) {
    TransitionId NewT = M.SdspTransitions[T.index()];
    PlaceId Run = M.RunPlaces[M.ClassOf[T.index()]];
    Net.addArc(Run, NewT);
    Net.addArc(NewT, Run);
  }
  M.Net = Net.build();

  M.IsSdspTransition.assign(M.Net.numTransitions(), false);
  for (TransitionId T : M.SdspTransitions)
    M.IsSdspTransition[T.index()] = true;
  return M;
}
