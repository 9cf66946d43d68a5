//===- core/SdspPn.cpp - SDSP to Petri-net translation ---------------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "core/SdspPn.h"

#include "petri/MarkedGraph.h"
#include "support/FaultInjection.h"

#include <cassert>
#include <string>

using namespace sdsp;

Expected<SdspPn> sdsp::buildSdspPnChecked(const Sdsp &S,
                                          const CancelToken &Cancel,
                                          FaultContext *Faults) {
  if (Status St = validateSdsp(S); !St)
    return St;
  const DataflowGraph &G = S.graph();
  SdspPn Pn;
  Pn.NodeToTransition.assign(G.numNodes(), TransitionId::invalid());
  Pn.ArcToPlace.assign(G.numArcs(), PlaceId::invalid());
  PetriNetBuilder Net;

  // Before each batch of places and transitions: the fault site, then
  // the token.
  Status Stop;
  auto Stopped = [&]() {
    size_t Made = Net.numPlaces() + Net.numTransitions();
    if (Made % SdspPnBatch)
      return false;
    if (Faults)
      Stop = Faults->checkpoint("sdsp-pn:batch");
    if (Stop && Cancel.cancelled())
      Stop = Cancel.status("sdsp-pn", "after adding " +
                                          std::to_string(Made) +
                                          " places and transitions");
    return !Stop;
  };

  // Transitions: one per compute node.
  for (NodeId N : G.nodeIds()) {
    const DataflowGraph::Node &Node = G.node(N);
    if (isBoundaryOp(Node.Kind))
      continue;
    if (Stopped())
      return Stop;
    TransitionId T = Net.addTransition(Node.Name, Node.ExecTime);
    Pn.NodeToTransition[N.index()] = T;
    Pn.TransitionToNode.push_back(N);
  }

  // Data places: one per interior data arc, marked with the arc's
  // initial-value window (d tokens on a distance-d feedback arc).  Names
  // go straight into the net's arena.
  for (ArcId A : G.arcIds()) {
    if (!S.isInteriorArc(A))
      continue;
    if (Stopped())
      return Stop;
    const DataflowGraph::Arc &Arc = G.arc(A);
    PlaceId P = Net.addPlace(
        {G.node(Arc.From).Name, "->", G.node(Arc.To).Name}, Arc.Distance);
    Pn.ArcToPlace[A.index()] = P;
    Net.addArc(Pn.NodeToTransition[Arc.From.index()], P);
    Net.addArc(P, Pn.NodeToTransition[Arc.To.index()]);
  }

  // Ack places: from the consumer of the covered chain's tail back to
  // the producer of its head, marked with the free slots.
  for (Sdsp::AckView Ack : S.acks()) {
    if (Stopped())
      return Stop;
    const DataflowGraph::Arc &Head = G.arc(Ack.Path.front());
    const DataflowGraph::Arc &Tail = G.arc(Ack.Path.back());
    PlaceId P = Net.addPlace(
        {"ack:", G.node(Tail.To).Name, "->", G.node(Head.From).Name},
        Ack.Slots);
    Pn.AckPlaces.push_back(P);
    Net.addArc(Pn.NodeToTransition[Tail.To.index()], P);
    Net.addArc(P, Pn.NodeToTransition[Head.From.index()]);
  }
  Pn.Net = Net.build();

  SDSP_CHECK(Pn.TransitionToNode.size() == Pn.Net.numTransitions(),
             "transition bookkeeping out of sync");
  // The translation always yields a marked graph (each place has the
  // one producer and one consumer wired right above).
  SDSP_CHECK(isMarkedGraph(Pn.Net), "SDSP-PN is not a marked graph");
  // Liveness, however, depends on the input's token distribution
  // (Thm A.5.1): a token-free cycle deadlocks the net, which a
  // per-ack-validated SDSP can still exhibit globally.
  if (Pn.Net.numTransitions() > 0 && !isLiveMarkedGraph(Pn.Net))
    return Status::error(ErrorCode::InvalidNet, "petri",
                         "initial marking is not live: a dependence/"
                         "acknowledgement cycle carries no tokens and "
                         "would deadlock");
  return Pn;
}

SdspPn sdsp::buildSdspPn(const Sdsp &S) {
  return SDSP_EXPECT_OK(buildSdspPnChecked(S));
}

AckCycles sdsp::ackCycles(const Sdsp &S, const SdspPn &Pn) {
  AckCycles C;
  size_t Cycles = 0, Places = 0;
  for (Sdsp::AckView Ack : S.acks())
    if (Ack.Path.size() > 1) {
      ++Cycles;
      Places += Ack.Path.size() + 1;
    }
  if (Cycles == 0)
    return C;
  C.Start.reserve(Cycles + 1);
  C.Places.reserve(Places);
  C.Start.push_back(0);
  size_t I = 0;
  for (Sdsp::AckView Ack : S.acks()) {
    const PlaceId AckPlace = Pn.AckPlaces[I++];
    if (Ack.Path.size() <= 1)
      continue;
    for (ArcId A : Ack.Path)
      C.Places.push_back(Pn.ArcToPlace[A.index()]);
    C.Places.push_back(AckPlace);
    C.Start.push_back(static_cast<uint32_t>(C.Places.size()));
  }
  return C;
}
