//===- petri/BehaviorGraph.cpp - Execution traces as graphs ----------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "petri/BehaviorGraph.h"

#include "support/Dot.h"
#include "support/Status.h"

#include <ostream>

using namespace sdsp;

BehaviorGraph::BehaviorGraph(const PetriNet &Net)
    : Net(Net), Present(Net.numPlaces()),
      InFlight(Net.numTransitions(), NoFiring),
      OccurrenceCount(Net.numTransitions(), 0) {
  for (PlaceId P : Net.placeIds())
    for (uint32_t I = 0; I < Net.place(P).InitialTokens; ++I)
      addToken(P, 0, NoFiring);
}

uint32_t BehaviorGraph::addToken(PlaceId P, TimeStep At, uint32_t Producer) {
  uint32_t Id = static_cast<uint32_t>(Tokens.size());
  Tokens.push_back(TokenNode{P, At, Producer, NoFiring});
  Present[P.index()].push_back(Id);
  return Id;
}

void BehaviorGraph::recordStep(StepView Rec) {
  // Completions first, mirroring the engine's phase order.
  for (TransitionId T : Rec.Completed) {
    uint32_t F = InFlight[T.index()];
    // Steps fed out of order (or from a different net) would corrupt
    // the token queues silently under NDEBUG; fail loudly instead.
    SDSP_CHECK(F != NoFiring, "completion without a matching firing");
    InFlight[T.index()] = NoFiring;
    for (PlaceId P : Net.transition(T).OutputPlaces)
      addToken(P, Rec.Time, F);
  }

  for (TransitionId T : Rec.Fired) {
    uint32_t F = static_cast<uint32_t>(Firings.size());
    FiringNode Node;
    Node.T = T;
    Node.StartTime = Rec.Time;
    Node.Occurrence = OccurrenceCount[T.index()]++;
    for (PlaceId P : Net.transition(T).InputPlaces) {
      auto &Queue = Present[P.index()];
      SDSP_CHECK(!Queue.empty(), "firing consumed from an empty place");
      uint32_t TokenId = Queue.front();
      Queue.pop_front();
      Tokens[TokenId].Consumer = F;
      Node.Consumed.push_back(TokenId);
    }
    SDSP_CHECK(InFlight[T.index()] == NoFiring, "reentrant firing recorded");
    InFlight[T.index()] = F;
    Firings.push_back(std::move(Node));
  }
}

void BehaviorGraph::printDot(std::ostream &OS, const std::string &GraphName,
                             TimeStep HighlightFrom,
                             TimeStep HighlightTo) const {
  DotWriter Dot(OS, GraphName);
  Dot.graphAttr("rankdir", "TB");
  for (size_t I = 0; I < Tokens.size(); ++I) {
    const TokenNode &Tok = Tokens[I];
    std::string Label = std::string(Net.place(Tok.P).Name) + "@" +
                        std::to_string(Tok.ProducedAt);
    Dot.node("k" + std::to_string(I), Label, "shape=circle,fontsize=10");
  }
  for (size_t I = 0; I < Firings.size(); ++I) {
    const FiringNode &F = Firings[I];
    std::string Label = std::string(Net.transition(F.T).Name) + "#" +
                        std::to_string(F.Occurrence) + "@" +
                        std::to_string(F.StartTime);
    std::string Attrs = "shape=box";
    if (F.StartTime >= HighlightFrom && F.StartTime < HighlightTo)
      Attrs += ",style=filled,fillcolor=lightgrey";
    Dot.node("f" + std::to_string(I), Label, Attrs);
  }
  for (size_t I = 0; I < Firings.size(); ++I)
    for (uint32_t TokenId : Firings[I].Consumed)
      Dot.edge("k" + std::to_string(TokenId), "f" + std::to_string(I));
  for (size_t I = 0; I < Tokens.size(); ++I)
    if (Tokens[I].Producer != NoFiring)
      Dot.edge("f" + std::to_string(Tokens[I].Producer),
               "k" + std::to_string(I));
}
