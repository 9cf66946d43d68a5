//===- tests/PetriNetTest.cpp - PetriNet and Marking unit tests ------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "petri/PetriNet.h"

#include "gtest/gtest.h"

#include <sstream>
#include <vector>

using namespace sdsp;

namespace {

TEST(Marking, ProduceConsume) {
  Marking M(3);
  EXPECT_EQ(M.totalTokens(), 0u);
  M.produce(PlaceId(1u));
  M.produce(PlaceId(1u));
  M.produce(PlaceId(2u));
  EXPECT_EQ(M.totalTokens(), 3u);
  EXPECT_EQ(M.tokens(PlaceId(1u)), 2u);
  EXPECT_FALSE(M.allSafe());
  M.consume(PlaceId(1u));
  EXPECT_TRUE(M.allSafe());
  EXPECT_EQ(M.str(), "[p1 p2]");
}

TEST(Marking, EqualityAndHashing) {
  Marking A(4), B(4);
  EXPECT_EQ(A, B);
  A.produce(PlaceId(2u));
  EXPECT_NE(A, B);
  EXPECT_NE(A.hashValue(), B.hashValue());
  B.produce(PlaceId(2u));
  EXPECT_EQ(A, B);
  EXPECT_EQ(A.hashValue(), B.hashValue());
}

TEST(PetriNet, ConstructionAndConnectivity) {
  PetriNetBuilder NB;
  TransitionId T1 = NB.addTransition("a", 2);
  TransitionId T2 = NB.addTransition("b");
  PlaceId P = NB.addPlace("p", 1);
  NB.addArc(T1, P);
  NB.addArc(P, T2);

  EXPECT_EQ(NB.numTransitions(), 2u);
  EXPECT_EQ(NB.numPlaces(), 1u);
  PetriNet Net = NB.build();
  EXPECT_EQ(Net.transition(T1).ExecTime, 2u);
  EXPECT_EQ(Net.place(P).Producers.size(), 1u);
  EXPECT_EQ(Net.place(P).Consumers.size(), 1u);
  EXPECT_EQ(Net.place(P).Producers.front(), T1);
  EXPECT_EQ(Net.place(P).Consumers.front(), T2);
  EXPECT_EQ(Net.totalExecTime(), 3u);
}

/// Every list keeps its arcs in addArc() order, however the calls for
/// different nodes interleave, and names joined from parts read back
/// whole; a net rebuilt from its parts is the same net.
TEST(PetriNet, BuilderKeepsArcOrderAndPartsRestoreIt) {
  PetriNetBuilder NB;
  TransitionId A = NB.addTransition("a");
  TransitionId B = NB.addTransition({"b", "-", "2"}, 3);
  PlaceId P = NB.addPlace({"p", "->", "q"}, 2);
  PlaceId Q = NB.addPlace("q");
  NB.addArc(B, Q);
  NB.addArc(Q, A);
  NB.addArc(B, P);
  NB.addArc(A, P);
  NB.addArc(P, B);
  NB.addArc(Q, B);
  NB.addArc(P, A);
  PetriNet Net = NB.build();
  EXPECT_EQ(NB.numPlaces(), 0u);

  auto Ids = [](auto Span) {
    std::vector<uint32_t> Out;
    for (auto Id : Span)
      Out.push_back(Id.index());
    return Out;
  };
  using V = std::vector<uint32_t>;
  EXPECT_EQ(Net.transition(B).Name, "b-2");
  EXPECT_EQ(Net.transition(B).ExecTime, 3u);
  EXPECT_EQ(Net.place(P).Name, "p->q");
  EXPECT_EQ(Net.place(P).InitialTokens, 2u);
  EXPECT_EQ(Ids(Net.place(P).Producers), (V{1, 0}));
  EXPECT_EQ(Ids(Net.place(P).Consumers), (V{1, 0}));
  EXPECT_EQ(Ids(Net.place(Q).Producers), (V{1}));
  EXPECT_EQ(Ids(Net.place(Q).Consumers), (V{0, 1}));
  EXPECT_EQ(Ids(Net.transition(A).InputPlaces), (V{1, 0}));
  EXPECT_EQ(Ids(Net.transition(A).OutputPlaces), (V{0}));
  EXPECT_EQ(Ids(Net.transition(B).InputPlaces), (V{0, 1}));
  EXPECT_EQ(Ids(Net.transition(B).OutputPlaces), (V{1, 0}));

  PetriNet::Parts Parts;
  for (uint32_t I = 0; I < Net.numPlaces(); ++I) {
    const PetriNet::Place &Pl = Net.place(PlaceId(I));
    Parts.addPlace(Pl.Name, Pl.InitialTokens, Pl.Producers, Pl.Consumers);
  }
  for (uint32_t I = 0; I < Net.numTransitions(); ++I) {
    const PetriNet::Transition &Tr = Net.transition(TransitionId(I));
    Parts.addTransition(Tr.Name, Tr.ExecTime, Tr.InputPlaces,
                        Tr.OutputPlaces);
  }
  PetriNet Copy = PetriNet::fromParts(std::move(Parts));
  std::ostringstream Want, Got;
  Net.printDot(Want, "g");
  Copy.printDot(Got, "g");
  EXPECT_EQ(Got.str(), Want.str());
  EXPECT_EQ(Ids(Copy.place(Q).Consumers), (V{0, 1}));
  EXPECT_EQ(Ids(Copy.transition(B).OutputPlaces), (V{1, 0}));
}

TEST(PetriNet, EnablednessAndFiring) {
  PetriNetBuilder NB;
  TransitionId T1 = NB.addTransition("a");
  TransitionId T2 = NB.addTransition("b");
  PlaceId P1 = NB.addPlace("p1", 1);
  PlaceId P2 = NB.addPlace("p2", 0);
  NB.addArc(P1, T2);
  NB.addArc(T2, P2);
  NB.addArc(P2, T1);
  NB.addArc(T1, P1);
  PetriNet Net = NB.build();

  Marking M = Net.initialMarking();
  EXPECT_TRUE(Net.isEnabled(T2, M));
  EXPECT_FALSE(Net.isEnabled(T1, M));
  Net.fire(T2, M);
  EXPECT_EQ(M.tokens(P1), 0u);
  EXPECT_EQ(M.tokens(P2), 1u);
  EXPECT_TRUE(Net.isEnabled(T1, M));
  Net.fire(T1, M);
  EXPECT_EQ(M, Net.initialMarking());
}

TEST(PetriNet, SourceTransitionIsAlwaysEnabled) {
  PetriNetBuilder NB;
  TransitionId T = NB.addTransition("src");
  PetriNet Net = NB.build();
  Marking M = Net.initialMarking();
  EXPECT_TRUE(Net.isEnabled(T, M));
}

TEST(PetriNet, DotOutputMentionsEverything) {
  PetriNetBuilder NB;
  TransitionId T = NB.addTransition("fire", 3);
  PlaceId P = NB.addPlace("buf", 1);
  NB.addArc(T, P);
  NB.addArc(P, T);
  std::ostringstream OS;
  PetriNet Net = NB.build();
  Net.printDot(OS, "g");
  std::string Dot = OS.str();
  EXPECT_NE(Dot.find("fire"), std::string::npos);
  EXPECT_NE(Dot.find("buf"), std::string::npos);
  EXPECT_NE(Dot.find("digraph"), std::string::npos);
  EXPECT_NE(Dot.find("[3]"), std::string::npos) << "exec time label";
}

} // namespace
