//===- tests/MarkedGraphTest.cpp - Marked-graph theorem tests --------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "petri/MarkedGraph.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

using namespace sdsp;
using namespace sdsp::testutil;

namespace {

TEST(MarkedGraph, RecognizesMarkedGraphs) {
  PetriNet Ring = buildRing(3, 1);
  EXPECT_TRUE(isMarkedGraph(Ring));

  // Add a second consumer to a place: no longer a marked graph.
  PetriNetBuilder NB = ringBuilder(3, 1);
  TransitionId Extra = NB.addTransition("extra");
  NB.addArc(PlaceId(0u), Extra);
  PetriNet Net = NB.build();
  EXPECT_FALSE(isMarkedGraph(Net));
}

TEST(MarkedGraph, ViewEdgesMirrorPlaces) {
  PetriNet Ring = buildRing(4, 2);
  MarkedGraphView View(Ring);
  EXPECT_EQ(View.numVertices(), 4u);
  EXPECT_EQ(View.numEdges(), 4u);
  uint64_t Tokens = 0;
  for (const MarkedGraphView::Edge &E : View.edges())
    Tokens += E.Tokens;
  EXPECT_EQ(Tokens, 2u);
}

TEST(MarkedGraph, LivenessThmA51) {
  // Thm A.5.1: live iff every simple cycle carries a token.
  EXPECT_TRUE(isLiveMarkedGraph(buildRing(3, 1)));
  EXPECT_FALSE(isLiveMarkedGraph(buildRing(3, 0)));
}

TEST(MarkedGraph, SafetyThmA52) {
  // One token on a ring: safe.  Two tokens on a ring of 3: each edge
  // is only on the full cycle, which has 2 tokens -> unsafe.
  EXPECT_TRUE(isSafeMarkedGraph(buildRing(3, 1)));
  EXPECT_FALSE(isSafeMarkedGraph(buildRing(3, 2)));
}

TEST(MarkedGraph, SafetyWithParallelCycles) {
  // Two transitions joined by a data place (1 token) and an ack place
  // (0 tokens) in each direction: the 2-cycle has exactly 1 token.
  PetriNetBuilder NB;
  TransitionId A = NB.addTransition("a");
  TransitionId B = NB.addTransition("b");
  PlaceId D = NB.addPlace("d", 1);
  PlaceId K = NB.addPlace("k", 0);
  NB.addArc(A, D);
  NB.addArc(D, B);
  NB.addArc(B, K);
  NB.addArc(K, A);
  PetriNet Net = NB.build();
  EXPECT_TRUE(isLiveMarkedGraph(Net));
  EXPECT_TRUE(isSafeMarkedGraph(Net));
}

TEST(MarkedGraph, StructuralPersistence) {
  EXPECT_TRUE(isStructurallyPersistent(buildRing(3, 1)));
  PetriNetBuilder NB = ringBuilder(3, 1);
  TransitionId Extra = NB.addTransition("extra");
  NB.addArc(PlaceId(0u), Extra);
  PetriNet Net = NB.build();
  EXPECT_FALSE(isStructurallyPersistent(Net));
}

TEST(MarkedGraph, StrongConnectivity) {
  PetriNet Ring = buildRing(5, 1);
  MarkedGraphView View(Ring);
  EXPECT_TRUE(stronglyConnectedRoot(View).has_value());

  // Two disjoint rings: not strongly connected.
  PetriNetBuilder TwoB;
  for (int R = 0; R < 2; ++R) {
    TransitionId A = TwoB.addTransition("a");
    TransitionId B = TwoB.addTransition("b");
    PlaceId P1 = TwoB.addPlace("p", 1);
    PlaceId P2 = TwoB.addPlace("q", 0);
    TwoB.addArc(A, P1);
    TwoB.addArc(P1, B);
    TwoB.addArc(B, P2);
    TwoB.addArc(P2, A);
  }
  PetriNet Two = TwoB.build();
  MarkedGraphView TwoView(Two);
  EXPECT_FALSE(stronglyConnectedRoot(TwoView).has_value());
}

TEST(MarkedGraph, RandomSdspStyleGraphsAreLiveAndSafe) {
  Rng R(42);
  for (int Trial = 0; Trial < 20; ++Trial) {
    PetriNet Net = buildRandomMarkedGraph(R, 4 + Trial % 8, Trial % 5);
    ASSERT_TRUE(isMarkedGraph(Net));
    EXPECT_TRUE(isLiveMarkedGraph(Net)) << "trial " << Trial;
    EXPECT_TRUE(isSafeMarkedGraph(Net)) << "trial " << Trial;
  }
}

} // namespace
