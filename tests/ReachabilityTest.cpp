//===- tests/ReachabilityTest.cpp - Forward marking class tests ------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "petri/ReachabilityGraph.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

using namespace sdsp;
using namespace sdsp::testutil;

namespace {

TEST(Reachability, RingStateCount) {
  // One token on a ring of N: exactly N reachable markings.
  ReachabilityGraph G = exploreReachability(buildRing(4, 1));
  EXPECT_TRUE(G.Complete);
  EXPECT_EQ(G.States.size(), 4u);
  EXPECT_TRUE(isSafe(G));
  EXPECT_TRUE(isBounded(G, 1));
}

TEST(Reachability, LivenessOracle) {
  PetriNet Live = buildRing(3, 1);
  ReachabilityGraph LG = exploreReachability(Live);
  EXPECT_TRUE(isLive(Live, LG));

  PetriNet Dead = buildRing(3, 0);
  ReachabilityGraph DG = exploreReachability(Dead);
  EXPECT_FALSE(isLive(Dead, DG));
  EXPECT_EQ(DG.States.size(), 1u) << "nothing can fire";
}

TEST(Reachability, UnsafeNetDetected) {
  // Producer with a free-running source fills a place unboundedly; cap
  // exploration and check boundedness at small thresholds.
  PetriNetBuilder NB;
  TransitionId Src = NB.addTransition("src");
  TransitionId Snk = NB.addTransition("snk");
  PlaceId P = NB.addPlace("p", 0);
  PlaceId Gate = NB.addPlace("gate", 1);
  NB.addArc(Src, P);
  NB.addArc(P, Snk);
  NB.addArc(Gate, Snk);
  NB.addArc(Snk, Gate);
  PetriNet Net = NB.build();
  ReachabilityGraph G = exploreReachability(Net, 64);
  EXPECT_FALSE(G.Complete) << "src fires forever, states blow up";
  EXPECT_FALSE(isBounded(G, 1));
}

TEST(Reachability, PersistenceOracle) {
  // Marked graphs are persistent...
  PetriNet MG = buildRing(3, 2);
  ReachabilityGraph G1 = exploreReachability(MG);
  EXPECT_TRUE(isPersistent(MG, G1));

  // ...a shared input place whose consumers do not immediately refill
  // it is not: firing one steals the token from the other.
  PetriNetBuilder ConflictB;
  TransitionId A = ConflictB.addTransition("a");
  TransitionId B = ConflictB.addTransition("b");
  PlaceId P = ConflictB.addPlace("p", 1);
  PlaceId SinkA = ConflictB.addPlace("sa", 0);
  PlaceId SinkB = ConflictB.addPlace("sb", 0);
  ConflictB.addArc(P, A);
  ConflictB.addArc(P, B);
  ConflictB.addArc(A, SinkA);
  ConflictB.addArc(B, SinkB);
  PetriNet Conflict = ConflictB.build();
  ReachabilityGraph G2 = exploreReachability(Conflict);
  EXPECT_FALSE(isPersistent(Conflict, G2));
}

TEST(Reachability, SuccessorsAreConsistent) {
  PetriNet Net = buildRing(3, 1);
  ReachabilityGraph G = exploreReachability(Net);
  for (size_t S = 0; S < G.States.size(); ++S) {
    for (auto [T, D] : G.Succ[S]) {
      Marking M = G.States[S];
      ASSERT_TRUE(Net.isEnabled(T, M));
      Net.fire(T, M);
      EXPECT_EQ(M, G.States[D]);
    }
  }
}

TEST(Reachability, MarkedGraphTheoremsAgreeWithOracle) {
  // Cross-check the structural theorems against explicit exploration
  // on random SDSP-style graphs.
  Rng R(77);
  for (int Trial = 0; Trial < 10; ++Trial) {
    PetriNet Net = buildRandomMarkedGraph(R, 3 + Trial % 4, Trial % 3);
    ReachabilityGraph G = exploreReachability(Net, 1 << 16);
    ASSERT_TRUE(G.Complete);
    EXPECT_TRUE(isLive(Net, G)) << "trial " << Trial;
    EXPECT_TRUE(isSafe(G)) << "trial " << Trial;
    EXPECT_TRUE(isPersistent(Net, G)) << "trial " << Trial;
  }
}

} // namespace
