//===- tests/CycleRatioTest.cpp - Critical-cycle analysis tests ------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "petri/CycleRatio.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

#include <set>

using namespace sdsp;
using namespace sdsp::testutil;

namespace {

TEST(CycleRatio, RingCycleTime) {
  // Ring of 6 unit transitions with 2 tokens: alpha* = 6/2 = 3.
  PetriNet Ring = buildRing(6, 2);
  MarkedGraphView View(Ring);
  auto Info = criticalCycleByEnumeration(View);
  ASSERT_TRUE(Info.has_value());
  EXPECT_EQ(Info->CycleTime, Rational(3));
  EXPECT_EQ(Info->ComputationRate, Rational(1, 3));
  EXPECT_EQ(Info->NumCriticalCycles, 1u);
  EXPECT_EQ(Info->CriticalTransitions.size(), 6u);
}

TEST(CycleRatio, AcyclicReturnsNothing) {
  PetriNetBuilder NB;
  TransitionId A = NB.addTransition("a");
  TransitionId B = NB.addTransition("b");
  PlaceId P = NB.addPlace("p", 1);
  NB.addArc(A, P);
  NB.addArc(P, B);
  PetriNet Net = NB.build();
  MarkedGraphView View(Net);
  EXPECT_FALSE(criticalCycleByEnumeration(View).has_value());
  EXPECT_FALSE(criticalCycleByParametricSearch(View).has_value());
}

TEST(CycleRatio, PicksTheWorstCycle) {
  // Two cycles sharing t0: fast (2 transitions / 1 token -> 2) and slow
  // (3 transitions / 1 token -> 3).
  PetriNetBuilder NB;
  TransitionId T0 = NB.addTransition("t0");
  TransitionId T1 = NB.addTransition("t1");
  TransitionId T2 = NB.addTransition("t2");
  TransitionId T3 = NB.addTransition("t3");
  auto Place = [&](TransitionId A, TransitionId B, uint32_t Tok) {
    PlaceId P = NB.addPlace("p", Tok);
    NB.addArc(A, P);
    NB.addArc(P, B);
  };
  Place(T0, T1, 1);
  Place(T1, T0, 0);
  Place(T0, T2, 1);
  Place(T2, T3, 0);
  Place(T3, T0, 0);
  PetriNet Net = NB.build();
  MarkedGraphView View(Net);
  auto Info = criticalCycleByEnumeration(View);
  ASSERT_TRUE(Info.has_value());
  EXPECT_EQ(Info->CycleTime, Rational(3));
  // Critical transitions: t0, t2, t3 (the slow cycle).
  std::set<uint32_t> Critical;
  for (TransitionId T : Info->CriticalTransitions)
    Critical.insert(T.index());
  EXPECT_EQ(Critical, (std::set<uint32_t>{T0.index(), T2.index(),
                                          T3.index()}));
}

TEST(CycleRatio, RespectsExecutionTimes) {
  // 2-transition ring, times 3 and 4, one token: alpha* = 7.
  PetriNetBuilder NB;
  TransitionId A = NB.addTransition("a", 3);
  TransitionId B = NB.addTransition("b", 4);
  PlaceId P1 = NB.addPlace("p1", 1);
  PlaceId P2 = NB.addPlace("p2", 0);
  NB.addArc(A, P1);
  NB.addArc(P1, B);
  NB.addArc(B, P2);
  NB.addArc(P2, A);
  PetriNet Net = NB.build();
  MarkedGraphView View(Net);
  auto Info = criticalCycleByParametricSearch(View);
  ASSERT_TRUE(Info.has_value());
  EXPECT_EQ(Info->CycleTime, Rational(7));
}

TEST(CycleRatio, FractionalRatio) {
  // Ring of 5 with 2 tokens: 5/2, a non-integer cycle time.
  PetriNet Ring = buildRing(5, 2);
  MarkedGraphView View(Ring);
  auto Info = criticalCycleByParametricSearch(View);
  ASSERT_TRUE(Info.has_value());
  EXPECT_EQ(Info->CycleTime, Rational(5, 2));
}

TEST(CycleRatio, ParametricMatchesEnumerationOnRandomGraphs) {
  Rng R(2024);
  for (int Trial = 0; Trial < 30; ++Trial) {
    PetriNet Net = buildRandomMarkedGraph(R, 3 + Trial % 10, Trial % 7);
    MarkedGraphView View(Net);
    auto ByEnum = criticalCycleByEnumeration(View);
    auto ByParam = criticalCycleByParametricSearch(View);
    ASSERT_EQ(ByEnum.has_value(), ByParam.has_value());
    if (!ByEnum)
      continue;
    EXPECT_EQ(ByEnum->CycleTime, ByParam->CycleTime) << "trial " << Trial;
    // The tight-subgraph SCC computation must agree with enumeration on
    // which transitions are critical.
    std::set<uint32_t> A, B;
    for (TransitionId T : ByEnum->CriticalTransitions)
      A.insert(T.index());
    for (TransitionId T : ByParam->CriticalTransitions)
      B.insert(T.index());
    EXPECT_EQ(A, B) << "trial " << Trial;
  }
}

TEST(CycleRatio, DispatcherUsesEnumerationForSmallGraphs) {
  PetriNet Ring = buildRing(4, 1);
  MarkedGraphView View(Ring);
  auto Info = criticalCycle(View);
  ASSERT_TRUE(Info.has_value());
  EXPECT_EQ(Info->NumCriticalCycles, 1u) << "enumeration fills the count";
}

} // namespace
