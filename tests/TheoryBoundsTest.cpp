//===- tests/TheoryBoundsTest.cpp - Section 4 bound tests ------------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "core/TheoryBounds.h"

#include "TestUtil.h"
#include "core/Frustum.h"
#include "gtest/gtest.h"

using namespace sdsp;
using namespace sdsp::testutil;

namespace {

TEST(TheoryBounds, L2SingleCriticalCycle) {
  SdspPn Pn = buildSdspPn(Sdsp::standard(buildL2Direct()));
  auto B = computeBounds(Pn);
  ASSERT_TRUE(B.has_value());
  EXPECT_TRUE(B->SingleCriticalCycle);
  EXPECT_EQ(B->N, 5u);
  EXPECT_EQ(B->IterationBound, 125u);
  EXPECT_EQ(B->TimeStepBound, 625u);
  // Gap between CDEC (3) and the runner-up A-B-D-E-C-A cycle (5
  // transitions over the feedback token plus one ack token: 5/2).
  EXPECT_EQ(B->EpsilonGap, Rational(1, 2));
}

TEST(TheoryBounds, L1MultipleCriticalCycles) {
  SdspPn Pn = buildSdspPn(Sdsp::standard(buildL1()));
  auto B = computeBounds(Pn);
  ASSERT_TRUE(B.has_value());
  EXPECT_FALSE(B->SingleCriticalCycle);
  EXPECT_EQ(B->IterationBound, 25u);
  EXPECT_EQ(B->TimeStepBound, 125u);
  EXPECT_EQ(B->EpsilonGap, Rational(0)) << "all cycles are critical";
}

TEST(TheoryBounds, MeasuredConvergenceWithinTheBound) {
  // Theorem 4.1.2 / 4.2.2: the frustum must appear within the stated
  // number of time steps (and in practice does far earlier).
  Rng R(4242);
  for (int Trial = 0; Trial < 10; ++Trial) {
    DataflowGraph G = buildRandomLoopGraph(R, 3 + Trial % 5, 25);
    SdspPn Pn = buildSdspPn(Sdsp::standard(G));
    auto B = computeBounds(Pn);
    ASSERT_TRUE(B.has_value());
    auto F = detectFrustum(Pn.Net);
    ASSERT_TRUE(F.has_value());
    EXPECT_LE(F->RepeatTime, B->TimeStepBound) << "trial " << Trial;
  }
}

TEST(TheoryBounds, AcyclicNetHasNoBounds) {
  PetriNetBuilder NB;
  TransitionId A = NB.addTransition("a");
  TransitionId B = NB.addTransition("b");
  PlaceId P = NB.addPlace("p", 1);
  NB.addArc(A, P);
  NB.addArc(P, B);
  SdspPn Pn;
  PetriNet Net = NB.build();
  Pn.Net = std::move(Net);
  EXPECT_FALSE(computeBounds(Pn).has_value());
}

} // namespace
