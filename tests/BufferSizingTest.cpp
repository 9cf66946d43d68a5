//===- tests/BufferSizingTest.cpp - Buffer sizing tests --------------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "core/BufferSizing.h"

#include "TestUtil.h"
#include "core/Frustum.h"
#include "core/RateAnalysis.h"
#include "core/SdspPn.h"
#include "gtest/gtest.h"

using namespace sdsp;
using namespace sdsp::testutil;

namespace {

TEST(BufferSizing, DataOnlyBoundL1AndL2) {
  EXPECT_EQ(dataOnlyCycleTime(buildL1()), Rational(1))
      << "DOALL: only the unit self-loops remain";
  EXPECT_EQ(dataOnlyCycleTime(buildL2Direct()), Rational(3))
      << "the C-D-E recurrence is immune to buffering";
}

TEST(BufferSizing, L1ReachesRateOneWithCapacityTwo) {
  BufferSizingResult R = sizeBuffers(buildL1());
  EXPECT_TRUE(R.Feasible);
  EXPECT_EQ(R.AchievedCycleTime, Rational(1));
  EXPECT_EQ(R.Storage, 10u) << "every pair cycle needs two slots";
  SdspPn Pn = buildSdspPn(R.Sized);
  auto F = detectFrustum(Pn.Net);
  ASSERT_TRUE(F.has_value());
  for (TransitionId T : Pn.Net.transitionIds())
    EXPECT_EQ(F->computationRate(T), Rational(1));
}

TEST(BufferSizing, NonUniformCapacitiesWithMixedTimes) {
  // a(3) -> b(1) -> c(1): only the a-b buffer needs two slots to hit
  // the self-loop bound of 3; uniform capacity-2 would waste a slot.
  DataflowGraph G;
  NodeId In = G.addNode(OpKind::Input, "x");
  NodeId A = G.addNode(OpKind::Identity, "a");
  G.setExecTime(A, 3);
  NodeId B = G.addNode(OpKind::Identity, "b");
  NodeId C = G.addNode(OpKind::Identity, "c");
  G.connect(In, 0, A, 0);
  G.connect(A, 0, B, 0);
  G.connect(B, 0, C, 0);
  NodeId Out = G.addNode(OpKind::Output, "y");
  G.connect(C, 0, Out, 0);

  EXPECT_EQ(dataOnlyCycleTime(G), Rational(3));
  BufferSizingResult R = sizeBuffers(G);
  EXPECT_TRUE(R.Feasible);
  EXPECT_EQ(R.AchievedCycleTime, Rational(3));
  EXPECT_EQ(R.Storage, 3u) << "2 slots for a->b, 1 for b->c";
}

TEST(BufferSizing, InfeasibleTargetReported) {
  BufferSizingResult R =
      sizeBuffers(buildL2Direct(), Rational(2));
  EXPECT_FALSE(R.Feasible) << "nothing beats the C-D-E bound of 3";
  EXPECT_GT(R.AchievedCycleTime, Rational(2));
}

TEST(BufferSizing, ExplicitRelaxedTargetUsesLessStorage) {
  // Asking only for cycle time 2 on L1 keeps the capacity-1 buffers.
  BufferSizingResult R = sizeBuffers(buildL1(), Rational(2));
  EXPECT_TRUE(R.Feasible);
  EXPECT_EQ(R.Storage, 5u);
}

TEST(BufferSizing, RandomGraphsAlwaysReachTheirBound) {
  Rng Rand(9090);
  for (int Trial = 0; Trial < 12; ++Trial) {
    DataflowGraph G = buildRandomLoopGraph(Rand, 3 + Trial % 6, 25);
    Rational Bound = dataOnlyCycleTime(G);
    BufferSizingResult R = sizeBuffers(G);
    EXPECT_TRUE(R.Feasible) << "trial " << Trial;
    EXPECT_EQ(R.AchievedCycleTime, Bound) << "trial " << Trial;
    // And the earliest-firing execution really runs at the bound.
    SdspPn Pn = buildSdspPn(R.Sized);
    auto F = detectFrustum(Pn.Net);
    ASSERT_TRUE(F.has_value()) << "trial " << Trial;
    for (TransitionId T : Pn.Net.transitionIds())
      EXPECT_EQ(F->computationRate(T), Bound.reciprocal())
          << "trial " << Trial;
  }
}

TEST(BufferSizing, SizedNeverExceedsUniformAmpleStorage) {
  Rng Rand(9091);
  for (int Trial = 0; Trial < 8; ++Trial) {
    DataflowGraph G = buildRandomLoopGraph(Rand, 4 + Trial % 4, 20);
    BufferSizingResult R = sizeBuffers(G);
    ASSERT_TRUE(R.Feasible);
    // A uniform capacity equal to the largest sized capacity would use
    // at least as much storage.
    uint64_t MaxCap = 1;
    for (Sdsp::AckView A : R.Sized.acks())
      MaxCap = std::max<uint64_t>(
          MaxCap, A.Slots + R.Sized.graph().arc(A.Path.front()).Distance);
    Sdsp Uniform = Sdsp::standard(G, static_cast<uint32_t>(MaxCap));
    EXPECT_LE(R.Storage, Uniform.storageLocations()) << "trial " << Trial;
  }
}

} // namespace
