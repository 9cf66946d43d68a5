//===- tests/RateTest.cpp - Rate analysis tests ----------------------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "core/RateAnalysis.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

using namespace sdsp;
using namespace sdsp::testutil;

namespace {

TEST(RateAnalysis, L1AndL2) {
  SdspPn L1 = buildSdspPn(Sdsp::standard(buildL1()));
  RateReport R1 = analyzeRate(L1);
  EXPECT_EQ(R1.CycleTime, Rational(2));
  EXPECT_EQ(R1.OptimalRate, Rational(1, 2));
  EXPECT_GT(R1.NumCriticalCycles, 1u)
      << "every data/ack pair of L1 is critical";

  SdspPn L2 = buildSdspPn(Sdsp::standard(buildL2Direct()));
  RateReport R2 = analyzeRate(L2);
  EXPECT_EQ(R2.CycleTime, Rational(3));
  EXPECT_EQ(R2.OptimalRate, Rational(1, 3));
  // The critical cycle is C -> D -> E (-> C): exactly those three.
  std::vector<std::string> Names;
  for (TransitionId T : R2.CriticalTransitions)
    Names.emplace_back(L2.Net.transition(T).Name);
  std::sort(Names.begin(), Names.end());
  EXPECT_EQ(Names, (std::vector<std::string>{"C", "D", "E"}));
  EXPECT_EQ(R2.NumCriticalCycles, 1u);
}

TEST(RateAnalysis, SelfLoopBoundDominatesForSlowOps) {
  // One slow op (time 5) off every cycle: the implicit self-loop keeps
  // the rate at 1/5 even though pair cycles say 1/6... pair cycle with
  // the slow op: 5+1 = 6 -> alpha* = 6 actually dominates.  Use a
  // single-op net to isolate the self-loop bound.
  DataflowGraph G;
  NodeId In = G.addNode(OpKind::Input, "x");
  NodeId Op = G.addNode(OpKind::Neg, "slow");
  G.setExecTime(Op, 5);
  G.connect(In, 0, Op, 0);
  NodeId Out = G.addNode(OpKind::Output, "y");
  G.connect(Op, 0, Out, 0);
  SdspPn Pn = buildSdspPn(Sdsp::standard(G));
  ASSERT_EQ(Pn.Net.numPlaces(), 0u) << "no interior arcs";
  RateReport R = analyzeRate(Pn);
  EXPECT_EQ(R.CycleTime, Rational(5));
  EXPECT_EQ(R.OptimalRate, Rational(1, 5));
  EXPECT_EQ(R.NumCriticalCycles, 0u);
}

TEST(RateAnalysis, BalancingRatio) {
  SimpleCycle C;
  C.ValueSum = 3;
  C.TokenSum = 1;
  EXPECT_EQ(balancingRatio(C), Rational(1, 3));
}

TEST(RateAnalysis, BdBounds) {
  EXPECT_EQ(boundBdSdspPn(5), 10u);
  EXPECT_EQ(boundBdScpPn(5, 8), 80u);
}

TEST(RateAnalysis, CapacityTwoLiftsDoallToRateOne) {
  // The FIFO-queued extension (Section 7): with 2-deep buffers the
  // ack round trip no longer throttles L1; rate becomes 1 (self-loop
  // bound).
  SdspPn Pn = buildSdspPn(Sdsp::standard(buildL1(), /*Capacity=*/2));
  RateReport R = analyzeRate(Pn);
  EXPECT_EQ(R.OptimalRate, Rational(1));
  auto F = detectFrustum(Pn.Net);
  ASSERT_TRUE(F.has_value());
  for (TransitionId T : Pn.Net.transitionIds())
    EXPECT_EQ(F->computationRate(T), Rational(1));
}

TEST(RateAnalysis, CapacityCannotBeatTheLoopCarriedBound) {
  // L2's C-D-E-C cycle is made of data arcs only; no buffering change
  // can raise the rate above 1/3 (Section 6's "hard upper bound").
  for (uint32_t Cap : {1u, 2u, 4u, 16u}) {
    SdspPn Pn = buildSdspPn(Sdsp::standard(buildL2Direct(), Cap));
    RateReport R = analyzeRate(Pn);
    EXPECT_EQ(R.OptimalRate, Rational(1, 3)) << "capacity " << Cap;
  }
}

} // namespace
