//===- tests/SimpleCyclesTest.cpp - Johnson enumeration tests --------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "petri/SimpleCycles.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

#include <set>

using namespace sdsp;
using namespace sdsp::testutil;

namespace {

TEST(SimpleCycles, RingHasOneCycle) {
  PetriNet Ring = buildRing(5, 2);
  MarkedGraphView View(Ring);
  std::vector<SimpleCycle> Cycles = enumerateSimpleCycles(View);
  ASSERT_EQ(Cycles.size(), 1u);
  EXPECT_EQ(Cycles[0].Edges.size(), 5u);
  EXPECT_EQ(Cycles[0].ValueSum, 5u);
  EXPECT_EQ(Cycles[0].TokenSum, 2u);
}

TEST(SimpleCycles, PairGraphCycleCount) {
  // DAG spine of N nodes with data/ack pairs: each pair is a 2-cycle,
  // and alternating data/ack combinations compose into longer simple
  // cycles (e.g. d0 d1 a_0..1? no - ack edges pair individual arcs, so
  // cycles are exactly: each pair, plus chains data...data followed by
  // ack...ack only when acks retrace the same arcs, which revisits
  // vertices).  For a pure spine the simple cycles are exactly the
  // pairs.
  Rng R(1);
  PetriNet Net = buildRandomMarkedGraph(R, 4, 0);
  MarkedGraphView View(Net);
  std::vector<SimpleCycle> Cycles = enumerateSimpleCycles(View);
  EXPECT_EQ(Cycles.size(), 3u) << "three data/ack pairs on a 4-spine";
  for (const SimpleCycle &C : Cycles) {
    EXPECT_EQ(C.Edges.size(), 2u);
    EXPECT_EQ(C.TokenSum, 1u);
  }
}

TEST(SimpleCycles, TwoNestedCycles) {
  // t0 -> t1 -> t0 and t0 -> t1 -> t2 -> t0.
  PetriNetBuilder NB;
  TransitionId T0 = NB.addTransition("t0");
  TransitionId T1 = NB.addTransition("t1");
  TransitionId T2 = NB.addTransition("t2");
  auto Place = [&](TransitionId A, TransitionId B, uint32_t Tok) {
    PlaceId P = NB.addPlace("p", Tok);
    NB.addArc(A, P);
    NB.addArc(P, B);
  };
  Place(T0, T1, 1);
  Place(T1, T0, 0);
  Place(T1, T2, 0);
  Place(T2, T0, 1);
  PetriNet Net = NB.build();
  MarkedGraphView View(Net);
  std::vector<SimpleCycle> Cycles = enumerateSimpleCycles(View);
  ASSERT_EQ(Cycles.size(), 2u);
  std::set<size_t> Lengths;
  for (const SimpleCycle &C : Cycles)
    Lengths.insert(C.Edges.size());
  EXPECT_EQ(Lengths, (std::set<size_t>{2, 3}));
}

TEST(SimpleCycles, CycleTransitionsMatchEdges) {
  PetriNet Ring = buildRing(4, 1);
  MarkedGraphView View(Ring);
  std::vector<SimpleCycle> Cycles = enumerateSimpleCycles(View);
  ASSERT_EQ(Cycles.size(), 1u);
  std::vector<TransitionId> Ts = cycleTransitions(View, Cycles[0]);
  EXPECT_EQ(Ts.size(), 4u);
  std::set<uint32_t> Unique;
  for (TransitionId T : Ts)
    Unique.insert(T.index());
  EXPECT_EQ(Unique.size(), 4u);
}

TEST(SimpleCycles, SelfLoopEdge) {
  PetriNetBuilder NB;
  TransitionId T = NB.addTransition("t");
  PlaceId P = NB.addPlace("p", 1);
  NB.addArc(T, P);
  NB.addArc(P, T);
  PetriNet Net = NB.build();
  MarkedGraphView View(Net);
  std::vector<SimpleCycle> Cycles = enumerateSimpleCycles(View);
  ASSERT_EQ(Cycles.size(), 1u);
  EXPECT_EQ(Cycles[0].Edges.size(), 1u);
  EXPECT_EQ(Cycles[0].TokenSum, 1u);
}

TEST(SimpleCycles, DensePairGraphScales) {
  Rng R(7);
  PetriNet Net = buildRandomMarkedGraph(R, 10, 12);
  MarkedGraphView View(Net);
  std::vector<SimpleCycle> Cycles = enumerateSimpleCycles(View);
  // At least one cycle per pair.
  EXPECT_GE(Cycles.size(), View.numEdges() / 2);
  for (const SimpleCycle &C : Cycles)
    EXPECT_GE(C.TokenSum, 1u) << "graph is live by construction";
}

} // namespace
