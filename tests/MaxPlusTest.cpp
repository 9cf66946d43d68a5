//===- tests/MaxPlusTest.cpp - Lemma 4.1.1 / Theorem 4.x tests -------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "core/MaxPlus.h"

#include "TestUtil.h"
#include "core/Frustum.h"
#include "core/RateAnalysis.h"
#include "core/ScheduleDerivation.h"
#include "core/SdspPn.h"
#include "core/TheoryBounds.h"
#include "petri/CycleRatio.h"
#include "gtest/gtest.h"

using namespace sdsp;
using namespace sdsp::testutil;

namespace {

/// Collects the engine's actual firing times, per transition in firing
/// order, over \p Steps time steps.
std::vector<std::vector<TimeStep>> engineFiringTimes(const PetriNet &Net,
                                                     TimeStep Steps) {
  EarliestFiringEngine Engine(Net);
  std::vector<std::vector<TimeStep>> Times(Net.numTransitions());
  while (Engine.now() < Steps) {
    StepRecord Rec = Engine.fireAndAdvance();
    for (TransitionId T : Rec.Fired)
      Times[T.index()].push_back(Rec.Time);
  }
  return Times;
}

void expectTableMatchesEngine(const PetriNet &Net, uint64_t Horizon,
                              TimeStep Steps) {
  FiringTimeTable Table = computeFiringTimes(Net, Horizon);
  std::vector<std::vector<TimeStep>> Engine =
      engineFiringTimes(Net, Steps);
  for (TransitionId T : Net.transitionIds()) {
    size_t Count = std::min<size_t>(Horizon, Engine[T.index()].size());
    ASSERT_GE(Count, 1u) << "transition never fired";
    for (size_t H = 0; H < Count; ++H)
      EXPECT_EQ(Table.at(H, T), Engine[T.index()][H])
          << "transition " << Net.transition(T).Name << " firing " << H;
  }
}

TEST(MaxPlus, MatchesEngineOnL1AndL2) {
  expectTableMatchesEngine(
      buildSdspPn(Sdsp::standard(buildL1())).Net, 20, 64);
  expectTableMatchesEngine(
      buildSdspPn(Sdsp::standard(buildL2Direct())).Net, 20, 96);
}

TEST(MaxPlus, MatchesEngineWithMixedExecTimes) {
  PetriNetBuilder NB;
  TransitionId A = NB.addTransition("a", 3);
  TransitionId B = NB.addTransition("b", 2);
  TransitionId C = NB.addTransition("c", 1);
  auto Place = [&](TransitionId X, TransitionId Y, uint32_t Tok) {
    PlaceId P = NB.addPlace("p", Tok);
    NB.addArc(X, P);
    NB.addArc(P, Y);
  };
  Place(A, B, 1);
  Place(B, C, 0);
  Place(C, A, 1);
  PetriNet Net = NB.build();
  expectTableMatchesEngine(Net, 16, 128);
}

TEST(MaxPlus, MatchesEngineOnRandomGraphs) {
  Rng R(515);
  for (int Trial = 0; Trial < 10; ++Trial) {
    DataflowGraph G = buildRandomLoopGraph(R, 3 + Trial % 6, 25);
    SdspPn Pn = buildSdspPn(Sdsp::standard(G));
    expectTableMatchesEngine(Pn.Net, 12, 128);
  }
}

TEST(MaxPlus, Theorem411PeriodicityOnL2) {
  // X^{h+k} - X^h = p with k = M(C*), p = Omega(C*), for ALL
  // transitions, after at most O(n^3) firings (here: almost at once).
  SdspPn Pn = buildSdspPn(Sdsp::standard(buildL2Direct()));
  MarkedGraphView View(Pn.Net);
  auto Info = criticalCycleByEnumeration(View);
  ASSERT_TRUE(Info.has_value());
  uint64_t K = Info->Witness.TokenSum;
  TimeStep P = Info->Witness.ValueSum;
  EXPECT_EQ(K, 1u);
  EXPECT_EQ(P, 3u);

  FiringTimeTable Table = computeFiringTimes(Pn.Net, 64);
  auto B = computeBounds(Pn);
  ASSERT_TRUE(B.has_value());
  uint64_t Bound = std::min<uint64_t>(B->IterationBound, 32);
  EXPECT_TRUE(isPeriodicFrom(Table, Pn.Net.transitionIds(), Bound, K, P));
  // And in practice it is periodic from the very first firings:
  EXPECT_TRUE(isPeriodicFrom(Table, Pn.Net.transitionIds(), 2, K, P));
}

TEST(MaxPlus, Theorem421CriticalTransitionsOnly) {
  // Two cycles with the same ratio (multiple critical cycles) sharing
  // no transitions: Theorem 4.2.1 guarantees periodicity for
  // transitions ON critical cycles after O(n^2) iterations.
  PetriNetBuilder NB;
  std::vector<TransitionId> Ts;
  for (int I = 0; I < 6; ++I)
    Ts.push_back(NB.addTransition("t" + std::to_string(I)));
  auto Place = [&](int X, int Y, uint32_t Tok) {
    PlaceId P = NB.addPlace("p", Tok);
    NB.addArc(Ts[X], P);
    NB.addArc(P, Ts[Y]);
  };
  // Critical cycle 1: t0 -> t1 -> t2 -> t0, one token: ratio 3.
  Place(0, 1, 1);
  Place(1, 2, 0);
  Place(2, 0, 0);
  // Critical cycle 2: t3 -> t4 -> t5 -> t3, one token: ratio 3.
  Place(3, 4, 1);
  Place(4, 5, 0);
  Place(5, 3, 0);
  // Cross edges with slack so the graph is connected.
  Place(0, 3, 2);
  Place(3, 0, 2);
  PetriNet Net = NB.build();

  MarkedGraphView View(Net);
  auto Info = criticalCycleByEnumeration(View);
  ASSERT_TRUE(Info.has_value());
  EXPECT_GE(Info->NumCriticalCycles, 2u);
  EXPECT_EQ(Info->CycleTime, Rational(3));

  FiringTimeTable Table = computeFiringTimes(Net, 96);
  // k = M(C*) = 1 for either critical cycle, p = 3.
  EXPECT_TRUE(
      isPeriodicFrom(Table, Info->CriticalTransitions, 36, 1, 3));
}

TEST(MaxPlus, PeriodicityCheckerRejectsWrongPeriod) {
  SdspPn Pn = buildSdspPn(Sdsp::standard(buildL2Direct()));
  FiringTimeTable Table = computeFiringTimes(Pn.Net, 32);
  EXPECT_FALSE(isPeriodicFrom(Table, Pn.Net.transitionIds(), 8, 1, 2));
  EXPECT_FALSE(isPeriodicFrom(Table, Pn.Net.transitionIds(), 8, 1, 4));
}

TEST(MaxPlus, TableMatchesScheduleClosedForm) {
  // Three independent implementations of the same semantics — the
  // token-flow engine (via the frustum's schedule), the closed-form
  // startTime(), and the max-plus recurrence — must agree everywhere.
  for (bool UseL2 : {false, true}) {
    SdspPn Pn = buildSdspPn(
        Sdsp::standard(UseL2 ? buildL2Direct() : buildL1()));
    auto F = detectFrustum(Pn.Net);
    ASSERT_TRUE(F.has_value());
    SoftwarePipelineSchedule Sched = deriveSchedule(Pn, *F);
    FiringTimeTable Table = computeFiringTimes(Pn.Net, 40);
    for (TransitionId T : Pn.Net.transitionIds())
      for (uint64_t H = 0; H < 40; ++H)
        EXPECT_EQ(Table.at(H, T), Sched.startTime(T, H))
            << "transition " << Pn.Net.transition(T).Name
            << " firing " << H;
  }
}

TEST(MaxPlus, RateFromTableMatchesAnalysis) {
  // Long-run average spacing of firings equals alpha*.
  SdspPn Pn = buildSdspPn(Sdsp::standard(buildL2Direct()));
  FiringTimeTable Table = computeFiringTimes(Pn.Net, 256);
  RateReport Rate = analyzeRate(Pn);
  for (TransitionId T : Pn.Net.transitionIds()) {
    TimeStep Span = Table.at(255, T) - Table.at(55, T);
    EXPECT_EQ(Rational(static_cast<int64_t>(Span), 200),
              Rate.CycleTime);
  }
}

} // namespace
