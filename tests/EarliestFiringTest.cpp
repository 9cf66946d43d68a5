//===- tests/EarliestFiringTest.cpp - Engine semantics tests ---------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "petri/EarliestFiring.h"
#include "petri/EngineLayout.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

using namespace sdsp;
using namespace sdsp::testutil;

namespace {

TEST(EarliestFiring, RingTokenCirculates) {
  PetriNet Ring = buildRing(3, 1);
  EarliestFiringEngine Engine(Ring);
  // Token starts on p0 (t0 -> t1), so t1 fires first.
  Engine.prepare();
  ASSERT_EQ(Engine.candidates().size(), 1u);
  EXPECT_EQ(Engine.candidates()[0], TransitionId(1u));
  StepRecord R0 = Engine.fireAndAdvance();
  ASSERT_EQ(R0.Fired.size(), 1u);

  Engine.prepare();
  ASSERT_EQ(Engine.candidates().size(), 1u);
  EXPECT_EQ(Engine.candidates()[0], TransitionId(2u));
}

TEST(EarliestFiring, CompletionTimingRespectsExecTime) {
  // a(time 3) feeds b; b can fire only after a finishes at t=3.
  PetriNetBuilder NB;
  TransitionId A = NB.addTransition("a", 3);
  TransitionId B = NB.addTransition("b", 1);
  PlaceId P = NB.addPlace("p", 0);
  PlaceId Back = NB.addPlace("back", 1);
  NB.addArc(A, P);
  NB.addArc(P, B);
  NB.addArc(B, Back);
  NB.addArc(Back, A);
  PetriNet Net = NB.build();

  EarliestFiringEngine Engine(Net);
  StepRecord R0 = Engine.fireAndAdvance(); // t=0: a fires
  ASSERT_EQ(R0.Fired.size(), 1u);
  EXPECT_EQ(R0.Fired[0], A);

  StepRecord R1 = Engine.fireAndAdvance(); // t=1: nothing
  EXPECT_TRUE(R1.Fired.empty());
  StepRecord R2 = Engine.fireAndAdvance(); // t=2: nothing
  EXPECT_TRUE(R2.Fired.empty());
  StepRecord R3 = Engine.fireAndAdvance(); // t=3: a completes, b fires
  ASSERT_EQ(R3.Completed.size(), 1u);
  EXPECT_EQ(R3.Completed[0], A);
  ASSERT_EQ(R3.Fired.size(), 1u);
  EXPECT_EQ(R3.Fired[0], B);
}

TEST(EarliestFiring, ResidualVectorTracksBusyTransitions) {
  PetriNetBuilder NB;
  TransitionId A = NB.addTransition("a", 4);
  PlaceId P = NB.addPlace("p", 1);
  NB.addArc(P, A);
  NB.addArc(A, P);
  PetriNet Net = NB.build();

  EarliestFiringEngine Engine(Net);
  Engine.prepare();
  InstantaneousState S0 = Engine.state();
  EXPECT_EQ(S0.Residual[A.index()], 0u);
  Engine.fireAndAdvance(); // fires at 0, completes at 4
  Engine.prepare();
  InstantaneousState S1 = Engine.state();
  EXPECT_EQ(S1.Residual[A.index()], 3u) << "3 units left at t=1";
  EXPECT_EQ(S1.M.tokens(P), 0u);
}

TEST(EarliestFiring, MaximalStepFiresAllEnabled) {
  // Two independent self-recycling transitions fire simultaneously.
  PetriNetBuilder NB;
  for (int I = 0; I < 2; ++I) {
    TransitionId T = NB.addTransition("t" + std::to_string(I));
    PlaceId P = NB.addPlace("p" + std::to_string(I), 1);
    NB.addArc(P, T);
    NB.addArc(T, P);
  }
  PetriNet Net = NB.build();
  EarliestFiringEngine Engine(Net);
  StepRecord R = Engine.fireAndAdvance();
  EXPECT_EQ(R.Fired.size(), 2u);
}

TEST(EarliestFiring, NonReentrancyAssumptionA61) {
  // A source transition with exec time 2 and no inputs: it must not
  // start a second firing while busy -> fires at t=0,2,4,...
  PetriNetBuilder NB;
  TransitionId T = NB.addTransition("src", 2);
  (void)T;
  PetriNet Net = NB.build();
  EarliestFiringEngine Engine(Net);
  std::vector<size_t> FiringTimes;
  for (int Step = 0; Step < 6; ++Step) {
    StepRecord R = Engine.fireAndAdvance();
    if (!R.Fired.empty())
      FiringTimes.push_back(static_cast<size_t>(R.Time));
  }
  EXPECT_EQ(FiringTimes, (std::vector<size_t>{0, 2, 4}));
}

TEST(EarliestFiring, QuiescenceDetection) {
  // One token, consumer with no recycling: after one firing the net is
  // dead.
  PetriNetBuilder NB;
  TransitionId A = NB.addTransition("a");
  PlaceId P = NB.addPlace("p", 1);
  PlaceId Sink = NB.addPlace("sink", 0);
  NB.addArc(P, A);
  NB.addArc(A, Sink);
  PetriNet Net = NB.build();

  EarliestFiringEngine Engine(Net);
  EXPECT_FALSE(Engine.isQuiescent());
  Engine.fireAndAdvance();
  Engine.prepare();
  Engine.fireAndAdvance(); // completion deposits into sink
  Engine.prepare();
  EXPECT_TRUE(Engine.isQuiescent());
}

TEST(EarliestFiring, StructuralConflictWithDefaultPolicy) {
  // One token, two competing consumers: index order wins, one fires.
  PetriNetBuilder NB;
  TransitionId A = NB.addTransition("a");
  TransitionId B = NB.addTransition("b");
  PlaceId P = NB.addPlace("p", 1);
  NB.addArc(P, A);
  NB.addArc(P, B);
  NB.addArc(A, P);
  NB.addArc(B, P);
  PetriNet Net = NB.build();

  EarliestFiringEngine Engine(Net);
  StepRecord R = Engine.fireAndAdvance();
  ASSERT_EQ(R.Fired.size(), 1u);
  EXPECT_EQ(R.Fired[0], A) << "index order breaks the tie";
}

TEST(FifoPolicy, HeadOfQueueWins) {
  // Shared resource place; b becomes data-ready before a, so b fires
  // first even though a has the smaller index.
  PetriNetBuilder NB;
  TransitionId A = NB.addTransition("a");
  TransitionId B = NB.addTransition("b");
  TransitionId Feeder = NB.addTransition("feeder");
  PlaceId Res = NB.addPlace("res", 1);
  PlaceId DataA = NB.addPlace("da", 0);
  PlaceId DataB = NB.addPlace("db", 1);
  PlaceId FeederIn = NB.addPlace("fi", 1);
  NB.addArc(Res, A);
  NB.addArc(A, Res);
  NB.addArc(Res, B);
  NB.addArc(B, Res);
  NB.addArc(DataA, A);
  NB.addArc(DataB, B);
  NB.addArc(FeederIn, Feeder);
  NB.addArc(Feeder, DataA);

  std::vector<bool> Conflicting(NB.numTransitions(), false);
  Conflicting[A.index()] = true;
  Conflicting[B.index()] = true;
  FifoPolicy Policy(Conflicting, {Res});
  PetriNet Net = NB.build();
  EarliestFiringEngine Engine(Net, &Policy);

  // t=0: b data-ready (enqueued), feeder fires; b takes the resource.
  StepRecord R0 = Engine.fireAndAdvance();
  ASSERT_EQ(R0.Fired.size(), 2u);
  EXPECT_EQ(R0.Fired[0], Feeder);
  EXPECT_EQ(R0.Fired[1], B);
  // t=1: feeder completes, a becomes ready; resource back at t=1.
  StepRecord R1 = Engine.fireAndAdvance();
  ASSERT_EQ(R1.Fired.size(), 1u);
  EXPECT_EQ(R1.Fired[0], A);
}

TEST(FifoPolicy, StateFingerprintReflectsQueue) {
  PetriNetBuilder NB;
  TransitionId A = NB.addTransition("a");
  PlaceId Res = NB.addPlace("res", 0); // never available
  PlaceId Data = NB.addPlace("d", 1);
  NB.addArc(Res, A);
  NB.addArc(A, Res);
  NB.addArc(Data, A);

  std::vector<bool> Conflicting{true};
  FifoPolicy Policy(Conflicting, {Res});
  PetriNet Net = NB.build();
  EarliestFiringEngine Engine(Net, &Policy);
  Engine.prepare();
  InstantaneousState S = Engine.state();
  ASSERT_EQ(S.PolicyFingerprint.size(), 1u);
  EXPECT_EQ(S.PolicyFingerprint[0], A.index());
}

TEST(InstantaneousState, EqualityIncludesAllComponents) {
  InstantaneousState A, B;
  A.M = Marking(2);
  B.M = Marking(2);
  A.Residual = {0, 1};
  B.Residual = {0, 1};
  EXPECT_EQ(A, B);
  EXPECT_EQ(A.hashValue(), B.hashValue());
  B.PolicyFingerprint = {3};
  EXPECT_FALSE(A == B);
  B.PolicyFingerprint.clear();
  B.Residual = {1, 0};
  EXPECT_FALSE(A == B);
}

TEST(EngineLayout, ZeroLanesMatchesTheScalarLoop) {
  // The dense drain's kernel against the plain loop it stands in for,
  // on lanes that are zero, small counts, the busy bias and the
  // readiness padding's sentinel, in every bit position.
  Rng R(5);
  const uint32_t Values[] = {0, 1, 2, 1u << 24, (1u << 24) + 1, ~0u};
  std::vector<uint32_t> Lanes(64);
  for (int Round = 0; Round < 200; ++Round) {
    for (uint32_t &L : Lanes)
      L = Values[R.range(0, 5)];
    EXPECT_EQ(zeroLanes(Lanes.data()), zeroLanesScalar(Lanes.data()));
  }
  std::fill(Lanes.begin(), Lanes.end(), 0u);
  EXPECT_EQ(zeroLanes(Lanes.data()), ~0ull);
  for (unsigned B = 0; B < 64; ++B) {
    std::fill(Lanes.begin(), Lanes.end(), 1u);
    Lanes[B] = 0;
    EXPECT_EQ(zeroLanes(Lanes.data()), 1ull << B);
  }
}

/// The layout reads \p Net's adjacency in place: every row of every
/// list it walks is the very memory the net's own view of that row
/// points at, so a layout that copied a list or its offsets fails here.
void expectLayoutAliasesNet(const PetriNet &Net) {
  EngineLayout L(Net);
  ASSERT_EQ(L.InOff.size(), Net.numTransitions() + 1);
  ASSERT_EQ(L.OutOff.size(), Net.numTransitions() + 1);
  ASSERT_EQ(L.ConsOff.size(), Net.numPlaces() + 1);
  EXPECT_EQ(L.InOff.front(), 0u);
  EXPECT_EQ(L.OutOff.front(), 0u);
  EXPECT_EQ(L.ConsOff.front(), 0u);
  EXPECT_EQ(L.InOff.data(), Net.inputPlaceRows().Start.data());
  EXPECT_EQ(L.OutOff.data(), Net.outputPlaceRows().Start.data());
  EXPECT_EQ(L.ConsOff.data(), Net.consumerRows().Start.data());
  for (TransitionId T : Net.transitionIds()) {
    PetriNet::Transition Tr = Net.transition(T);
    const uint32_t I = T.index();
    EXPECT_EQ(L.InList.data() + L.InOff[I], Tr.InputPlaces.data());
    EXPECT_EQ(L.InOff[I + 1] - L.InOff[I], Tr.InputPlaces.size());
    EXPECT_EQ(L.OutList.data() + L.OutOff[I], Tr.OutputPlaces.data());
    EXPECT_EQ(L.OutOff[I + 1] - L.OutOff[I], Tr.OutputPlaces.size());
  }
  for (PlaceId P : Net.placeIds()) {
    PetriNet::Place Pl = Net.place(P);
    const uint32_t I = P.index();
    EXPECT_EQ(L.ConsList.data() + L.ConsOff[I], Pl.Consumers.data());
    EXPECT_EQ(L.ConsOff[I + 1] - L.ConsOff[I], Pl.Consumers.size());
  }
}

TEST(EngineLayout, AdjacencyAliasesTheNetsOwnArrays) {
  Rng R(11);
  PetriNet Built = buildRandomMarkedGraph(R, 40, 12);
  expectLayoutAliasesNet(Built);

  // The decoder's path: the same net, list by list, through Parts.
  PetriNet::Parts Parts;
  for (PlaceId P : Built.placeIds()) {
    PetriNet::Place Pl = Built.place(P);
    Parts.addPlace(Pl.Name, Pl.InitialTokens, Pl.Producers, Pl.Consumers);
  }
  for (TransitionId T : Built.transitionIds()) {
    PetriNet::Transition Tr = Built.transition(T);
    Parts.addTransition(Tr.Name, Tr.ExecTime, Tr.InputPlaces,
                        Tr.OutputPlaces);
  }
  PetriNet Rebuilt = PetriNet::fromParts(std::move(Parts));
  expectLayoutAliasesNet(Rebuilt);

  // A copy is read in place too, not through the original.
  PetriNet Copy = Built;
  expectLayoutAliasesNet(Copy);
  EXPECT_NE(EngineLayout(Copy).InList.data(),
            EngineLayout(Built).InList.data());
}

TEST(EngineLayout, NetWithoutTransitionsHasOneOffsetPerList) {
  // Built: the lists have rows for the places only.
  PetriNetBuilder NB;
  NB.addPlace("a", 1);
  NB.addPlace("b", 0);
  PetriNet Built = NB.build();
  expectLayoutAliasesNet(Built);

  // Through Parts, where a list with no rows stores no offsets at all.
  PetriNet::Parts Parts;
  Parts.addPlace("a", 1, {}, {});
  PetriNet PlacesOnly = PetriNet::fromParts(std::move(Parts));
  expectLayoutAliasesNet(PlacesOnly);
  EXPECT_TRUE(EngineLayout(PlacesOnly).InList.empty());

  PetriNet Empty = PetriNet::fromParts(PetriNet::Parts());
  expectLayoutAliasesNet(Empty);
}

} // namespace
