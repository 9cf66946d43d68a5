//===- tests/InvariantsTest.cpp - P/T-invariant tests ----------------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "petri/Invariants.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

using namespace sdsp;
using namespace sdsp::testutil;

namespace {

TEST(Invariants, IncidenceMatrixShape) {
  PetriNet Ring = buildRing(3, 1);
  RationalMatrix C = incidenceMatrix(Ring);
  ASSERT_EQ(C.size(), 3u);
  ASSERT_EQ(C[0].size(), 3u);
  // Each transition produces into one place and consumes from another.
  for (size_t T = 0; T < 3; ++T) {
    Rational Sum(0);
    for (size_t P = 0; P < 3; ++P)
      Sum = Sum + C[T][P];
    EXPECT_EQ(Sum, Rational(0));
  }
}

TEST(Invariants, NullspaceOfIdentityIsEmpty) {
  RationalMatrix I = {{Rational(1), Rational(0)},
                      {Rational(0), Rational(1)}};
  EXPECT_TRUE(nullspaceBasis(I).empty());
}

TEST(Invariants, NullspaceSimpleKernel) {
  // x + y = 0 has a one-dimensional kernel.
  RationalMatrix A = {{Rational(1), Rational(1)}};
  RationalMatrix Basis = nullspaceBasis(A);
  ASSERT_EQ(Basis.size(), 1u);
  EXPECT_EQ(Basis[0][0] + Basis[0][1], Rational(0));
}

TEST(Invariants, RingHasUniformTInvariant) {
  // Thm A.5.3 in invariant form: firing every transition once
  // reproduces any marking of a marked graph.
  EXPECT_TRUE(hasUniformTInvariant(buildRing(5, 2)));
}

TEST(Invariants, NonMarkedGraphLacksUniformTInvariant) {
  // A fork: one producer, two consumers of different places; firing
  // everything once does not rebalance.
  PetriNetBuilder NB;
  TransitionId Src = NB.addTransition("src");
  TransitionId A = NB.addTransition("a");
  PlaceId P = NB.addPlace("p", 1);
  NB.addArc(Src, P);
  NB.addArc(P, A);
  PlaceId Q = NB.addPlace("q", 0);
  NB.addArc(A, Q); // q accumulates: no uniform T-invariant.
  PetriNet Net = NB.build();
  EXPECT_FALSE(hasUniformTInvariant(Net));
}

TEST(Invariants, PairPlacePInvariant) {
  // A data/ack pair conserves data + ack tokens: the (1,1) weighting
  // over the two places is a P-invariant.
  PetriNetBuilder NB;
  TransitionId A = NB.addTransition("a");
  TransitionId B = NB.addTransition("b");
  PlaceId D = NB.addPlace("d", 0);
  PlaceId K = NB.addPlace("k", 1);
  NB.addArc(A, D);
  NB.addArc(D, B);
  NB.addArc(B, K);
  NB.addArc(K, A);
  PetriNet Net = NB.build();
  RationalMatrix Basis = pInvariants(Net);
  ASSERT_FALSE(Basis.empty());
  // Verify some basis vector is proportional to (1, 1).
  bool Found = false;
  for (const auto &V : Basis)
    if (V[D.index()] == V[K.index()] && !V[D.index()].isZero())
      Found = true;
  EXPECT_TRUE(Found);
}

TEST(Invariants, TInvariantsVerify) {
  Rng R(3);
  PetriNet Net = buildRandomMarkedGraph(R, 6, 4);
  RationalMatrix Basis = tInvariants(Net);
  for (const auto &X : Basis)
    EXPECT_TRUE(isTInvariant(Net, X));
  EXPECT_TRUE(hasUniformTInvariant(Net)) << "marked graph consistency";
}

} // namespace
