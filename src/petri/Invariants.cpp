//===- petri/Invariants.cpp - P/T-invariants and consistency ---------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "petri/Invariants.h"

#include <cassert>

using namespace sdsp;

RationalMatrix sdsp::incidenceMatrix(const PetriNet &Net) {
  RationalMatrix C(Net.numTransitions(),
                   std::vector<Rational>(Net.numPlaces(), Rational(0)));
  for (TransitionId T : Net.transitionIds()) {
    for (PlaceId P : Net.transition(T).OutputPlaces)
      C[T.index()][P.index()] = C[T.index()][P.index()] + Rational(1);
    for (PlaceId P : Net.transition(T).InputPlaces)
      C[T.index()][P.index()] = C[T.index()][P.index()] - Rational(1);
  }
  return C;
}

RationalMatrix sdsp::nullspaceBasis(const RationalMatrix &A) {
  if (A.empty())
    return {};
  size_t Rows = A.size(), Cols = A[0].size();
  RationalMatrix M = A;

  // Reduced row echelon form with partial (first-nonzero) pivoting.
  std::vector<size_t> PivotCol;
  size_t Row = 0;
  for (size_t Col = 0; Col < Cols && Row < Rows; ++Col) {
    size_t Pivot = Row;
    while (Pivot < Rows && M[Pivot][Col].isZero())
      ++Pivot;
    if (Pivot == Rows)
      continue;
    std::swap(M[Pivot], M[Row]);
    Rational Inv = M[Row][Col].reciprocal();
    for (size_t J = Col; J < Cols; ++J)
      M[Row][J] = M[Row][J] * Inv;
    for (size_t I = 0; I < Rows; ++I) {
      if (I == Row || M[I][Col].isZero())
        continue;
      Rational Factor = M[I][Col];
      for (size_t J = Col; J < Cols; ++J)
        M[I][J] = M[I][J] - Factor * M[Row][J];
    }
    PivotCol.push_back(Col);
    ++Row;
  }

  // Free columns generate the nullspace.
  std::vector<bool> IsPivot(Cols, false);
  for (size_t C : PivotCol)
    IsPivot[C] = true;

  RationalMatrix Basis;
  for (size_t Free = 0; Free < Cols; ++Free) {
    if (IsPivot[Free])
      continue;
    std::vector<Rational> V(Cols, Rational(0));
    V[Free] = Rational(1);
    for (size_t R = 0; R < PivotCol.size(); ++R)
      V[PivotCol[R]] = -M[R][Free];
    Basis.push_back(std::move(V));
  }
  return Basis;
}

RationalMatrix sdsp::pInvariants(const PetriNet &Net) {
  return nullspaceBasis(incidenceMatrix(Net));
}

RationalMatrix sdsp::tInvariants(const PetriNet &Net) {
  RationalMatrix C = incidenceMatrix(Net);
  // Transpose: |P| x |T|.
  RationalMatrix CT(Net.numPlaces(),
                    std::vector<Rational>(Net.numTransitions(), Rational(0)));
  for (size_t T = 0; T < Net.numTransitions(); ++T)
    for (size_t P = 0; P < Net.numPlaces(); ++P)
      CT[P][T] = C[T][P];
  return nullspaceBasis(CT);
}

bool sdsp::isTInvariant(const PetriNet &Net, const std::vector<Rational> &X) {
  assert(X.size() == Net.numTransitions() && "dimension mismatch");
  for (PlaceId P : Net.placeIds()) {
    Rational Sum(0);
    for (TransitionId T : Net.place(P).Producers)
      Sum = Sum + X[T.index()];
    for (TransitionId T : Net.place(P).Consumers)
      Sum = Sum - X[T.index()];
    if (!Sum.isZero())
      return false;
  }
  return true;
}

bool sdsp::hasUniformTInvariant(const PetriNet &Net) {
  // With X = 1 every place's sum is its producer count minus its
  // consumer count.
  for (size_t I = 0; I < Net.numPlaces(); ++I) {
    const PetriNet::Place &Pl = Net.place(PlaceId(I));
    if (Pl.Producers.size() != Pl.Consumers.size())
      return false;
  }
  return true;
}
