//===- tests/HowardFuzzTest.cpp - Howard vs enumeration golden fuzz --------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Golden fuzz suite for Howard's policy iteration: on hundreds of
/// random live safe marked graphs (non-unit execution times, random
/// chords, so multi-critical-cycle ties are common), the Howard result
/// must agree exactly — cycle time, rate, witness ratio, and the full
/// critical-transition set — with Johnson-cycle enumeration and with
/// the Lawler parametric search.  Enumeration is the ground-truth
/// oracle the `--rate-engine=enumerate` escape hatch exposes.
///
//===----------------------------------------------------------------------===//

#include "petri/CycleRatio.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

#include <algorithm>
#include <vector>

using namespace sdsp;
using namespace sdsp::testutil;

namespace {

std::vector<TransitionId> sorted(std::vector<TransitionId> V) {
  std::sort(V.begin(), V.end(),
            [](TransitionId A, TransitionId B) { return A.index() < B.index(); });
  return V;
}

/// Checks one graph three ways and returns the enumeration's critical
/// cycle count (to assert suite-level coverage of the tie regime).
size_t checkOneGraph(const PetriNet &Net, uint64_t Seed) {
  SCOPED_TRACE("seed " + std::to_string(Seed));
  EXPECT_TRUE(isLiveMarkedGraph(Net));
  EXPECT_TRUE(isSafeMarkedGraph(Net));
  MarkedGraphView View(Net);

  std::optional<CriticalCycleInfo> Enum = criticalCycleByEnumeration(View);
  uint64_t Iterations = 0;
  std::optional<CriticalCycleInfo> How = maxCycleRatioHoward(View, &Iterations);
  std::optional<CriticalCycleInfo> Par = criticalCycleByParametricSearch(View);

  EXPECT_TRUE(Enum.has_value());
  EXPECT_TRUE(How.has_value());
  EXPECT_TRUE(Par.has_value());
  if (!Enum || !How || !Par)
    return 0;

  EXPECT_EQ(How->CycleTime, Enum->CycleTime);
  EXPECT_EQ(Par->CycleTime, Enum->CycleTime);
  EXPECT_EQ(How->ComputationRate, Enum->ComputationRate);

  // The witness must itself attain alpha*.
  EXPECT_GT(How->Witness.TokenSum, 0u);
  if (How->Witness.TokenSum == 0)
    return 0;
  EXPECT_EQ(Rational(static_cast<int64_t>(How->Witness.ValueSum),
                     static_cast<int64_t>(How->Witness.TokenSum)),
            Enum->CycleTime);

  // Critical-transition sets: Howard's tight-subgraph extraction must
  // reproduce the enumeration's exact set (the paper's Section 4.2
  // bound applies precisely to these transitions).
  EXPECT_EQ(sorted(How->CriticalTransitions),
            sorted(Enum->CriticalTransitions));

  // Howard leaves the cycle count unset; enumeration fills it.
  EXPECT_EQ(How->NumCriticalCycles, 0u);
  EXPECT_GE(Enum->NumCriticalCycles, 1u);
  EXPECT_GE(Iterations, 1u);
  return Enum->NumCriticalCycles;
}

TEST(HowardFuzz, AgreesWithEnumerationOnRandomMarkedGraphs) {
  // >= 200 random live safe strongly connected marked graphs with
  // execution times in [1,3] and random chords.  Sizes stay small
  // enough for the exponential oracle while spanning the interesting
  // shapes (short rings up to ~30 transitions, dense chord sets).
  size_t GraphsWithTies = 0;
  size_t Checked = 0;
  for (uint64_t Seed = 1; Seed <= 220; ++Seed) {
    Rng R(Seed * 0x9e3779b97f4a7c15ull);
    size_t N = static_cast<size_t>(R.range(3, 30));
    size_t Chords = static_cast<size_t>(R.range(0, 8));
    PetriNet Net = buildRandomMarkedGraph(R, N, Chords);
    size_t NumCritical = checkOneGraph(Net, Seed);
    if (NumCritical > 1)
      ++GraphsWithTies;
    ++Checked;
  }
  EXPECT_EQ(Checked, 220u);
  // The suite must actually exercise the multi-critical-cycle regime
  // (ack 2-cycles with equal tau sums tie constantly); if generation
  // drifts to unique-critical-cycle graphs only, this trips.
  EXPECT_GE(GraphsWithTies, 20u);
}

TEST(HowardFuzz, RingsAndKnownRatios) {
  // Deterministic spot checks with hand-computable alpha*.
  for (uint32_t Tokens = 1; Tokens <= 4; ++Tokens) {
    PetriNet Ring = buildRing(8, Tokens);
    MarkedGraphView View(Ring);
    auto Info = maxCycleRatioHoward(View);
    ASSERT_TRUE(Info.has_value());
    EXPECT_EQ(Info->CycleTime, Rational(8, Tokens));
    EXPECT_EQ(Info->CriticalTransitions.size(), 8u);
  }
}

TEST(HowardFuzz, AcyclicReturnsNothing) {
  PetriNetBuilder NB;
  TransitionId A = NB.addTransition("a");
  TransitionId B = NB.addTransition("b");
  PlaceId P = NB.addPlace("p", 1);
  NB.addArc(A, P);
  NB.addArc(P, B);
  PetriNet Net = NB.build();
  MarkedGraphView View(Net);
  EXPECT_FALSE(maxCycleRatioHoward(View).has_value());
}

TEST(HowardFuzz, LargeGraphMatchesParametricSearch) {
  // Beyond the enumeration oracle's comfort zone, cross-validate the
  // two polynomial algorithms against each other on a bigger instance.
  Rng R(42);
  PetriNet Net = buildRandomMarkedGraph(R, 400, 120);
  MarkedGraphView View(Net);
  auto How = maxCycleRatioHoward(View);
  auto Par = criticalCycleByParametricSearch(View);
  ASSERT_TRUE(How.has_value());
  ASSERT_TRUE(Par.has_value());
  EXPECT_EQ(How->CycleTime, Par->CycleTime);
  EXPECT_EQ(sorted(How->CriticalTransitions),
            sorted(Par->CriticalTransitions));
}

} // namespace
