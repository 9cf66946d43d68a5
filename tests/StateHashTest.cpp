//===- tests/StateHashTest.cpp - Incremental state-hash validation ---------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine's incrementally maintained marking hash must equal a full
/// rehash of the packed words at every step, on every net shape the
/// engine special-cases (unit-time all-fast, bit-marking, ring
/// scheduling, exact-marking fallback, multi-token buffers packed as
/// count planes, a policy's fingerprint).  Debug builds additionally
/// validate this inside insertOrFindHashed on every interning; this
/// suite checks it explicitly so release builds cover it too, and pins
/// the hashed decrementResiduals delta used by the idle-stretch leap:
/// each synthesized state must equal the one a twin engine, stepping
/// every instant, packs there.
///
//===----------------------------------------------------------------------===//

#include "petri/EarliestFiring.h"

#include "TestUtil.h"
#include "core/ScpModel.h"
#include "core/Sdsp.h"
#include "core/SdspPn.h"
#include "dataflow/Unroll.h"
#include "livermore/Livermore.h"
#include "loopir/Lowering.h"
#include "gtest/gtest.h"

#include <vector>

using namespace sdsp;
using namespace sdsp::testutil;

namespace {

/// What a hashed run went through (anti-vacuity for the callers).
struct RunShape {
  size_t DenseStates = 0;
  size_t BusyStates = 0;
  /// Leapt instants whose busy section sits behind count planes.
  size_t LeaptBehindPlanes = 0;
};

/// Runs \p Steps engine steps and checks the incremental raw hash
/// against PackedState::rawHash() at each instant, leaping idle
/// stretches through the hashed decrementResiduals path.  A twin engine
/// steps every instant without leaping; every packed state, stepped or
/// synthesized, must equal the twin's word for word.  \p Policy and
/// \p TwinPolicy are two instances of the same policy, or both null.
RunShape checkHashedRun(const PetriNet &Net, size_t Steps,
                        FiringPolicy *Policy = nullptr,
                        FiringPolicy *TwinPolicy = nullptr) {
  EarliestFiringEngine Engine(Net, Policy);
  EarliestFiringEngine Twin(Net, TwinPolicy);
  size_t MarkWords = (Net.numPlaces() + 63) / 64;
  PackedState PS, TwinPS;
  PackedStateTable Seen;
  RunShape Shape;
  auto CheckTwin = [&](TimeStep T) {
    Twin.prepare();
    Twin.packState(TwinPS);
    EXPECT_EQ(Twin.now(), T);
    EXPECT_TRUE(PS == TwinPS) << "packed state diverged at t=" << T;
    Shape.DenseStates += PS.overflowCount() > 0 && PS.denseOverflow();
    Shape.BusyStates += PS.busyCount() > 0;
    Twin.fireAndAdvance();
  };
  for (size_t I = 0; I < Steps; ++I) {
    Engine.prepare();
    uint64_t Raw = Engine.packStateHashed(PS);
    EXPECT_EQ(Raw, PS.rawHash()) << "step " << I << " at t=" << Engine.now();
    EXPECT_EQ(PackedState::finalizeHash(Raw), PS.hashValue());
    CheckTwin(Engine.now());
    Seen.insertOrFindHashed(PS, Raw, Engine.now());
    if (Engine.isQuiescent())
      break; // dead net; nothing further to validate
    StepRecord Rec = Engine.fireAndAdvance();
    if (!Rec.Completed.empty() || !Rec.Fired.empty())
      continue;
    // Idle stretch: walk it one instant at a time through the hashed
    // residual decrement, validating the delta at each instant (the
    // same synthesis the frustum detector's time leap performs).
    std::optional<TimeStep> Next = Engine.nextFinishTime();
    EXPECT_TRUE(Next.has_value());
    if (!Next)
      break;
    for (TimeStep V = Engine.now(); V < *Next; ++V) {
      Raw = PS.decrementResiduals(MarkWords, Raw);
      EXPECT_EQ(Raw, PS.rawHash()) << "leap instant " << V;
      CheckTwin(V);
      Seen.insertOrFindHashed(PS, Raw, V);
      Shape.LeaptBehindPlanes += PS.overflowCount() > 0 && PS.denseOverflow();
    }
    Engine.leapTo(*Next);
  }
#ifndef NDEBUG
  // Debug builds validate every interning against a full rehash; the
  // counter proves the validation path actually ran.
  EXPECT_GT(Seen.deltaValidations(), 0u);
#endif
  return Shape;
}

/// \p Id unrolled \p Unroll times at \p Capacity slots per buffer, with
/// execution times 1-3 so states carry residuals and idle stretches.
SdspPn timedKernelNet(const std::string &Id, uint32_t Capacity,
                      uint32_t Unroll) {
  DiagnosticEngine Diags;
  auto G = compileLoop(findKernel(Id)->Source, Diags);
  EXPECT_TRUE(G.has_value()) << Id;
  SdspPn Pn = buildSdspPn(Sdsp::standard(unrollLoop(*G, Unroll), Capacity));
  for (TransitionId T : Pn.Net.transitionIds())
    Pn.Net.setExecTime(T, 1 + T.index() % 3);
  return Pn;
}

TEST(StateHash, UnitTimeRing) { checkHashedRun(buildRing(9, 2), 64); }

TEST(StateHash, RandomMarkedGraphs) {
  // Non-unit execution times exercise the busy-residual tail and the
  // finish ring; several seeds to vary the marking-word mutation
  // patterns (single-word nets and multi-word nets).
  for (uint64_t Seed : {1ull, 7ull, 23ull}) {
    Rng R(Seed);
    PetriNet Small = buildRandomMarkedGraph(R, 12, 3);
    checkHashedRun(Small, 96);
    PetriNet Large = buildRandomMarkedGraph(R, 90, 20); // >64 places
    checkHashedRun(Large, 96);
  }
}

TEST(StateHash, CapacityTwoSdspPn) {
  // Half the places hold two tokens: the counts go out as one plane,
  // and the busy section sits behind it.
  SdspPn Pn = timedKernelNet("l2", 2, 8);
  RunShape Shape = checkHashedRun(Pn.Net, 400);
  EXPECT_GT(Shape.DenseStates, 0u);
  EXPECT_GT(Shape.BusyStates, 0u);
}

TEST(StateHash, CapacityThreeSdspPn) {
  // Counts up to three need two planes.
  SdspPn Pn = timedKernelNet("loop9lcd", 3, 8);
  RunShape Shape = checkHashedRun(Pn.Net, 400);
  EXPECT_GT(Shape.DenseStates, 0u);
  EXPECT_GT(Shape.BusyStates, 0u);
}

TEST(StateHash, ScpNetUnderFifoPolicy) {
  // Two pipelines (a multi-token run place), six stages (dummies of
  // time 5, so l2's recurrence idles the machine between issues),
  // two-slot buffers: overflow, busy and fingerprint sections all
  // present, and idle stretches leapt through decrementResiduals.
  DiagnosticEngine Diags;
  auto G = compileLoop(findKernel("l2")->Source, Diags);
  ASSERT_TRUE(G.has_value());
  SdspPn Pn = buildSdspPn(Sdsp::standard(unrollLoop(*G, 2), 2));
  ScpPn Scp = buildScpPn(Pn, /*PipelineDepth=*/6, /*NumPipelines=*/2);
  auto Policy = Scp.makeFifoPolicy();
  auto TwinPolicy = Scp.makeFifoPolicy();
  RunShape Shape =
      checkHashedRun(Scp.Net, 600, Policy.get(), TwinPolicy.get());
  EXPECT_GT(Shape.DenseStates, 0u);
  EXPECT_GT(Shape.BusyStates, 0u);
  EXPECT_GT(Shape.LeaptBehindPlanes, 0u);
}

TEST(StateHash, HashedTableMatchesPlainTable) {
  // insertOrFindHashed(S, S.rawHash(), t) must behave exactly like
  // insertOrFind(S, t): same repeat detection, same stored times.
  Rng R(99);
  PetriNet Net = buildRandomMarkedGraph(R, 10, 2);
  EarliestFiringEngine A(Net), B(Net);
  PackedStateTable TA, TB;
  PackedState PA, PB;
  for (size_t I = 0; I < 200; ++I) {
    A.prepare();
    B.prepare();
    uint64_t Raw = A.packStateHashed(PA);
    B.packState(PB);
    std::optional<uint64_t> SeenA = TA.insertOrFindHashed(PA, Raw, A.now());
    std::optional<uint64_t> SeenB = TB.insertOrFind(PB, B.now());
    ASSERT_EQ(SeenA, SeenB) << "step " << I;
    if (SeenA)
      break; // both detected the repeat at the same step
    A.fireAndAdvance();
    B.fireAndAdvance();
  }
}

TEST(StateHash, MixWordIsPositionSensitive) {
  // The raw hash is a commutative XOR of per-(position, value) terms;
  // position keying is what stops two swapped words from colliding.
  EXPECT_NE(PackedState::mixWord(0, 5), PackedState::mixWord(1, 5));
  EXPECT_NE(PackedState::mixWord(0, 5) ^ PackedState::mixWord(1, 6),
            PackedState::mixWord(0, 6) ^ PackedState::mixWord(1, 5));
  EXPECT_NE(PackedState::mixWord(3, 0), 0u);
}

} // namespace
