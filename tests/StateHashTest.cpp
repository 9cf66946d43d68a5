//===- tests/StateHashTest.cpp - Incremental state-hash validation ---------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The frustum detector's state table (PackedStateTable) must tell
/// instantaneous states apart exactly, on every net shape the engine
/// special-cases (unit-time all-fast, ring scheduling, multi-token
/// buffers kept as count planes, a policy's machine condition), whether
/// a state is logged from a stepped instant (logState()) or synthesized
/// for a leapt, idle one (logLeaptState()): the table must find a
/// repeat exactly when an oracle over the engine's InstantaneousState
/// (state(), the form detectFrustumReference hashes) does, at the same
/// earlier instant.  Debug builds additionally check the table's
/// differenced hash against a rehash on every commit.
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

#include <algorithm>
#include <optional>
#include <unordered_map>

using namespace sdsp;
using namespace sdsp::testutil;

namespace {

/// What a hashed run went through (anti-vacuity for the callers).
struct RunShape {
  /// States with some place holding two or more tokens.
  size_t MultiTokenStates = 0;
  /// States with some transition in flight.
  size_t BusyStates = 0;
  /// Leapt instants with some place holding two or more tokens.
  size_t LeaptMultiToken = 0;
};

/// The table's commit as the frustum detector makes it: a policy with a
/// summary confirms a match of the logged words.  Rejected matches are
/// counted in \p FalseMatches; with the whole summary in the tail there
/// should be none.
std::optional<uint64_t> commitConfirmed(PackedStateTable &Seen, TimeStep T,
                                        const FiringPolicy *Policy,
                                        size_t &FalseMatches) {
  return Seen.commit(T, [&](uint64_t Then) {
    if (!Policy || Policy->sameConditionAt(Then))
      return true;
    ++FalseMatches;
    return false;
  });
}

/// Runs \p Steps engine steps, logging each instant into a
/// PackedStateTable through logState() and walking idle stretches one
/// instant at a time through logLeaptState() (the frustum detector's
/// time leap).  A twin engine steps every instant without leaping; its
/// states (state()) are the oracle: the table must find a repeat exactly
/// when the twin's states repeat, at the same earlier instant, and the
/// engine's own states must equal the twin's.  \p Policy and
/// \p TwinPolicy are two instances of the same policy, or both null.
RunShape checkLeaptRun(const PetriNet &Net, size_t Steps,
                       FiringPolicy *Policy = nullptr,
                       FiringPolicy *TwinPolicy = nullptr) {
  EarliestFiringEngine Engine(Net, Policy);
  EarliestFiringEngine Twin(Net, TwinPolicy);
  PackedStateTable Seen;
  std::unordered_map<InstantaneousState, TimeStep> Oracle;
  size_t FalseMatches = 0;
  RunShape Shape;
  // Commits the table's open state of instant T and checks it against
  // the twin's state there; returns that state.
  auto Commit = [&](TimeStep T) {
    Twin.prepare();
    InstantaneousState TwinState = Twin.state();
    EXPECT_EQ(Twin.now(), T);
    Shape.MultiTokenStates += !TwinState.M.allSafe();
    Shape.BusyStates += std::ranges::any_of(
        TwinState.Residual, [](TimeUnits R) { return R != 0; });
    std::optional<uint64_t> Got =
        commitConfirmed(Seen, T, Policy, FalseMatches);
    auto [It, Fresh] = Oracle.emplace(TwinState, T);
    EXPECT_EQ(Got.has_value(), !Fresh) << "t=" << T;
    if (Got && !Fresh) {
      EXPECT_EQ(*Got, It->second) << "t=" << T;
    }
    Twin.fireAndAdvance();
    return TwinState;
  };
  for (size_t I = 0; I < Steps; ++I) {
    Engine.prepare();
    Engine.logState(Seen);
    EXPECT_TRUE(Engine.state() == Commit(Engine.now()))
        << "state diverged at t=" << Engine.now();
    if (Engine.isQuiescent())
      break; // dead net; nothing further to validate
    StepRecord Rec = Engine.fireAndAdvance();
    if (!Rec.Completed.empty() || !Rec.Fired.empty())
      continue;
    // Idle stretch: log each leapt instant from the engine between
    // steps, as the frustum detector does.
    std::optional<TimeStep> Next = Engine.nextFinishTime();
    EXPECT_TRUE(Next.has_value());
    if (!Next)
      break;
    for (TimeStep V = Engine.now(); V < *Next; ++V) {
      Engine.logLeaptState(Seen, V);
      Shape.LeaptMultiToken += !Commit(V).M.allSafe();
    }
    Engine.leapTo(*Next);
  }
  EXPECT_EQ(FalseMatches, 0u);
#ifndef NDEBUG
  // Debug builds validate every commit's hash against a full rehash;
  // the counter proves the validation path actually ran.
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

/// Steps \p Net through \p Steps instants, logging each through
/// logState() into a PackedStateTable, and checks every commit against
/// an exact oracle: a map from the engine's states (state()) to their
/// first instant.  The table must find a repeat exactly when the oracle
/// does, at the same earlier instant, and keep telling states apart
/// after one.  Returns the table's keyframe count.
size_t checkLoggedRun(const PetriNet &Net, size_t Steps,
                      FiringPolicy *Policy = nullptr) {
  EarliestFiringEngine Engine(Net, Policy);
  PackedStateTable Seen;
  std::unordered_map<InstantaneousState, TimeStep> Oracle;
  size_t FalseMatches = 0;
  for (size_t I = 0; I < Steps; ++I) {
    Engine.prepare();
    Engine.logState(Seen);
    std::optional<uint64_t> Got =
        commitConfirmed(Seen, Engine.now(), Policy, FalseMatches);
    auto [It, Fresh] = Oracle.emplace(Engine.state(), Engine.now());
    EXPECT_EQ(Got.has_value(), !Fresh) << "t=" << Engine.now();
    if (Got && !Fresh) {
      EXPECT_EQ(*Got, It->second) << "t=" << Engine.now();
    }
    if (Engine.isQuiescent())
      break;
    Engine.fireAndAdvance();
  }
  EXPECT_EQ(FalseMatches, 0u);
  return Seen.keyframes();
}

TEST(StateHash, LoggedStatesMatchAnExactOracle) {
  // A sparse ring (deltas between keyframes), unit and timed SDSP-PNs
  // whose counts grow count planes mid-run, random multi-word marked
  // graphs, and the SCP machine under its FIFO policy (busy and
  // machine-condition tails), each run well past its first repeat.
  EXPECT_GT(checkLoggedRun(buildRing(200, 1), 450), 1u);
  checkLoggedRun(buildRing(9, 2), 64);
  checkLoggedRun(timedKernelNet("l2", 2, 8).Net, 400);
  checkLoggedRun(timedKernelNet("loop9lcd", 3, 8).Net, 400);
  for (uint64_t Seed : {3ull, 11ull}) {
    Rng R(Seed);
    checkLoggedRun(buildRandomMarkedGraph(R, 90, 20), 200);
  }
  DiagnosticEngine Diags;
  auto G = compileLoop(findKernel("l2")->Source, Diags);
  ASSERT_TRUE(G.has_value());
  SdspPn Pn = buildSdspPn(Sdsp::standard(unrollLoop(*G, 2), 2));
  ScpPn Scp = buildScpPn(Pn, /*PipelineDepth=*/6, /*NumPipelines=*/2);
  auto Policy = Scp.makeFifoPolicy();
  checkLoggedRun(Scp.Net, 600, Policy.get());
}

TEST(StateHash, UnitTimeRing) { checkLeaptRun(buildRing(9, 2), 64); }

TEST(StateHash, RandomMarkedGraphs) {
  // Non-unit execution times exercise the busy-residual tail and the
  // finish ring; several seeds to vary the marking-word mutation
  // patterns (single-word nets and multi-word nets).
  for (uint64_t Seed : {1ull, 7ull, 23ull}) {
    Rng R(Seed);
    PetriNet Small = buildRandomMarkedGraph(R, 12, 3);
    checkLeaptRun(Small, 96);
    PetriNet Large = buildRandomMarkedGraph(R, 90, 20); // >64 places
    checkLeaptRun(Large, 96);
  }
}

TEST(StateHash, CapacityTwoSdspPn) {
  // Half the places hold two tokens: the counts are logged as one
  // plane, and the busy entries go in the tail.
  SdspPn Pn = timedKernelNet("l2", 2, 8);
  RunShape Shape = checkLeaptRun(Pn.Net, 400);
  EXPECT_GT(Shape.MultiTokenStates, 0u);
  EXPECT_GT(Shape.BusyStates, 0u);
}

TEST(StateHash, CapacityThreeSdspPn) {
  // Counts up to three need two planes.
  SdspPn Pn = timedKernelNet("loop9lcd", 3, 8);
  RunShape Shape = checkLeaptRun(Pn.Net, 400);
  EXPECT_GT(Shape.MultiTokenStates, 0u);
  EXPECT_GT(Shape.BusyStates, 0u);
}

TEST(StateHash, ScpNetUnderFifoPolicy) {
  // Two pipelines (a multi-token run place), six stages (dummies of
  // time 5, so l2's recurrence idles the machine between issues),
  // two-slot buffers: count planes, busy entries and the machine
  // condition all present, and idle stretches leapt through
  // logLeaptState().
  DiagnosticEngine Diags;
  auto G = compileLoop(findKernel("l2")->Source, Diags);
  ASSERT_TRUE(G.has_value());
  SdspPn Pn = buildSdspPn(Sdsp::standard(unrollLoop(*G, 2), 2));
  ScpPn Scp = buildScpPn(Pn, /*PipelineDepth=*/6, /*NumPipelines=*/2);
  auto Policy = Scp.makeFifoPolicy();
  auto TwinPolicy = Scp.makeFifoPolicy();
  RunShape Shape =
      checkLeaptRun(Scp.Net, 600, Policy.get(), TwinPolicy.get());
  EXPECT_GT(Shape.MultiTokenStates, 0u);
  EXPECT_GT(Shape.BusyStates, 0u);
  EXPECT_GT(Shape.LeaptMultiToken, 0u);
}

TEST(StateHash, MixWordIsPositionSensitive) {
  // The raw hash is a commutative XOR of per-(position, value) terms;
  // position keying is what stops two swapped words from colliding.
  EXPECT_NE(PackedStateTable::mixWord(0, 5), PackedStateTable::mixWord(1, 5));
  EXPECT_NE(PackedStateTable::mixWord(0, 5) ^ PackedStateTable::mixWord(1, 6),
            PackedStateTable::mixWord(0, 6) ^ PackedStateTable::mixWord(1, 5));
  EXPECT_NE(PackedStateTable::mixWord(3, 0), 0u);
}

} // namespace
