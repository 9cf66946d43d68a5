//===- tests/FrustumTest.cpp - Cyclic frustum detection tests --------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "core/Frustum.h"

#include "TestUtil.h"
#include "core/RateAnalysis.h"
#include "core/ScpModel.h"
#include "core/SdspPn.h"
#include "dataflow/Unroll.h"
#include "livermore/Livermore.h"
#include "loopir/Lowering.h"
#include "support/FaultInjection.h"
#include "support/Metrics.h"
#include "gtest/gtest.h"

#include <chrono>

using namespace sdsp;
using namespace sdsp::testutil;

namespace {

TEST(Frustum, RingReachesSteadyStateImmediately) {
  // A 1-token ring is periodic from the start: frustum length n, each
  // transition once.
  PetriNet Ring = buildRing(4, 1);
  auto F = detectFrustum(Ring);
  ASSERT_TRUE(F.has_value());
  EXPECT_EQ(F->length(), 4u);
  for (TransitionId T : Ring.transitionIds())
    EXPECT_EQ(F->transitionCount(T), 1u);
  EXPECT_EQ(F->computationRate(TransitionId(0u)), Rational(1, 4));
}

TEST(Frustum, L1MatchesOptimalRate) {
  // L1 under one-token-per-arc static dataflow runs at the pair-cycle
  // rate 1/2 (Figure 1's schedule repeats every 2 cycles).
  SdspPn Pn = buildSdspPn(Sdsp::standard(buildL1()));
  auto F = detectFrustum(Pn.Net);
  ASSERT_TRUE(F.has_value());
  RateReport Rate = analyzeRate(Pn);
  EXPECT_EQ(Rate.OptimalRate, Rational(1, 2));
  for (TransitionId T : Pn.Net.transitionIds())
    EXPECT_EQ(F->computationRate(T), Rate.OptimalRate);
  EXPECT_TRUE(F->hasUniformCount(Pn.Net.transitionIds()));
  // Paper Table 1 claim: the repeated state appears within 2n steps.
  EXPECT_LE(F->RepeatTime, boundBdSdspPn(Pn.Net.numTransitions()));
}

TEST(Frustum, L2MatchesCriticalCycleRate) {
  // Figure 2 / Section 6: L2's critical cycle is C-D-E-C with rate 1/3.
  SdspPn Pn = buildSdspPn(Sdsp::standard(buildL2Direct()));
  RateReport Rate = analyzeRate(Pn);
  EXPECT_EQ(Rate.OptimalRate, Rational(1, 3));
  auto F = detectFrustum(Pn.Net);
  ASSERT_TRUE(F.has_value());
  for (TransitionId T : Pn.Net.transitionIds())
    EXPECT_EQ(F->computationRate(T), Rational(1, 3));
  EXPECT_LE(F->RepeatTime, boundBdSdspPn(Pn.Net.numTransitions()));
}

uint64_t counterOf(const std::string &Name) {
  for (const auto &[N, V] : MetricsRegistry::global().snapshot().Counters)
    if (N == Name)
      return V;
  return 0;
}

TEST(Frustum, MultiTokenStatesCostAboutTheirMarking) {
  // Capacity 2 puts two tokens on about half the places of an unrolled
  // loop.  Packed as one count plane, a state costs about twice its
  // marking; one sparse word per two-token place made it 30 times as
  // much (394.7 against 14.0 arena words per state on l2 x64).
  DiagnosticEngine Diags;
  auto G = compileLoop(findKernel("l2")->Source, Diags);
  ASSERT_TRUE(G.has_value());
  DataflowGraph Body = unrollLoop(*G, 64);
  double WordsPerState[2] = {0, 0};
  for (uint32_t Capacity : {1u, 2u}) {
    SdspPn Pn = buildSdspPn(Sdsp::standard(Body, Capacity));
    uint64_t Words = counterOf("packedstate.arena_words");
    uint64_t States = counterOf("packedstate.states_interned");
    ASSERT_TRUE(detectFrustumChecked(Pn.Net).ok()) << "capacity " << Capacity;
    Words = counterOf("packedstate.arena_words") - Words;
    States = counterOf("packedstate.states_interned") - States;
    ASSERT_GT(Words, 0u) << "capacity " << Capacity;
    ASSERT_GT(States, 0u) << "capacity " << Capacity;
    WordsPerState[Capacity - 1] = static_cast<double>(Words) / States;
  }
  EXPECT_LE(WordsPerState[1], 2.5 * WordsPerState[0])
      << WordsPerState[1] << " vs " << WordsPerState[0];
}

TEST(Frustum, StateTableCostsWhatChanges) {
  // One token around a ring of 4,096 stages: an instant moves one token,
  // so its logged state is a header, a tail word and one or two changed
  // marking words, not the 65 words of the whole state, plus a keyframe
  // whenever the changes since the last one outgrow a whole state.
  PetriNet Ring = buildRing(4096, 1);
  uint64_t Words = counterOf("packedstate.arena_words");
  uint64_t States = counterOf("packedstate.states_interned");
  ASSERT_TRUE(detectFrustumChecked(Ring).ok());
  Words = counterOf("packedstate.arena_words") - Words;
  States = counterOf("packedstate.states_interned") - States;
  EXPECT_EQ(States, 4096u);
  EXPECT_LE(Words, 8 * States) << Words << " words for " << States;
}

TEST(Frustum, ByteBoundFailsBeforePassingItTheSameWayEveryRun) {
  // A bound far below what two searches need, set through the API: the
  // SCP machine on loop7 x16 under its FIFO policy, and a one-token
  // ring of 4,096 stages.  Each fails with BudgetExceeded naming the
  // bound and the instant, identically on every run; without the bound
  // both succeed.
  EXPECT_EQ(FrustumBudget{}.resolveBytes(), FrustumBudget::DefaultMaxBytes);
  DiagnosticEngine Diags;
  auto G = compileLoop(findKernel("loop7")->Source, Diags);
  ASSERT_TRUE(G.has_value());
  SdspPn Pn = buildSdspPn(Sdsp::standard(unrollLoop(*G, 16)));
  ScpPn Scp = buildScpPn(Pn, /*PipelineDepth=*/2);
  PetriNet Ring = buildRing(4096, 1);
  FrustumBudget Small;
  Small.MaxBytes = 16 * 1024;
  for (bool OnScp : {true, false}) {
    const PetriNet &Net = OnScp ? Scp.Net : Ring;
    std::vector<std::string> Failures;
    for (int Run = 0; Run < 3; ++Run) {
      std::unique_ptr<FifoPolicy> Policy =
          OnScp ? Scp.makeFifoPolicy() : nullptr;
      Expected<FrustumInfo> F = detectFrustumChecked(Net, Policy.get(), Small);
      ASSERT_FALSE(F) << (OnScp ? "scp" : "ring");
      EXPECT_EQ(F.status().code(), ErrorCode::BudgetExceeded);
      Failures.push_back(F.status().str());
    }
    EXPECT_NE(Failures[0].find("would pass the byte bound of 16384 bytes at "
                               "t="),
              std::string::npos)
        << Failures[0];
    EXPECT_EQ(Failures[1], Failures[0]);
    EXPECT_EQ(Failures[2], Failures[0]);
    std::unique_ptr<FifoPolicy> Policy = OnScp ? Scp.makeFifoPolicy() : nullptr;
    EXPECT_TRUE(detectFrustumChecked(Net, Policy.get()).ok());
  }
}

TEST(Frustum, TraceCoversPrefixAndCounts) {
  SdspPn Pn = buildSdspPn(Sdsp::standard(buildL2Direct()));
  auto F = detectFrustum(Pn.Net);
  ASSERT_TRUE(F.has_value());
  EXPECT_EQ(F->Trace.size(), F->RepeatTime);
  // Counts only cover [StartTime, RepeatTime).
  std::vector<uint32_t> Recount(Pn.Net.numTransitions(), 0);
  for (StepView Rec : F->Trace)
    if (Rec.Time >= F->StartTime)
      for (TransitionId T : Rec.Fired)
        ++Recount[T.index()];
  EXPECT_EQ(Recount, F->FiringCounts);
}

TEST(Frustum, DeadNetReturnsNothing) {
  PetriNetBuilder NB;
  TransitionId A = NB.addTransition("a");
  PlaceId P = NB.addPlace("p", 0);
  NB.addArc(P, A);
  NB.addArc(A, P);
  PetriNet Net = NB.build();
  EXPECT_FALSE(detectFrustum(Net).has_value());
}

TEST(Frustum, SingleTransitionNoPlaces) {
  // Livermore loop 12's shape: one operation, no interior arcs; the
  // non-reentrancy self-loop caps the rate at 1.
  PetriNetBuilder NB;
  NB.addTransition("sub");
  PetriNet Net = NB.build();
  auto F = detectFrustum(Net);
  ASSERT_TRUE(F.has_value());
  EXPECT_EQ(F->computationRate(TransitionId(0u)), Rational(1));
}

TEST(Frustum, ExecTimesStretchThePeriod) {
  // 2-ring with times 3 and 4: cycle time 7 with one token.
  PetriNetBuilder NB;
  TransitionId A = NB.addTransition("a", 3);
  TransitionId B = NB.addTransition("b", 4);
  PlaceId P1 = NB.addPlace("p1", 1);
  PlaceId P2 = NB.addPlace("p2", 0);
  NB.addArc(A, P1);
  NB.addArc(P1, B);
  NB.addArc(B, P2);
  NB.addArc(P2, A);
  PetriNet Net = NB.build();
  auto F = detectFrustum(Net);
  ASSERT_TRUE(F.has_value());
  EXPECT_EQ(F->computationRate(A), Rational(1, 7));
  EXPECT_EQ(F->computationRate(B), Rational(1, 7));
}

TEST(Frustum, TimeoutReturnsNothing) {
  SdspPn Pn = buildSdspPn(Sdsp::standard(buildL2Direct()));
  EXPECT_FALSE(detectFrustum(Pn.Net, nullptr, /*MaxSteps=*/1).has_value());
}

TEST(Frustum, BudgetResolveBoundaries) {
  // Defaulted budget: max(1024, n^3), saturating at Cap so the search
  // loop's step arithmetic can never overflow.
  EXPECT_EQ(FrustumBudget{}.resolve(0), 1024u);
  EXPECT_EQ(FrustumBudget{}.resolve(1), 1024u);
  EXPECT_EQ(FrustumBudget{}.resolve(10), 1024u);
  EXPECT_EQ(FrustumBudget{}.resolve(11), 1331u);
  EXPECT_EQ(FrustumBudget{}.resolve(2048), 2048ull * 2048 * 2048);
  // n = 2^22: n^3 = 2^66 overflows 64 bits; must saturate at Cap, not
  // wrap around to a tiny budget.
  EXPECT_EQ(FrustumBudget{}.resolve(size_t(1) << 22), FrustumBudget::Cap);
  // Explicit budgets pass through unclamped below Cap (no 1024 floor)
  // and clamp to Cap above it.
  EXPECT_EQ(FrustumBudget::steps(1).resolve(1 << 22), 1u);
  EXPECT_EQ(FrustumBudget::steps(FrustumBudget::Cap - 1).resolve(3),
            FrustumBudget::Cap - 1);
  EXPECT_EQ(FrustumBudget::steps(~TimeStep(0)).resolve(3),
            FrustumBudget::Cap);
}

//===----------------------------------------------------------------------===//
// Cancellation, deadlines, and fault sites (docs/ROBUSTNESS.md).  All
// deadline cases use pre-expired (0 ms) or manually-cancelled sources —
// nothing here races the wall clock.
//===----------------------------------------------------------------------===//

TEST(Frustum, CancelledTokenStopsTheSearchWithPartialTrace) {
  SdspPn Pn = buildSdspPn(Sdsp::standard(buildL2Direct()));
  CancelSource Src;
  Src.cancel();
  Expected<FrustumInfo> F =
      detectFrustumChecked(Pn.Net, nullptr, {}, Src.token());
  ASSERT_FALSE(F);
  EXPECT_EQ(F.status().code(), ErrorCode::Cancelled);
  EXPECT_EQ(F.status().stage(), "frustum");
  // The same partial-trace context BudgetExceeded carries.
  EXPECT_NE(F.status().str().find("simulated to t="), std::string::npos);
}

TEST(Frustum, ExpiredDeadlineReportsDeadlineExceeded) {
  SdspPn Pn = buildSdspPn(Sdsp::standard(buildL2Direct()));
  CancelToken Expired =
      CancelSource::withDeadline(std::chrono::milliseconds(0)).token();
  Expected<FrustumInfo> F =
      detectFrustumChecked(Pn.Net, nullptr, {}, Expired);
  ASSERT_FALSE(F);
  EXPECT_EQ(F.status().code(), ErrorCode::DeadlineExceeded);
  EXPECT_NE(F.status().str().find("deadline exceeded"), std::string::npos);
}

TEST(Frustum, LiveTokenDoesNotPerturbTheSearch) {
  SdspPn Pn = buildSdspPn(Sdsp::standard(buildL2Direct()));
  auto Plain = detectFrustumChecked(Pn.Net);
  CancelSource Src; // Never cancelled.
  auto Polled = detectFrustumChecked(Pn.Net, nullptr, {}, Src.token());
  ASSERT_TRUE(Plain);
  ASSERT_TRUE(Polled);
  EXPECT_EQ(Polled->StartTime, Plain->StartTime);
  EXPECT_EQ(Polled->RepeatTime, Plain->RepeatTime);
  EXPECT_EQ(Polled->FiringCounts, Plain->FiringCounts);
}

/// Cancels its CancelSource on the Nth prepare, giving the boundary
/// test a deterministic in-search cancellation instant (the wall clock
/// never decides).  Keeps index order and an empty fingerprint, so the
/// search itself is the default policy's.
class CancelOnNthPrepare : public FiringPolicy {
public:
  CancelOnNthPrepare(CancelSource &Src, unsigned N) : Src(Src), Left(N) {}
  void reset() override {}
  void orderCandidates(const PetriNet &, const Marking &,
                       const std::vector<TransitionId> &,
                       std::vector<TransitionId> &) override {
    if (Left && --Left == 0)
      Src.cancel();
  }
  void noteFired(TransitionId) override {}
  std::vector<uint32_t> stateFingerprint() const override { return {}; }

private:
  CancelSource &Src;
  unsigned Left;
};

TEST(Frustum, BudgetWinsAtTheBudgetInstantEvenWhenCancelled) {
  // The ordering contract: within one sampled instant the budget check
  // precedes the cancellation poll.  The policy cancels during instant
  // 1, so instant 2 is the first that can report either failure: with
  // a budget of 1 exhausted there, BudgetExceeded wins; with one more
  // step of budget the poll reports the cancellation instead.
  PetriNet Ring = buildRing(4, 1);
  {
    CancelSource Src;
    CancelOnNthPrepare Policy(Src, 2);
    Expected<FrustumInfo> F = detectFrustumChecked(
        Ring, &Policy, FrustumBudget::steps(1), Src.token());
    ASSERT_FALSE(F);
    EXPECT_EQ(F.status().code(), ErrorCode::BudgetExceeded);
  }
  {
    CancelSource Src;
    CancelOnNthPrepare Policy(Src, 2);
    Expected<FrustumInfo> F = detectFrustumChecked(
        Ring, &Policy, FrustumBudget::steps(2), Src.token());
    ASSERT_FALSE(F);
    EXPECT_EQ(F.status().code(), ErrorCode::Cancelled);
  }
}

TEST(Frustum, DeadlineWinsWhileBudgetRemains) {
  // Budget far beyond the net's repeat horizon never trips; the expired
  // deadline is what stops the search.
  SdspPn Pn = buildSdspPn(Sdsp::standard(buildL2Direct()));
  CancelToken Expired =
      CancelSource::withDeadline(std::chrono::milliseconds(0)).token();
  Expected<FrustumInfo> F = detectFrustumChecked(
      Pn.Net, nullptr, FrustumBudget::steps(1u << 20), Expired);
  ASSERT_FALSE(F);
  EXPECT_EQ(F.status().code(), ErrorCode::DeadlineExceeded);
}

TEST(Frustum, ReferenceEngineFailsIdentically) {
  // Both engines share the per-instant cadence and ordering, so the
  // golden-equivalence property extends to cancellation failures.
  SdspPn Pn = buildSdspPn(Sdsp::standard(buildL2Direct()));
  CancelSource Src;
  Src.cancel();
  Expected<FrustumInfo> Fast =
      detectFrustumChecked(Pn.Net, nullptr, {}, Src.token());
  Expected<FrustumInfo> Ref =
      detectFrustumReference(Pn.Net, nullptr, {}, Src.token());
  ASSERT_FALSE(Fast);
  ASSERT_FALSE(Ref);
  EXPECT_EQ(Fast.status().code(), Ref.status().code());
  EXPECT_EQ(Fast.status().str(), Ref.status().str());
}

TEST(Frustum, StepFaultSiteFiresAtTheExactArrival) {
  SdspPn Pn = buildSdspPn(Sdsp::standard(buildL2Direct()));
  Expected<FaultSchedule> Sched = FaultSchedule::parse("frustum:step:fail@5");
  ASSERT_TRUE(Sched);
  FaultContext Ctx(&*Sched, "test");
  Expected<FrustumInfo> F =
      detectFrustumChecked(Pn.Net, nullptr, {}, {}, &Ctx);
  ASSERT_FALSE(F);
  EXPECT_EQ(F.status().code(), ErrorCode::TransientFault);
  EXPECT_EQ(Ctx.arrivals("frustum:step"), 5u);
  EXPECT_EQ(Ctx.fired(), 1u);

  // A context whose trigger already fired lets the search complete;
  // the fault-free result is unchanged.
  Expected<FrustumInfo> Retry =
      detectFrustumChecked(Pn.Net, nullptr, {}, {}, &Ctx);
  ASSERT_TRUE(Retry) << Retry.status().str();
  auto Plain = detectFrustumChecked(Pn.Net);
  ASSERT_TRUE(Plain);
  EXPECT_EQ(Retry->RepeatTime, Plain->RepeatTime);
  EXPECT_EQ(Ctx.fired(), 1u);
}

TEST(Frustum, EarliestFiringAchievesOptimalRateOnRandomNets) {
  // Theorem 4.1.1's payoff, checked empirically: the frustum rate
  // equals 1/alpha* on random SDSP-PNs.
  Rng R(99);
  for (int Trial = 0; Trial < 15; ++Trial) {
    DataflowGraph G = buildRandomLoopGraph(R, 3 + Trial % 7, 20);
    SdspPn Pn = buildSdspPn(Sdsp::standard(G));
    RateReport Rate = analyzeRate(Pn);
    auto F = detectFrustum(Pn.Net);
    ASSERT_TRUE(F.has_value()) << "trial " << Trial;
    for (TransitionId T : Pn.Net.transitionIds())
      EXPECT_EQ(F->computationRate(T), Rate.OptimalRate)
          << "trial " << Trial;
  }
}

} // namespace
