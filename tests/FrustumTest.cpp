//===- tests/FrustumTest.cpp - Cyclic frustum detection tests --------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "core/Frustum.h"

#include "TestUtil.h"
#include "core/RateAnalysis.h"
#include "core/SdspPn.h"
#include "support/FaultInjection.h"
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

TEST(Frustum, TraceCoversPrefixAndCounts) {
  SdspPn Pn = buildSdspPn(Sdsp::standard(buildL2Direct()));
  auto F = detectFrustum(Pn.Net);
  ASSERT_TRUE(F.has_value());
  EXPECT_EQ(F->Trace.size(), F->RepeatTime);
  // Counts only cover [StartTime, RepeatTime).
  std::vector<uint32_t> Recount(Pn.Net.numTransitions(), 0);
  for (const StepRecord &Rec : F->Trace)
    if (Rec.Time >= F->StartTime)
      for (TransitionId T : Rec.Fired)
        ++Recount[T.index()];
  EXPECT_EQ(Recount, F->FiringCounts);
}

TEST(Frustum, DeadNetReturnsNothing) {
  PetriNet Net;
  TransitionId A = Net.addTransition("a");
  PlaceId P = Net.addPlace("p", 0);
  Net.addArc(P, A);
  Net.addArc(A, P);
  EXPECT_FALSE(detectFrustum(Net).has_value());
}

TEST(Frustum, SingleTransitionNoPlaces) {
  // Livermore loop 12's shape: one operation, no interior arcs; the
  // non-reentrancy self-loop caps the rate at 1.
  PetriNet Net;
  Net.addTransition("sub");
  auto F = detectFrustum(Net);
  ASSERT_TRUE(F.has_value());
  EXPECT_EQ(F->computationRate(TransitionId(0u)), Rational(1));
}

TEST(Frustum, ExecTimesStretchThePeriod) {
  // 2-ring with times 3 and 4: cycle time 7 with one token.
  PetriNet Net;
  TransitionId A = Net.addTransition("a", 3);
  TransitionId B = Net.addTransition("b", 4);
  PlaceId P1 = Net.addPlace("p1", 1);
  PlaceId P2 = Net.addPlace("p2", 0);
  Net.addArc(A, P1);
  Net.addArc(P1, B);
  Net.addArc(B, P2);
  Net.addArc(P2, A);
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
