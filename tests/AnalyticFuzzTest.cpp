//===- tests/AnalyticFuzzTest.cpp - Analytic engine vs simulator oracles ---===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
//
// The analytic frustum engine (petri/AnalyticSteadyState.h) constructs
// the frustum window from the max-plus round recurrence instead of
// simulating instant by instant.  Its contract is the same as the fast
// engine's: byte-identical FrustumInfo — boundaries, repeated state,
// per-instant trace, firing counts — and identical diagnostics when the
// detection fails.  This suite pins detectFrustumAnalytic against BOTH
// simulators (detectFrustumChecked and the naive detectFrustumReference)
// on a 200-net fuzz family, and guards against the equivalence becoming
// vacuous: a minimum number of nets must actually take the analytic
// path rather than falling back to simulation.
//
// It also pins the budget boundary semantics (the satellite of this
// change): budgets straddling the repeat instant and tiny budgets of a
// few steps must produce identical success-or-BudgetExceeded outcomes,
// including the diagnostic text, from all three engines.
//
//===----------------------------------------------------------------------===//

#include "core/Frustum.h"

#include "TestUtil.h"
#include "core/ScpModel.h"
#include "core/Sdsp.h"
#include "core/SdspPn.h"
#include "livermore/Livermore.h"
#include "loopir/Lowering.h"
#include "gtest/gtest.h"

using namespace sdsp;
using namespace sdsp::testutil;

namespace {

/// Asserts the analytic detector agrees byte for byte with a simulator
/// result: identical FrustumInfo on success, identical status code and
/// message on failure.
void expectSameResult(const Expected<FrustumInfo> &Ana,
                      const Expected<FrustumInfo> &Sim,
                      const std::string &Label) {
  ASSERT_EQ(Ana.ok(), Sim.ok()) << Label;
  if (!Ana) {
    EXPECT_EQ(Ana.status().code(), Sim.status().code()) << Label;
    EXPECT_EQ(Ana.status().message(), Sim.status().message()) << Label;
    return;
  }
  EXPECT_EQ(Ana->StartTime, Sim->StartTime) << Label;
  EXPECT_EQ(Ana->RepeatTime, Sim->RepeatTime) << Label;
  EXPECT_TRUE(Ana->State == Sim->State) << Label;
  EXPECT_EQ(Ana->FiringCounts, Sim->FiringCounts) << Label;
  ASSERT_EQ(Ana->Trace.size(), Sim->Trace.size()) << Label;
  for (size_t I = 0; I < Ana->Trace.size(); ++I) {
    StepView A = Ana->Trace[I];
    StepView B = Sim->Trace[I];
    EXPECT_EQ(A.Time, B.Time) << Label << " step " << I;
    EXPECT_EQ(idList(A.Completed), idList(B.Completed))
        << Label << " step " << I;
    EXPECT_EQ(idList(A.Fired), idList(B.Fired)) << Label << " step " << I;
  }
}

/// Runs all three engines on \p Net under \p Budget and asserts full
/// agreement.  Returns true when the analytic path actually ran (no
/// fallback), so callers can enforce an anti-vacuity floor.
bool expectAnalyticGolden(const PetriNet &Net, FrustumBudget Budget,
                          const std::string &Label) {
  std::string Reason;
  Expected<FrustumInfo> Ana =
      detectFrustumAnalytic(Net, nullptr, Budget, {}, nullptr, &Reason);
  Expected<FrustumInfo> Fast = detectFrustumChecked(Net, nullptr, Budget);
  Expected<FrustumInfo> Ref = detectFrustumReference(Net, nullptr, Budget);
  expectSameResult(Ana, Fast, Label + "/vs-fast");
  expectSameResult(Ana, Ref, Label + "/vs-reference");
  return Reason.empty();
}

/// The fuzz family: every fifth net is a ring (token count 1-3, so the
/// multi-token ones exercise the not-1-bounded fallback), the rest are
/// random live safe marked graphs with chords (whose tied cycle ratios
/// exercise the multiple-critical-cycles fallback).
PetriNet fuzzNet(Rng &R, int Case) {
  if (Case % 5 == 0)
    return buildRing(static_cast<size_t>(3 + Case % 7),
                     static_cast<uint32_t>(1 + Case % 3));
  return buildRandomMarkedGraph(R, static_cast<size_t>(3 + Case % 10),
                                static_cast<size_t>(Case % 5));
}

TEST(AnalyticFuzz, FuzzFamilyByteIdentical) {
  Rng R(0xa11a'11cull);
  int AnalyticRuns = 0;
  for (int Case = 0; Case < 200; ++Case) {
    PetriNet Net = fuzzNet(R, Case);
    if (expectAnalyticGolden(Net, FrustumBudget{},
                             "analytic-fuzz-" + std::to_string(Case)))
      ++AnalyticRuns;
  }
  // Anti-vacuity: the equivalence above proves nothing if every net
  // fell back to the simulator.  The family is built so a substantial
  // fraction qualifies (single-token rings always do); a collapse here
  // means the qualification bar broke, not the family.
  EXPECT_GE(AnalyticRuns, 60)
      << "too few nets took the analytic path; the byte-identity sweep "
         "is no longer testing the analytic engine";
}

TEST(AnalyticFuzz, BudgetBoundariesByteIdentical) {
  // Satellite: budgets pinched around the repeat instant.  A budget of
  // RepeatTime steps must fail (the detection needs instants
  // 0..RepeatTime inclusive); RepeatTime + 1 and beyond must succeed;
  // and the BudgetExceeded diagnostic (instants simulated, firings
  // observed) must be identical across all three engines at every
  // boundary.  Tiny budgets (1-3) pin the short-window accounting.
  Rng R(0xb0d9'e7ull);
  int AnalyticRuns = 0;
  for (int Case = 0; Case < 24; ++Case) {
    PetriNet Net = fuzzNet(R, Case);
    std::string Label = "analytic-budget-" + std::to_string(Case);
    Expected<FrustumInfo> Full = detectFrustumReference(Net);
    ASSERT_TRUE(Full.ok()) << Label;
    TimeStep Rep = Full->RepeatTime;
    for (TimeStep B = Rep > 3 ? Rep - 3 : 1; B <= Rep + 2; ++B)
      if (expectAnalyticGolden(Net, FrustumBudget::steps(B),
                               Label + "/steps-" + std::to_string(B)))
        ++AnalyticRuns;
    for (TimeStep B = 1; B <= 3; ++B)
      if (expectAnalyticGolden(Net, FrustumBudget::steps(B),
                               Label + "/tiny-" + std::to_string(B)))
        ++AnalyticRuns;
  }
  EXPECT_GE(AnalyticRuns, 30) << "budget sweep no longer reaches the "
                                 "analytic path";
}

TEST(AnalyticFuzz, EveryEngineSharesTheSameTraceRows) {
  // A trace stores a row's completions once when they equal the
  // previous row's firings, decided by the rows alone: the analytic
  // engine, the fast and reference simulators and a row-by-row copy
  // (the codec's decode) build the same arrays and so report the same
  // sizeBytes(), which artifact sizes are made of.  Timed nets, where
  // only some rows share.
  Rng R(0x5a4e'd0ull);
  int Analytic = 0, SharedTimed = 0;
  for (int Case = 0; Case < 120; ++Case) {
    // Random marked graphs draw their times from 1-3; rings get them.
    PetriNet Net =
        Case % 2 ? buildRandomMarkedGraph(R, static_cast<size_t>(3 + Case % 10),
                                          static_cast<size_t>(Case % 5))
                 : buildRing(static_cast<size_t>(3 + Case % 7), 1);
    if (Case % 2 == 0)
      for (TransitionId T : Net.transitionIds())
        Net.setExecTime(T, 1 + (T.index() + static_cast<uint32_t>(Case)) % 3);
    std::string Label = "case " + std::to_string(Case);
    std::string Reason;
    Expected<FrustumInfo> Ana =
        detectFrustumAnalytic(Net, nullptr, {}, {}, nullptr, &Reason);
    if (!Reason.empty() || !Ana)
      continue;
    ++Analytic;
    Expected<FrustumInfo> Fast = detectFrustumChecked(Net, nullptr, {});
    Expected<FrustumInfo> Ref = detectFrustumReference(Net, nullptr, {});
    ASSERT_TRUE(Fast && Ref) << Label;
    FiringTrace Copy;
    std::vector<uint32_t> Completions, Firings;
    for (StepView S : Ana->Trace) {
      Copy.append(S);
      Completions.push_back(static_cast<uint32_t>(S.Completed.size()));
      Firings.push_back(static_cast<uint32_t>(S.Fired.size()));
    }
    EXPECT_EQ(Ana->Trace.sizeBytes(), Fast->Trace.sizeBytes()) << Label;
    EXPECT_EQ(Ana->Trace.sizeBytes(), Ref->Trace.sizeBytes()) << Label;
    EXPECT_EQ(Ana->Trace.sizeBytes(), Copy.sizeBytes()) << Label;
    // The same rows with nothing shared.
    FiringTrace Unshared;
    Unshared.layOut(Completions, Firings, /*Unit=*/false);
    SharedTimed += Ana->Trace.sizeBytes() < Unshared.sizeBytes();
  }
  EXPECT_GE(Analytic, 30);
  EXPECT_GT(SharedTimed, 0) << "no timed net shared a row";
}

TEST(AnalyticFuzz, MultiTokenRingFallsBack) {
  // A 2-token place breaks 1-boundedness: the analytic bar must refuse
  // (the closed form assumes a safe marking) and the fallback must
  // still produce the simulators' exact result.
  PetriNet Net = buildRing(4, 2);
  std::string Reason;
  Expected<FrustumInfo> Ana =
      detectFrustumAnalytic(Net, nullptr, {}, {}, nullptr, &Reason);
  EXPECT_EQ(Reason, "initial marking not 1-bounded");
  expectSameResult(Ana, detectFrustumChecked(Net), "ring-2tok");
}

TEST(AnalyticFuzz, ExternalPolicyFallsBack) {
  // A stateful firing policy makes the firing order non-canonical, so
  // the analytic recurrence does not apply; the bar must say so before
  // even looking at the net.
  const LivermoreKernel *K = findKernel("loop5");
  ASSERT_NE(K, nullptr);
  DiagnosticEngine Diags;
  auto G = compileLoop(K->Source, Diags);
  ASSERT_TRUE(G.has_value());
  SdspPn Pn = buildSdspPn(Sdsp::standard(std::move(*G)));
  ScpPn Scp = buildScpPn(Pn, /*PipelineDepth=*/2);
  auto AnaPolicy = Scp.makeFifoPolicy();
  auto SimPolicy = Scp.makeFifoPolicy();
  std::string Reason;
  Expected<FrustumInfo> Ana = detectFrustumAnalytic(
      Scp.Net, AnaPolicy.get(), {}, {}, nullptr, &Reason);
  EXPECT_EQ(Reason, "external firing policy");
  expectSameResult(Ana, detectFrustumChecked(Scp.Net, SimPolicy.get()),
                   "scp-fifo-policy");
}

TEST(AnalyticFuzz, LivermoreParity) {
  // The six Section-5 kernels end to end: l2/loop3 qualify for the
  // analytic path, the others fall back (multiple critical cycles or
  // acyclic nets) — either way the result must match both simulators.
  for (const char *Id :
       {"loop1", "loop7", "loop12", "loop3", "loop5", "loop9lcd"}) {
    const LivermoreKernel *K = findKernel(Id);
    ASSERT_NE(K, nullptr) << Id;
    DiagnosticEngine Diags;
    auto G = compileLoop(K->Source, Diags);
    ASSERT_TRUE(G.has_value()) << Id;
    SdspPn Pn = buildSdspPn(Sdsp::standard(std::move(*G)));
    expectAnalyticGolden(Pn.Net, FrustumBudget{}, std::string("lk-") + Id);
  }
}

} // namespace
