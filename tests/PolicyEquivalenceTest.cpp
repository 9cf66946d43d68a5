//===- tests/PolicyEquivalenceTest.cpp - Event-driven vs full-scan FIFO ----===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
//
// FifoPolicy and LifoPolicy re-test data readiness only for transitions
// that fired since the last step or whose non-resource inputs a
// completion just marked (petri/EarliestFiring.h).  This suite pins them
// to the full-scan policies they replaced, retained below as
// FifoPolicyReference and LifoPolicyReference: under both the fast and
// the reference engine, the same FrustumInfo (window, repeated state
// with its queue fingerprint, per-instant trace, firing counts) on
// success and the same diagnostic on failure.  Inputs: SDSP-SCP-PNs and
// multi-FU nets of every bundled kernel at capacity 1-3, pipeline depth
// 1-8 and 1-2 pipelines, exhausted budgets on the SCP nets, and the
// golden fuzz corpus with a shared resource place bolted on.  A last
// case truncates the policies' state summary so that distinct ready
// lists collide, and checks that the exact confirmation rejects every
// false match and still finds the reference frustum.
//
//===----------------------------------------------------------------------===//

#include "core/Frustum.h"

#include "TestUtil.h"
#include "core/MultiFu.h"
#include "core/ScpModel.h"
#include "core/Sdsp.h"
#include "core/SdspPn.h"
#include "livermore/Livermore.h"
#include "loopir/Lowering.h"
#include "support/Metrics.h"
#include "gtest/gtest.h"

using namespace sdsp;
using namespace sdsp::testutil;

namespace {

/// The full-scan FIFO policy that FifoPolicy was before readiness
/// became event-driven: every step re-tests every conflicting
/// transition outside the queue.
class FifoPolicyReference : public FiringPolicy {
public:
  FifoPolicyReference(std::vector<bool> IsConflicting,
                      std::vector<PlaceId> ResourcePlaces)
      : IsConflicting(std::move(IsConflicting)) {
    for (PlaceId P : ResourcePlaces) {
      if (P.index() >= IsResourcePlace.size())
        IsResourcePlace.resize(P.index() + 1, false);
      IsResourcePlace[P.index()] = true;
    }
    InQueue.assign(this->IsConflicting.size(), false);
  }

  void reset() override {
    Queue.clear();
    std::fill(InQueue.begin(), InQueue.end(), false);
    Checks = 0;
  }

  void orderCandidates(const PetriNet &Net, const Marking &M,
                       const std::vector<TransitionId> &,
                       std::vector<TransitionId> &Candidates) override {
    for (size_t I = 0; I < IsConflicting.size(); ++I) {
      if (!IsConflicting[I] || InQueue[I])
        continue;
      if (isDataReady(Net, M, TransitionId(I))) {
        Queue.push_back(static_cast<uint32_t>(I));
        InQueue[I] = true;
      }
    }
    std::vector<TransitionId> Out;
    for (TransitionId T : Candidates)
      if (!IsConflicting[T.index()])
        Out.push_back(T);
    std::vector<bool> IsCandidate(IsConflicting.size(), false);
    for (TransitionId T : Candidates)
      IsCandidate[T.index()] = true;
    for (size_t K = 0; K < Queue.size(); ++K) {
      uint32_t V = NewestFirst ? Queue[Queue.size() - 1 - K] : Queue[K];
      if (IsCandidate[V])
        Out.push_back(TransitionId(V));
    }
    Candidates.swap(Out);
  }

  void noteFired(TransitionId T) override {
    if (T.index() >= InQueue.size() || !InQueue[T.index()])
      return;
    InQueue[T.index()] = false;
    Queue.erase(std::find(Queue.begin(), Queue.end(), T.index()));
  }

  std::vector<uint32_t> stateFingerprint() const override { return Queue; }
  uint64_t readinessChecks() const override { return Checks; }

protected:
  bool NewestFirst = false;

private:
  std::vector<bool> IsConflicting;
  std::vector<bool> IsResourcePlace;
  std::vector<uint32_t> Queue;
  std::vector<bool> InQueue;
  uint64_t Checks = 0;

  bool isDataReady(const PetriNet &Net, const Marking &M, TransitionId T) {
    ++Checks;
    for (PlaceId P : Net.transition(T).InputPlaces) {
      if (P.index() < IsResourcePlace.size() && IsResourcePlace[P.index()])
        continue;
      if (M.tokens(P) == 0)
        return false;
    }
    return true;
  }
};

/// The full-scan LIFO policy: same queue, newest data-ready first.
class LifoPolicyReference : public FifoPolicyReference {
public:
  LifoPolicyReference(std::vector<bool> IsConflicting,
                      std::vector<PlaceId> ResourcePlaces)
      : FifoPolicyReference(std::move(IsConflicting),
                            std::move(ResourcePlaces)) {
    NewestFirst = true;
  }
};

/// Compares two detection outcomes field by field.
void expectSameOutcome(const Expected<FrustumInfo> &A,
                       const Expected<FrustumInfo> &B,
                       const std::string &Label) {
  ASSERT_EQ(A.ok(), B.ok()) << Label;
  if (!A) {
    EXPECT_EQ(A.status().code(), B.status().code()) << Label;
    EXPECT_EQ(A.status().message(), B.status().message()) << Label;
    return;
  }
  EXPECT_EQ(A->StartTime, B->StartTime) << Label;
  EXPECT_EQ(A->RepeatTime, B->RepeatTime) << Label;
  EXPECT_TRUE(A->State == B->State) << Label;
  EXPECT_EQ(A->State.PolicyFingerprint, B->State.PolicyFingerprint) << Label;
  EXPECT_EQ(A->FiringCounts, B->FiringCounts) << Label;
  ASSERT_EQ(A->Trace.size(), B->Trace.size()) << Label;
  for (size_t I = 0; I < A->Trace.size(); ++I) {
    EXPECT_EQ(A->Trace[I].Time, B->Trace[I].Time) << Label << " step " << I;
    EXPECT_EQ(idList(A->Trace[I].Completed), idList(B->Trace[I].Completed))
        << Label << " step " << I;
    ASSERT_EQ(idList(A->Trace[I].Fired), idList(B->Trace[I].Fired))
        << Label << " step " << I;
  }
}

/// What a batch of comparisons exercised.
struct Tally {
  size_t Configs = 0;
  size_t Succeeded = 0;
  size_t BudgetFailures = 0;
  /// Configurations where the event-driven policy made strictly fewer
  /// readiness tests than the full scan.
  size_t FewerChecks = 0;
};

/// Runs \p Net under the production policy \p Policy and under its
/// full-scan reference \p RefPolicy with both engines, and asserts
/// identical outcomes.
template <typename Policy, typename RefPolicy>
void expectSamePolicyBehavior(const PetriNet &Net,
                              const std::vector<bool> &Conflicting,
                              const std::vector<PlaceId> &Resources,
                              FrustumBudget Budget, const std::string &Label,
                              Tally &T) {
  ++T.Configs;
  bool Fewer = true;
  for (bool Fast : {true, false}) {
    Policy New(Conflicting, Resources);
    RefPolicy Ref(Conflicting, Resources);
    Expected<FrustumInfo> A = Fast ? detectFrustumChecked(Net, &New, Budget)
                                   : detectFrustumReference(Net, &New, Budget);
    Expected<FrustumInfo> B = Fast ? detectFrustumChecked(Net, &Ref, Budget)
                                   : detectFrustumReference(Net, &Ref, Budget);
    std::string EngineLabel = Label + (Fast ? " [fast]" : " [reference]");
    expectSameOutcome(A, B, EngineLabel);
    EXPECT_LE(New.readinessChecks(), Ref.readinessChecks()) << EngineLabel;
    Fewer &= New.readinessChecks() < Ref.readinessChecks();
    if (Fast) {
      T.Succeeded += A.ok();
      T.BudgetFailures +=
          !A.ok() && A.status().code() == ErrorCode::BudgetExceeded;
    }
  }
  T.FewerChecks += Fewer;
}

/// FIFO and LIFO, each against its reference.
void expectSameBothPolicies(const PetriNet &Net,
                            const std::vector<bool> &Conflicting,
                            const std::vector<PlaceId> &Resources,
                            FrustumBudget Budget, const std::string &Label,
                            Tally &T) {
  expectSamePolicyBehavior<FifoPolicy, FifoPolicyReference>(
      Net, Conflicting, Resources, Budget, Label + "/fifo", T);
  expectSamePolicyBehavior<LifoPolicy, LifoPolicyReference>(
      Net, Conflicting, Resources, Budget, Label + "/lifo", T);
}

struct KernelNets {
  Sdsp S;
  SdspPn Pn;
};

KernelNets compileKernel(const LivermoreKernel &K, uint32_t Capacity) {
  DiagnosticEngine Diags;
  auto G = compileLoop(K.Source, Diags);
  EXPECT_TRUE(G.has_value()) << K.Id;
  Sdsp S = Sdsp::standard(std::move(*G), Capacity);
  SdspPn Pn = buildSdspPn(S);
  return KernelNets{std::move(S), std::move(Pn)};
}

std::string labelOf(const LivermoreKernel &K, uint32_t Capacity,
                    uint32_t Depth, uint32_t Pipelines) {
  return K.Id + " cap" + std::to_string(Capacity) + " depth" +
         std::to_string(Depth) + " pipes" + std::to_string(Pipelines);
}

TEST(PolicyEquivalence, ScpNets) {
  Tally T;
  for (const LivermoreKernel &K : livermoreKernels())
    for (uint32_t Capacity : {1u, 2u, 3u}) {
      KernelNets KN = compileKernel(K, Capacity);
      for (uint32_t Depth = 1; Depth <= 8; ++Depth)
        for (uint32_t Pipelines : {1u, 2u}) {
          ScpPn Scp = buildScpPn(KN.Pn, Depth, Pipelines);
          expectSameBothPolicies(Scp.Net, Scp.IsSdspTransition,
                                 {Scp.RunPlace}, FrustumBudget{},
                                 "scp " + labelOf(K, Capacity, Depth,
                                                  Pipelines),
                                 T);
        }
    }
  EXPECT_EQ(T.Configs, 9u * 3 * 8 * 2 * 2);
  EXPECT_EQ(T.Succeeded, T.Configs);
  // Anti-vacuity: the event-driven scan must actually skip work (it
  // does on 744 of 864 at the time of writing; the rest are nets so
  // small that every conflicting transition is re-marked each step).
  EXPECT_GE(T.FewerChecks, T.Configs * 3 / 4);
}

TEST(PolicyEquivalence, MultiFuNets) {
  Tally T;
  for (const LivermoreKernel &K : livermoreKernels())
    for (uint32_t Capacity : {1u, 2u, 3u}) {
      KernelNets KN = compileKernel(K, Capacity);
      for (uint32_t Depth = 1; Depth <= 8; ++Depth)
        for (uint32_t Pipelines : {1u, 2u}) {
          std::vector<FuClass> Classes = {
              FuClass{"mul", Pipelines, Depth,
                      [](OpKind Op) {
                        return Op == OpKind::Mul || Op == OpKind::Div;
                      }},
              FuClass{"alu", Pipelines, Depth, [](OpKind) { return true; }},
          };
          MultiFuPn M = buildMultiFuPn(KN.Pn, KN.S, Classes);
          expectSameBothPolicies(M.Net, M.IsSdspTransition, M.RunPlaces,
                                 FrustumBudget{},
                                 "multifu " + labelOf(K, Capacity, Depth,
                                                      Pipelines),
                                 T);
        }
    }
  EXPECT_EQ(T.Configs, 9u * 3 * 8 * 2 * 2);
  EXPECT_EQ(T.Succeeded, T.Configs);
  EXPECT_GE(T.FewerChecks, T.Configs * 3 / 4);
}

TEST(PolicyEquivalence, BudgetDiagnosticsMatch) {
  // Budgets that run out before, at and around the repeat instant must
  // produce the same BudgetExceeded text (steps, firings, partial
  // trace) from both policies.
  Tally T;
  for (const LivermoreKernel &K : livermoreKernels())
    for (uint32_t Depth : {1u, 3u, 8u})
      for (uint32_t Pipelines : {1u, 2u}) {
        KernelNets KN = compileKernel(K, 2);
        ScpPn Scp = buildScpPn(KN.Pn, Depth, Pipelines);
        FifoPolicy Probe(Scp.IsSdspTransition, {Scp.RunPlace});
        Expected<FrustumInfo> Full = detectFrustumChecked(Scp.Net, &Probe);
        ASSERT_TRUE(Full.ok()) << Full.status().str();
        for (TimeStep Steps : {TimeStep(1), TimeStep(4), Full->RepeatTime / 2,
                               Full->RepeatTime - 1, Full->RepeatTime})
          expectSameBothPolicies(Scp.Net, Scp.IsSdspTransition,
                                 {Scp.RunPlace}, FrustumBudget::steps(Steps),
                                 "budget " + std::to_string(Steps) + " " +
                                     labelOf(K, 2, Depth, Pipelines),
                                 T);
      }
  EXPECT_GE(T.BudgetFailures, T.Configs / 2);
  EXPECT_GE(T.Succeeded, 1u);
}

/// \p Net with a shared resource bolted on: a random subset of at least
/// two transitions becomes conflicting, each taking a token of one new
/// place (holding 1 or 2 tokens) when it fires and returning it when it
/// completes.  Returns the place; \p Conflicting receives the flags.
PlaceId addResource(PetriNetBuilder &Net, Rng &R,
                    std::vector<bool> &Conflicting) {
  PlaceId Res =
      Net.addPlace("res", static_cast<uint32_t>(R.range(1, 2)));
  Conflicting.assign(Net.numTransitions(), false);
  size_t Count = 0;
  for (size_t I = 0; I < Net.numTransitions(); ++I)
    if (R.chance(2, 3) || (Count < 2 && I + 2 >= Net.numTransitions())) {
      TransitionId T(I);
      Conflicting[I] = true;
      Net.addArc(Res, T);
      Net.addArc(T, Res);
      ++Count;
    }
  return Res;
}

TEST(PolicyEquivalence, GoldenFuzzCorpusWithResource) {
  // The golden suite's fuzz families (mixed-time marked graphs with
  // chords, unit rings, multi-token rings): multi-token places keep a
  // transition data-ready after it fires, the case that must re-enter
  // the queue without a completion.
  Tally T;
  Rng R(0x90'11c7ull);
  for (int Case = 0; Case < 120; ++Case) {
    size_t N = static_cast<size_t>(R.range(3, 12));
    size_t Chords = static_cast<size_t>(R.range(0, 4));
    PetriNetBuilder NB = randomMarkedGraphBuilder(R, N, Chords);
    std::vector<bool> Conflicting;
    PlaceId Res = addResource(NB, R, Conflicting);
    PetriNet Net = NB.build();
    expectSameBothPolicies(Net, Conflicting, {Res}, FrustumBudget{},
                           "fuzz-mg-" + std::to_string(Case), T);
  }
  for (int Case = 0; Case < 40; ++Case) {
    PetriNetBuilder NB = ringBuilder(static_cast<size_t>(3 + Case % 9), 1);
    std::vector<bool> Conflicting;
    PlaceId Res = addResource(NB, R, Conflicting);
    PetriNet Net = NB.build();
    expectSameBothPolicies(Net, Conflicting, {Res}, FrustumBudget{},
                           "fuzz-ring1-" + std::to_string(Case), T);
  }
  for (int Case = 0; Case < 40; ++Case) {
    size_t N = static_cast<size_t>(R.range(2, 8));
    uint32_t Tokens = static_cast<uint32_t>(R.range(2, 4));
    PetriNetBuilder NB = ringBuilder(N, Tokens);
    std::vector<bool> Conflicting;
    PlaceId Res = addResource(NB, R, Conflicting);
    PetriNet Net = NB.build();
    expectSameBothPolicies(Net, Conflicting, {Res}, FrustumBudget{},
                           "fuzz-ringk-" + std::to_string(Case), T);
  }
  EXPECT_EQ(T.Configs, 400u);
  EXPECT_GE(T.Succeeded, T.Configs * 9 / 10);
}

/// The packedstate.false_matches counter's current value.
uint64_t falseMatches() {
  MetricsRegistry::Snapshot S = MetricsRegistry::global().snapshot();
  for (const auto &[Name, Value] : S.Counters)
    if (Name == "packedstate.false_matches")
      return Value;
  return 0;
}

TEST(PolicyEquivalence, TruncatedSummaryIsConfirmedExactly) {
  // The policy's summary truncated to a few bits (none, at zero) makes
  // distinct ready lists collide, so the table offers the search false
  // matches.  The exact check must reject each one, count it, and
  // still reach the frustum the reference detector finds; the full
  // summary on the same nets must meet none.
  uint64_t Truncated = 0;
  for (const LivermoreKernel &K : livermoreKernels())
    for (uint32_t Capacity : {1u, 2u}) {
      KernelNets KN = compileKernel(K, Capacity);
      for (uint32_t Depth : {1u, 2u, 4u})
        for (uint32_t Pipelines : {1u, 2u}) {
          ScpPn Scp = buildScpPn(KN.Pn, Depth, Pipelines);
          std::string Label = labelOf(K, Capacity, Depth, Pipelines);
          for (bool Lifo : {false, true}) {
            auto Make = [&]() -> std::unique_ptr<ReadyListPolicy> {
              if (Lifo)
                return Scp.makeLifoPolicy();
              return Scp.makeFifoPolicy();
            };
            Expected<FrustumInfo> Want =
                detectFrustumReference(Scp.Net, Make().get());
            uint64_t Before = falseMatches();
            expectSameOutcome(detectFrustumChecked(Scp.Net, Make().get()),
                              Want, Label + " full");
            EXPECT_EQ(falseMatches(), Before) << Label;
            for (unsigned Bits : {0u, 2u}) {
              std::unique_ptr<ReadyListPolicy> Cut = Make();
              Cut->truncateSummaryForTesting(Bits);
              Before = falseMatches();
              expectSameOutcome(detectFrustumChecked(Scp.Net, Cut.get()),
                                Want, Label + " bits " + std::to_string(Bits));
              Truncated += falseMatches() - Before;
            }
          }
        }
    }
  // Anti-vacuity: the truncated summaries did collide.
  EXPECT_GT(Truncated, 0u);
}

} // namespace
