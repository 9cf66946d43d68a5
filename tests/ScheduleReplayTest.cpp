//===- tests/ScheduleReplayTest.cpp - Horizon replay vs full replay --------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
//
// validateSchedule replays each constraint only up to its periodic
// horizon H0 + k (core/ScheduleDerivation.h).  This suite pins it to the
// full replay of every iteration that it replaced, retained below as
// validateScheduleReference: the same verdict and the same
// first-violation message for every CheckIterations, on the derived
// schedules of every bundled kernel x unroll x capacity, and on
// perturbed copies (of those, of fractional-rate recurrences and of
// random loops with multi-cycle operations) whose first violation falls
// before H0 (in the prologue), inside the first periodic window, or on
// its last iteration H0 + k - 1.  It also bounds the schedule.validate.checks counter by
// the horizons, so a replay proportional to CheckIterations fails as a
// counter.
//
//===----------------------------------------------------------------------===//

#include "core/ScheduleDerivation.h"

#include "TestUtil.h"
#include "core/Pipeline.h"
#include "livermore/Livermore.h"
#include "support/Metrics.h"
#include "support/Random.h"
#include "gtest/gtest.h"

#include <algorithm>

using namespace sdsp;

namespace {

/// The full replay that validateSchedule ran before the horizon: every
/// constraint over all \p CheckIterations iterations.
bool validateScheduleReference(const Sdsp &S, const SdspPn &Pn,
                               const SoftwarePipelineSchedule &Sched,
                               uint64_t CheckIterations,
                               std::string *Error) {
  const DataflowGraph &G = S.graph();
  auto Fail = [&](const std::string &Msg) {
    if (Error)
      *Error = Msg;
    return false;
  };

  auto Tau = [&](TransitionId T) -> uint64_t {
    return Pn.Net.transition(T).ExecTime;
  };

  for (TransitionId T : Pn.Net.transitionIds()) {
    for (uint64_t M = 1; M < CheckIterations; ++M) {
      TimeStep Prev = Sched.startTime(T, M - 1);
      TimeStep Cur = Sched.startTime(T, M);
      if (Cur < Prev + Tau(T))
        return Fail("transition " + std::string(Pn.Net.transition(T).Name) +
                    " iterations " + std::to_string(M - 1) + "/" +
                    std::to_string(M) + " overlap");
    }
  }

  for (ArcId A : G.arcIds()) {
    if (!S.isInteriorArc(A))
      continue;
    const DataflowGraph::Arc &Arc = G.arc(A);
    TransitionId U = Pn.NodeToTransition[Arc.From.index()];
    TransitionId V = Pn.NodeToTransition[Arc.To.index()];
    for (uint64_t M = Arc.Distance; M < CheckIterations; ++M) {
      TimeStep Produced = Sched.startTime(U, M - Arc.Distance) + Tau(U);
      if (Sched.startTime(V, M) < Produced)
        return Fail("dependence violated on arc " +
                    std::string(G.node(Arc.From).Name) + " -> " +
                    std::string(G.node(Arc.To).Name) + " at iteration " +
                    std::to_string(M));
    }
  }

  for (Sdsp::AckView Ack : S.acks()) {
    const DataflowGraph::Arc &Head = G.arc(Ack.Path.front());
    const DataflowGraph::Arc &Tail = G.arc(Ack.Path.back());
    TransitionId U = Pn.NodeToTransition[Head.From.index()];
    TransitionId V = Pn.NodeToTransition[Tail.To.index()];
    for (uint64_t M = Ack.Slots; M < CheckIterations; ++M) {
      TimeStep AckReady = Sched.startTime(V, M - Ack.Slots) + Tau(V);
      if (Sched.startTime(U, M) < AckReady)
        return Fail("capacity violated on ack " +
                    std::string(G.node(Tail.To).Name) + " -> " +
                    std::string(G.node(Head.From).Name) + " at iteration " +
                    std::to_string(M));
    }
  }

  return true;
}

/// One replayed constraint: start(Later, m) >= start(Earlier, m - Lag)
/// + tau(Earlier) for every m >= Lag.
struct Constraint {
  TransitionId Later;
  TransitionId Earlier;
  uint64_t Lag;
};

/// The constraints validateSchedule checks, in its checking order.
std::vector<Constraint> constraintsOf(const Sdsp &S, const SdspPn &Pn) {
  const DataflowGraph &G = S.graph();
  std::vector<Constraint> Out;
  for (TransitionId T : Pn.Net.transitionIds())
    Out.push_back({T, T, 1});
  for (ArcId A : G.arcIds()) {
    if (!S.isInteriorArc(A))
      continue;
    const DataflowGraph::Arc &Arc = G.arc(A);
    Out.push_back({Pn.NodeToTransition[Arc.To.index()],
                   Pn.NodeToTransition[Arc.From.index()], Arc.Distance});
  }
  for (Sdsp::AckView Ack : S.acks())
    Out.push_back({Pn.NodeToTransition[G.arc(Ack.Path.front()).From.index()],
                   Pn.NodeToTransition[G.arc(Ack.Path.back()).To.index()],
                   Ack.Slots});
  return Out;
}

/// First violated iteration of \p C below \p Limit by full replay, or
/// \p Limit.
uint64_t firstViolation(const SdspPn &Pn, const SoftwarePipelineSchedule &Sched,
                        const Constraint &C, uint64_t Limit) {
  uint64_t Tau = Pn.Net.transition(C.Earlier).ExecTime;
  for (uint64_t M = C.Lag; M < Limit; ++M)
    if (Sched.startTime(C.Later, M) <
        Sched.startTime(C.Earlier, M - C.Lag) + Tau)
      return M;
  return Limit;
}

/// H0: from here on both sides of \p C are periodic.
uint64_t horizonStart(const SoftwarePipelineSchedule &Sched,
                      const Constraint &C) {
  return std::max(Sched.prologueCount(C.Later),
                  Sched.prologueCount(C.Earlier) + C.Lag);
}

const uint64_t CheckCounts[] = {1, 2, 3, 16, 64, 128, 256};

/// Asserts that validateSchedule and the full replay agree on \p Sched
/// for every CheckCounts entry: same verdict, same message.
void expectSameVerdicts(const Sdsp &S, const SdspPn &Pn,
                        const SoftwarePipelineSchedule &Sched,
                        const std::string &Label) {
  for (uint64_t CI : CheckCounts) {
    std::string Got = "(untouched)", Want = "(untouched)";
    bool G = validateSchedule(S, Pn, Sched, CI, &Got);
    bool W = validateScheduleReference(S, Pn, Sched, CI, &Want);
    EXPECT_EQ(G, W) << Label << " CheckIterations=" << CI << ": " << Want;
    EXPECT_EQ(Got, Want) << Label << " CheckIterations=" << CI;
  }
}

/// Bundled kernel \p K compiled on the ideal machine through the
/// schedule pass.
CompiledLoop compileKernel(const LivermoreKernel &K, uint32_t Unroll,
                           uint32_t Capacity) {
  PipelineOptions Opts;
  Opts.Unroll = Unroll;
  Opts.Capacity = Capacity;
  Expected<CompiledLoop> CL = runPipeline(K.Source, Opts);
  EXPECT_TRUE(CL.ok()) << K.Id << ": " << CL.status().str();
  EXPECT_TRUE(CL->Schedule.has_value()) << K.Id;
  return std::move(*CL);
}

std::string labelOf(const LivermoreKernel &K, uint32_t Unroll,
                    uint32_t Capacity) {
  return K.Id + " x" + std::to_string(Unroll) + " cap" +
         std::to_string(Capacity);
}

/// \p Sched with one op moved: prologue op \p Index to time \p Value
/// when \p Prologue, else kernel op \p Index to slot \p Value.
SoftwarePipelineSchedule perturbed(const SoftwarePipelineSchedule &Sched,
                                   bool Prologue, size_t Index,
                                   uint64_t Value) {
  SoftwarePipelineSchedule Out(Sched.numTransitions(), Sched.prologueEnd(),
                               Sched.kernelLength(),
                               Sched.iterationsPerKernel());
  for (size_t I = 0; I < Sched.prologue().size(); ++I) {
    const auto &Op = Sched.prologue()[I];
    Out.addPrologueOp(Prologue && I == Index ? Value : Op.Time, Op.T,
                      Op.Iteration);
  }
  for (size_t I = 0; I < Sched.kernel().size(); ++I) {
    const auto &Op = Sched.kernel()[I];
    Out.addKernelOp(!Prologue && I == Index ? static_cast<uint32_t>(Value)
                                            : Op.Slot,
                    Op.T, Op.FirstIteration);
  }
  Out.finish();
  return Out;
}

TEST(ScheduleReplay, DerivedSchedulesMatchFullReplay) {
  for (const LivermoreKernel &K : livermoreKernels())
    for (uint32_t Unroll : {1u, 2u, 4u})
      for (uint32_t Capacity : {1u, 2u, 3u}) {
        CompiledLoop CL = compileKernel(K, Unroll, Capacity);
        std::string Label = labelOf(K, Unroll, Capacity);
        expectSameVerdicts(*CL.S, *CL.Pn, *CL.Schedule, Label);
        std::string Err;
        EXPECT_TRUE(validateSchedule(*CL.S, *CL.Pn, *CL.Schedule, 256, &Err))
            << Label << ": " << Err;
      }
}

/// Counts, over perturbed schedules, where the full replay first sees
/// the violation relative to the reported constraint's horizon.
struct Regimes {
  size_t InPrologue = 0, InWindow = 0, AtEdge = 0, StillValid = 0;
};

/// Moves one prologue firing or one kernel slot of \p Base at a time,
/// \p Trials times, pins every result to the full replay, and
/// classifies the first violation the full replay reports.
void perturbAndCompare(const Sdsp &S, const SdspPn &Pn,
                       const SoftwarePipelineSchedule &Base, Rng &R,
                       int Trials, const std::string &Label, Regimes &Out) {
  std::vector<Constraint> Cs = constraintsOf(S, Pn);
  uint64_t K = Base.iterationsPerKernel();
  for (int Trial = 0; Trial < Trials; ++Trial) {
    bool Pro = Trial % 2 == 0 && !Base.prologue().empty();
    size_t Count = Pro ? Base.prologue().size() : Base.kernel().size();
    size_t Index =
        static_cast<size_t>(R.range(0, static_cast<int64_t>(Count) - 1));
    uint64_t Limit = Pro ? Base.prologueEnd() : Base.kernelLength();
    uint64_t Value =
        static_cast<uint64_t>(R.range(0, static_cast<int64_t>(Limit) - 1));
    SoftwarePipelineSchedule P = perturbed(Base, Pro, Index, Value);
    std::string TrialLabel = Label + " trial " + std::to_string(Trial);
    expectSameVerdicts(S, Pn, P, TrialLabel);

    // The constraint the full replay reports is the first one in
    // checking order that fails at all.
    bool Found = false;
    for (const Constraint &C : Cs) {
      uint64_t M = firstViolation(Pn, P, C, 256);
      if (M == 256)
        continue;
      uint64_t H0 = horizonStart(P, C);
      // The periodicity lemma itself: no first violation lies past the
      // horizon.
      EXPECT_LT(M, H0 + K) << TrialLabel;
      if (M < H0)
        ++Out.InPrologue;
      else if (M + 1 == H0 + K)
        ++Out.AtEdge;
      else
        ++Out.InWindow;
      Found = true;
      break;
    }
    Out.StillValid += !Found;
  }
}

/// x_i = f(x_{i-D}) through an \p L-op chain: alpha* = L/D, so for
/// coprime L and D the kernel spans k = D iterations in p = L cycles.
DataflowGraph buildRecurrence(int L, uint32_t D) {
  GraphBuilder B;
  NodeId A0 = B.graph().addNode(OpKind::Add, "a0");
  GraphBuilder::Value X = B.input("x");
  B.graph().connect(X.N, X.Port, A0, 0);
  GraphBuilder::Value V{A0, 0};
  for (int I = 1; I < L; ++I)
    V = B.add(V, B.constant(0.0), "a" + std::to_string(I));
  B.graph().connectFeedback(V.N, V.Port, A0, 1, std::vector<double>(D, 0.0));
  B.outputValue("y", V);
  return B.take();
}

TEST(ScheduleReplay, PerturbedSchedulesMatchFullReplay) {
  // Every bundled kernel schedule has k = 1, so its periodic window is
  // the single iteration H0 = H0 + k - 1; the fractional-rate
  // recurrences add kernels with k = 2..5, whose windows have an
  // interior.  Mutating the horizon (H0 + k - 1, H0 - 1, or H0 without
  // the lag) fails this test.
  Rng R(0x5c4ed41e5ull);
  Regimes Seen;
  for (const LivermoreKernel &K : livermoreKernels())
    for (uint32_t Unroll : {1u, 2u})
      for (uint32_t Capacity : {1u, 2u, 3u}) {
        CompiledLoop CL = compileKernel(K, Unroll, Capacity);
        perturbAndCompare(*CL.S, *CL.Pn, *CL.Schedule, R, 12,
                          labelOf(K, Unroll, Capacity), Seen);
      }
  size_t MultiIteration = 0;
  for (int L : {3, 5, 7})
    for (uint32_t D : {2u, 3u, 5u})
      for (uint32_t Capacity : {1u, 2u, 3u}) {
        Sdsp S = Sdsp::standard(buildRecurrence(L, D), Capacity);
        SdspPn Pn = buildSdspPn(S);
        Expected<FrustumInfo> F = detectFrustumChecked(Pn.Net);
        ASSERT_TRUE(F.ok()) << F.status().str();
        SoftwarePipelineSchedule Sched = deriveSchedule(Pn, *F);
        MultiIteration += Sched.iterationsPerKernel() >= 2;
        std::string Label = "recurrence L" + std::to_string(L) + " d" +
                            std::to_string(D) + " cap" +
                            std::to_string(Capacity);
        expectSameVerdicts(S, Pn, Sched, Label);
        perturbAndCompare(S, Pn, Sched, R, 24, Label, Seen);
      }
  // Random loops with multi-cycle operations: an operation whose
  // execution time equals the period makes lag >= 1 constraints
  // violable in the periodic regime, which on the unit-time, k = 1
  // bundled kernels they never are.
  for (int Trial = 0; Trial < 40; ++Trial) {
    DataflowGraph G = testutil::buildRandomLoopGraph(R, 3 + Trial % 5, 40,
                                                     /*MaxExecTime=*/3);
    Sdsp S = Sdsp::standard(std::move(G), 1 + Trial % 3);
    SdspPn Pn = buildSdspPn(S);
    Expected<FrustumInfo> F = detectFrustumChecked(Pn.Net);
    ASSERT_TRUE(F.ok()) << F.status().str();
    SoftwarePipelineSchedule Sched = deriveSchedule(Pn, *F);
    std::string Label = "random loop " + std::to_string(Trial);
    expectSameVerdicts(S, Pn, Sched, Label);
    perturbAndCompare(S, Pn, Sched, R, 12, Label, Seen);
  }
  // Floors at about half the counts at the time of writing (prologue
  // 396, window 137, edge 371, still valid 872; 15 of 27 recurrences
  // with k >= 2), so a generator change cannot quietly drop a regime.
  EXPECT_GE(MultiIteration, 8u);
  EXPECT_GE(Seen.InPrologue, 200u);
  EXPECT_GE(Seen.InWindow, 65u);
  EXPECT_GE(Seen.AtEdge, 180u);
  EXPECT_GE(Seen.StillValid, 400u);
}

uint64_t counterOf(const MetricsRegistry::Snapshot &S,
                   const std::string &Name) {
  for (const auto &[N, V] : S.Counters)
    if (N == Name)
      return V;
  return 0;
}

TEST(ScheduleReplay, ChecksAreBoundedByHorizonsNotCheckIterations) {
  // At x256 a replay proportional to CheckIterations would evaluate
  // sum(CheckIterations - lag) constraint instances; the horizon caps
  // every constraint at max prologue + max lag + k.
  const uint64_t CI = 4096;
  for (const LivermoreKernel &K : livermoreKernels()) {
    CompiledLoop CL = compileKernel(K, 256, 1);
    const SoftwarePipelineSchedule &Sched = *CL.Schedule;
    std::vector<Constraint> Cs = constraintsOf(*CL.S, *CL.Pn);
    uint64_t MaxPro = 0, MaxLag = 0, FullReplay = 0;
    for (TransitionId T : CL.Pn->Net.transitionIds())
      MaxPro = std::max(MaxPro, Sched.prologueCount(T));
    for (const Constraint &C : Cs) {
      MaxLag = std::max(MaxLag, C.Lag);
      FullReplay += CI - std::min(CI, C.Lag);
    }
    uint64_t Bound = Cs.size() * (MaxPro + MaxLag + Sched.iterationsPerKernel());
    ASSERT_LT(Bound, FullReplay)
        << K.Id << ": CheckIterations too small to tell the replays apart";

    uint64_t Before =
        counterOf(MetricsRegistry::global().snapshot(), "schedule.validate.checks");
    std::string Err;
    EXPECT_TRUE(validateSchedule(*CL.S, *CL.Pn, Sched, CI, &Err))
        << K.Id << ": " << Err;
    uint64_t Checks =
        counterOf(MetricsRegistry::global().snapshot(),
                  "schedule.validate.checks") -
        Before;
    EXPECT_GT(Checks, 0u) << K.Id;
    EXPECT_LE(Checks, Bound) << K.Id;
  }
}

} // namespace
