//===- tests/ScheduleTest.cpp - Schedule derivation tests ------------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "core/ScheduleDerivation.h"

#include "TestUtil.h"
#include "core/ArtifactHash.h"
#include "core/RateAnalysis.h"
#include "gtest/gtest.h"

#include <algorithm>
#include <sstream>
#include <tuple>

using namespace sdsp;
using namespace sdsp::testutil;

namespace {

struct Derived {
  Sdsp S;
  SdspPn Pn;
  SoftwarePipelineSchedule Sched;
};

Derived derive(DataflowGraph G) {
  Sdsp S = Sdsp::standard(std::move(G));
  SdspPn Pn = buildSdspPn(S);
  auto F = detectFrustum(Pn.Net);
  EXPECT_TRUE(F.has_value());
  SoftwarePipelineSchedule Sched = deriveSchedule(Pn, *F);
  return Derived{std::move(S), std::move(Pn), std::move(Sched)};
}

TEST(Schedule, L1KernelRateIsOptimal) {
  Derived D = derive(buildL1());
  EXPECT_EQ(D.Sched.rate(), Rational(1, 2));
  EXPECT_EQ(D.Sched.initiationInterval(), Rational(2));
}

TEST(Schedule, L1ValidatesAgainstSemantics) {
  Derived D = derive(buildL1());
  std::string Error;
  EXPECT_TRUE(validateSchedule(D.S, D.Pn, D.Sched, 64, &Error)) << Error;
}

TEST(Schedule, L2ValidatesAndHitsOneThird) {
  Derived D = derive(buildL2Direct());
  EXPECT_EQ(D.Sched.rate(), Rational(1, 3));
  std::string Error;
  EXPECT_TRUE(validateSchedule(D.S, D.Pn, D.Sched, 64, &Error)) << Error;
}

TEST(Schedule, StartTimesAreMonotonePerTransition) {
  Derived D = derive(buildL2Direct());
  for (TransitionId T : D.Pn.Net.transitionIds()) {
    TimeStep Prev = D.Sched.startTime(T, 0);
    for (uint64_t M = 1; M < 32; ++M) {
      TimeStep Cur = D.Sched.startTime(T, M);
      EXPECT_GT(Cur, Prev);
      Prev = Cur;
    }
  }
}

TEST(Schedule, SteadyStateSpacingEqualsInitiationInterval) {
  Derived D = derive(buildL2Direct());
  // Past the prologue, consecutive kernel periods shift by exactly p.
  for (TransitionId T : D.Pn.Net.transitionIds()) {
    uint32_t K = D.Sched.iterationsPerKernel();
    TimeStep A = D.Sched.startTime(T, 10);
    TimeStep B = D.Sched.startTime(T, 10 + K);
    EXPECT_EQ(B - A, D.Sched.kernelLength());
  }
}

TEST(Schedule, ValidatorCatchesBrokenDependence) {
  // Hand-build an invalid schedule: everything at the same slot each
  // iteration, period 1 — dependences within an iteration must fail.
  Sdsp S = Sdsp::standard(buildL1());
  SdspPn Pn = buildSdspPn(S);
  SoftwarePipelineSchedule::Builder B(Pn.Net.numTransitions(), 0, 1, 1);
  B.startFill();
  for (TransitionId T : Pn.Net.transitionIds())
    ASSERT_TRUE(B.addKernel(T, 0));
  SoftwarePipelineSchedule Bad = B.finish();
  std::string Error;
  EXPECT_FALSE(validateSchedule(S, Pn, Bad, 8, &Error));
  EXPECT_FALSE(Error.empty());
}

TEST(Schedule, ValidatorRejectsRateAboveOptimal) {
  // A rate-1 schedule of L1 (optimal is 1/2) must fail validation:
  // either a dependence or an acknowledgement capacity breaks.
  Sdsp S = Sdsp::standard(buildL1());
  SdspPn Pn = buildSdspPn(S);
  SoftwarePipelineSchedule::Builder B(Pn.Net.numTransitions(), 0, 2, 2);
  B.startFill();
  for (TransitionId T : Pn.Net.transitionIds()) {
    ASSERT_TRUE(B.addKernel(T, 0));
    ASSERT_TRUE(B.addKernel(T, 1));
  }
  SoftwarePipelineSchedule Bad = B.finish();
  std::string Error;
  EXPECT_FALSE(validateSchedule(S, Pn, Bad, 8, &Error));
}

TEST(Schedule, ValidatorCatchesPureCapacityViolation) {
  // Two-op chain u -> v with exec time 1, capacity 1.  Schedule both at
  // rate 1 with v lagging u by 1 cycle: every RAW dependence holds, but
  // u's iteration m must wait for v's ack of iteration m-1, which lands
  // at time m+1 > m.  Only the ack check can catch this.
  GraphBuilder B;
  auto U = B.identity(B.input("x"), "u");
  auto V = B.identity(U, "v");
  B.outputValue("y", V);
  Sdsp S = Sdsp::standard(B.take());
  SdspPn Pn = buildSdspPn(S);
  ASSERT_EQ(Pn.Net.numTransitions(), 2u);
  TransitionId TU, TV;
  for (TransitionId T : Pn.Net.transitionIds())
    (Pn.Net.transition(T).Name == "u" ? TU : TV) = T;

  SoftwarePipelineSchedule::Builder SB(2, 1, 1, 1);
  SB.countPrologue(TU);
  SB.startFill();
  ASSERT_TRUE(SB.addPrologue(TU, 0));
  ASSERT_TRUE(SB.addKernel(TV, 0)); // v at 1, 2, 3, ...
  // u's kernel occurrence: iteration 1 at time 1+0=1? kernel slots are
  // within [0,p); u iteration m at time 1 + (m-1).
  ASSERT_TRUE(SB.addKernel(TU, 0));
  SoftwarePipelineSchedule Bad = SB.finish();
  std::string Error;
  EXPECT_FALSE(validateSchedule(S, Pn, Bad, 8, &Error));
  EXPECT_NE(Error.find("capacity"), std::string::npos) << Error;
}

TEST(Schedule, TimelineShowsOverlappingIterations) {
  Derived D = derive(buildL2Direct());
  std::vector<std::string> Names;
  std::vector<uint32_t> Taus;
  for (TransitionId T : D.Pn.Net.transitionIds()) {
    Names.emplace_back(D.Pn.Net.transition(T).Name);
    Taus.push_back(D.Pn.Net.transition(T).ExecTime);
  }
  std::ostringstream OS;
  D.Sched.printTimeline(OS, Names, Taus, 16);
  std::string Out = OS.str();
  // One row per transition plus the ruler.
  EXPECT_EQ(std::count(Out.begin(), Out.end(), '\n'), 6);
  // Iterations 0 and 1 overlap in time: digits of both appear.
  EXPECT_NE(Out.find('0'), std::string::npos);
  EXPECT_NE(Out.find('1'), std::string::npos);
  // The ruler marks kernel-period boundaries.
  EXPECT_NE(Out.find('|'), std::string::npos);
}

TEST(Schedule, PrintShowsKernelTable) {
  Derived D = derive(buildL1());
  std::vector<std::string> Names;
  for (TransitionId T : D.Pn.Net.transitionIds())
    Names.emplace_back(D.Pn.Net.transition(T).Name);
  std::ostringstream OS;
  D.Sched.print(OS, Names);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("kernel (p=2, k=1"), std::string::npos) << Out;
  EXPECT_NE(Out.find("A(i"), std::string::npos);
}

/// x_i = f(x_{i-2}) through a 5-op chain: alpha* = 5/2, so the kernel
/// must span k = 2 iterations in p = 5 cycles — the fractional-rate
/// regime integer-II methods cannot reach.
DataflowGraph buildFractionalRecurrence() {
  GraphBuilder B;
  NodeId A0 = B.graph().addNode(OpKind::Add, "a0");
  GraphBuilder::Value X = B.input("x");
  B.graph().connect(X.N, X.Port, A0, 0);
  GraphBuilder::Value V{A0, 0};
  for (int I = 1; I < 5; ++I)
    V = B.add(V, B.constant(0.0), "a" + std::to_string(I));
  B.graph().connectFeedback(V.N, V.Port, A0, 1, {0.0, 0.0});
  B.outputValue("y", V);
  return B.take();
}

TEST(Schedule, FractionalRateKernelSpansTwoIterations) {
  Derived D = derive(buildFractionalRecurrence());
  EXPECT_EQ(D.Sched.rate(), Rational(2, 5));
  EXPECT_GE(D.Sched.iterationsPerKernel(), 2u);
  std::string Error;
  EXPECT_TRUE(validateSchedule(D.S, D.Pn, D.Sched, 64, &Error)) << Error;

  // Consecutive iterations are NOT equally spaced (that is the point):
  // spacing alternates while every k-th firing advances by exactly p.
  TransitionId T(0u);
  uint32_t K = D.Sched.iterationsPerKernel();
  TimeStep P = D.Sched.kernelLength();
  for (uint64_t M = 4; M < 20; ++M)
    EXPECT_EQ(D.Sched.startTime(T, M + K), D.Sched.startTime(T, M) + P);
}

TEST(Schedule, CanonicalOrderIsTheTraceOrder) {
  // The regenerated firing stream (what the hash and the codec read) is
  // the frustum trace's own order, each firing with its occurrence
  // count as its iteration.
  for (DataflowGraph G : {buildL1(), buildL2Direct(),
                          buildFractionalRecurrence()}) {
    Derived D = derive(std::move(G));
    auto F = detectFrustum(D.Pn.Net);
    ASSERT_TRUE(F.has_value());
    using Firing = std::tuple<TimeStep, uint32_t, uint64_t>;
    std::vector<Firing> Want, Got;
    std::vector<uint64_t> Seen(D.Pn.Net.numTransitions(), 0);
    for (StepView Rec : F->Trace)
      for (TransitionId T : Rec.Fired)
        Want.emplace_back(Rec.Time, T.index(), Seen[T.index()]++);
    D.Sched.forEachPrologueOp([&](TimeStep Time, TransitionId T,
                                  uint64_t Iteration) {
      Got.emplace_back(Time, T.index(), Iteration);
    });
    D.Sched.forEachKernelOp([&](uint32_t Slot, TransitionId T,
                                uint64_t Iteration) {
      Got.emplace_back(D.Sched.prologueEnd() + Slot, T.index(), Iteration);
    });
    EXPECT_EQ(Got, Want);
  }
}

TEST(Schedule, BuilderHashesEveryFillOrder) {
  // A derived schedule was filled in canonical order, so its hash came
  // from the Builder's stream; refilling the same index transition by
  // transition (out of canonical order) must give the same hash, from
  // scratch, as must the canonical refill.
  for (DataflowGraph G : {buildL1(), buildL2Direct(),
                          buildFractionalRecurrence()}) {
    Derived D = derive(std::move(G));
    const SoftwarePipelineSchedule &S = D.Sched;
    EXPECT_EQ(S.contentHash(), artifactHash(S));
    auto Refill = [&](bool Canonical) {
      SoftwarePipelineSchedule::Builder B(
          S.numTransitions(), S.prologueEnd(), S.kernelLength(),
          S.iterationsPerKernel());
      for (size_t I = 0; I < S.numTransitions(); ++I)
        for (uint64_t M = 0; M < S.prologueCount(TransitionId(I)); ++M)
          B.countPrologue(TransitionId(I));
      B.startFill();
      if (Canonical) {
        S.forEachPrologueOp([&](TimeStep Time, TransitionId T, uint64_t) {
          EXPECT_TRUE(B.addPrologue(T, Time));
        });
        S.forEachKernelOp([&](uint32_t Slot, TransitionId T, uint64_t) {
          EXPECT_TRUE(B.addKernel(T, Slot));
        });
      } else {
        for (size_t I = S.numTransitions(); I-- > 0;) {
          TransitionId T(I);
          for (TimeStep Time : S.prologueTimes(T))
            EXPECT_TRUE(B.addPrologue(T, Time));
          for (uint32_t Slot : S.kernelSlots(T))
            EXPECT_TRUE(B.addKernel(T, Slot));
        }
      }
      return B.finish().contentHash();
    };
    EXPECT_EQ(Refill(true), S.contentHash());
    EXPECT_EQ(Refill(false), S.contentHash());
  }
}

TEST(Schedule, DerivationRejectsARowOutOfAscendingOrder) {
  // Schedule derivation reads the trace in canonical order, which needs
  // each row's fired ids ascending; a row that is not (as one written
  // under a firing policy may be) is rejected, not misread.
  Sdsp S = Sdsp::standard(buildL2Direct());
  SdspPn Pn = buildSdspPn(S);
  Expected<FrustumInfo> F = detectFrustumChecked(Pn.Net);
  ASSERT_TRUE(F.ok()) << F.status().str();
  ASSERT_TRUE(deriveScheduleChecked(Pn, *F).ok());
  FrustumInfo Swapped = *F;
  FiringTrace Edited;
  bool Done = false;
  for (StepView Rec : F->Trace) {
    std::vector<TransitionId> Fired(Rec.Fired.begin(), Rec.Fired.end());
    if (!Done && Fired.size() >= 2) {
      std::swap(Fired[0], Fired[1]);
      Done = true;
    }
    Edited.append(StepView(Rec.Time, Rec.Completed, Fired));
  }
  ASSERT_TRUE(Done) << "no row fires two transitions";
  Swapped.Trace = std::move(Edited);
  Expected<SoftwarePipelineSchedule> Sched = deriveScheduleChecked(Pn, Swapped);
  ASSERT_FALSE(Sched.ok());
  EXPECT_EQ(Sched.status().code(), ErrorCode::InvalidInput);
  EXPECT_NE(Sched.status().message().find("ascending"), std::string::npos)
      << Sched.status().str();
}

TEST(Schedule, RandomGraphSchedulesValidate) {
  Rng R(555);
  for (int Trial = 0; Trial < 12; ++Trial) {
    DataflowGraph G = buildRandomLoopGraph(R, 3 + Trial % 6, 20);
    Sdsp S = Sdsp::standard(G);
    SdspPn Pn = buildSdspPn(S);
    auto F = detectFrustum(Pn.Net);
    ASSERT_TRUE(F.has_value());
    SoftwarePipelineSchedule Sched = deriveSchedule(Pn, *F);
    std::string Error;
    EXPECT_TRUE(validateSchedule(S, Pn, Sched, 48, &Error))
        << "trial " << Trial << ": " << Error;
    EXPECT_EQ(Sched.rate(), analyzeRate(Pn).OptimalRate)
        << "trial " << Trial;
  }
}

} // namespace
