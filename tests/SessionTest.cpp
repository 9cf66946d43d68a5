//===- tests/SessionTest.cpp - CompilationSession pass manager -------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
//
// End-to-end contracts of the session refactor: the SCP-depth ablation
// recomputes its upstream passes exactly once (the acceptance criterion
// of the refactor), pipeline outputs are byte-identical with the cache
// on and off across the Livermore kernels, the one-call compile()
// driver matches the legacy runPipeline() wrapper, and the trace
// serializes to the documented JSON schema.
//
//===----------------------------------------------------------------------===//

#include "codegen/CEmitter.h"
#include "core/Pipeline.h"
#include "core/Session.h"
#include "livermore/Livermore.h"
#include "support/FaultInjection.h"
#include "support/Trace.h"

#include "gtest/gtest.h"

#include <chrono>
#include <sstream>

using namespace sdsp;

namespace {

const LivermoreKernel &kernel(const std::string &Id) {
  const LivermoreKernel *K = findKernel(Id);
  EXPECT_NE(K, nullptr) << Id;
  return *K;
}

/// The six kernels the cache-equivalence acceptance test sweeps.
const char *const SweepKernels[] = {"loop1", "loop7",   "loop12",
                                    "loop3", "loop5", "loop9lcd"};

/// Serializes everything a pipeline run produces that a user can see:
/// the schedule, the register-transfer program, and the emitted C.
std::string serializeOutputs(CompilationSession &S,
                             const std::string &Source) {
  auto G = S.lower(Source);
  EXPECT_TRUE(bool(G));
  auto Sd = S.buildSdsp(*G, /*Capacity=*/1, /*OptimizeStorage=*/false);
  EXPECT_TRUE(bool(Sd));
  auto Pn = S.buildPn(*Sd);
  EXPECT_TRUE(bool(Pn));
  auto F = S.searchFrustum(*Pn, FrustumOptions{});
  EXPECT_TRUE(bool(F));
  auto Sched = S.deriveSchedule(*Sd, *Pn, *F, /*ValidateIterations=*/64);
  EXPECT_TRUE(bool(Sched));
  auto Prog = S.generateProgram(*Sd, *Pn, *Sched);
  EXPECT_TRUE(bool(Prog));

  std::ostringstream OS;
  std::vector<std::string> Names;
  for (TransitionId T : (*Pn)->Net.transitionIds())
    Names.emplace_back((*Pn)->Net.transition(T).Name);
  (*Sched)->print(OS, Names);
  (*Prog)->print(OS);
  OS << emitC(**Prog, "kernel").Source;
  return OS.str();
}

/// Acceptance criterion of the refactor: an l = 1..8 SCP-depth ablation
/// through one session recomputes lowering, SDSP construction, and the
/// SDSP-PN translation exactly once, verified via the cache-hit
/// counters.
TEST(SessionTest, DepthSweepRecomputesUpstreamExactlyOnce) {
  const LivermoreKernel &K = kernel("loop7");
  CompilationSession S(SessionConfig{true});
  for (uint32_t Depth = 1; Depth <= 8; ++Depth) {
    PipelineOptions Opts;
    Opts.ScpDepth = Depth;
    Expected<CompiledLoop> CL = S.compile(K.Source, Opts);
    ASSERT_TRUE(bool(CL)) << "depth " << Depth << ": "
                          << CL.status().str();
    ASSERT_TRUE(CL->Scp.has_value());
    EXPECT_EQ(CL->Scp->PipelineDepth, Depth);
    ASSERT_TRUE(CL->Frustum.has_value());
  }
  for (PassKind PK : {PassKind::Lower, PassKind::Sdsp, PassKind::SdspPn,
                      PassKind::Rate}) {
    const PassStats &PS = S.passStats(PK);
    EXPECT_EQ(PS.Invocations, 8u) << passInfo(PK).Id;
    EXPECT_EQ(PS.CacheHits, 7u) << passInfo(PK).Id;
    EXPECT_EQ(PS.Failures, 0u) << passInfo(PK).Id;
  }
  // Each depth is a distinct SCP machine: no reuse possible.
  EXPECT_EQ(S.passStats(PassKind::Scp).Invocations, 8u);
  EXPECT_EQ(S.passStats(PassKind::Scp).CacheHits, 0u);
  EXPECT_EQ(S.passStats(PassKind::Frustum).CacheHits, 0u);
}

/// The cache must be invisible in the outputs: byte-identical schedule,
/// program, and C across cache-on, cache-off, and cached-replay runs,
/// for every bundled Livermore kernel.
TEST(SessionTest, OutputsByteIdenticalCacheOnAndOff) {
  for (const char *Id : SweepKernels) {
    const LivermoreKernel &K = kernel(Id);
    CompilationSession On(SessionConfig{true});
    CompilationSession Off(SessionConfig{false});
    std::string First = serializeOutputs(On, K.Source);
    std::string Uncached = serializeOutputs(Off, K.Source);
    EXPECT_EQ(First, Uncached) << Id;
    // Replay within the cached session: all hits, same bytes.
    std::string Replay = serializeOutputs(On, K.Source);
    EXPECT_EQ(First, Replay) << Id;
    EXPECT_GT(On.trace().totalCacheHits(), 0u) << Id;
    EXPECT_EQ(Off.trace().totalCacheHits(), 0u) << Id;
  }
}

/// The legacy one-call wrapper and the session driver agree on success
/// artifacts and on the structured-error contract.
TEST(SessionTest, CompileMatchesLegacyRunPipeline) {
  const LivermoreKernel &K = kernel("loop5");
  PipelineOptions Opts;
  Opts.Verify = true;
  Expected<CompiledLoop> Legacy = runPipeline(K.Source, Opts);
  CompilationSession S(SessionConfig{true});
  Expected<CompiledLoop> Session = S.compile(K.Source, Opts);
  ASSERT_TRUE(bool(Legacy));
  ASSERT_TRUE(bool(Session));
  EXPECT_TRUE(Session->Verified);
  EXPECT_EQ(Legacy->Frustum->StartTime, Session->Frustum->StartTime);
  EXPECT_EQ(Legacy->Frustum->RepeatTime, Session->Frustum->RepeatTime);
  EXPECT_EQ(Legacy->Rate->OptimalRate, Session->Rate->OptimalRate);

  // Structured errors: same code, stage, and message.
  const char *Bad = "do i { A = ; out A; }";
  Expected<CompiledLoop> LegacyErr = runPipeline(Bad, PipelineOptions{});
  Expected<CompiledLoop> SessionErr = S.compile(Bad, PipelineOptions{});
  ASSERT_FALSE(bool(LegacyErr));
  ASSERT_FALSE(bool(SessionErr));
  EXPECT_EQ(LegacyErr.status().code(), SessionErr.status().code());
  EXPECT_EQ(LegacyErr.status().stage(), SessionErr.status().stage());
  EXPECT_EQ(LegacyErr.status().message(), SessionErr.status().message());
}

/// Identity transform options skip the transform pass entirely in the
/// one-call driver (matching the legacy pipeline's stage order).
TEST(SessionTest, IdentityOptionsSkipTransformPass) {
  const LivermoreKernel &K = kernel("loop1");
  CompilationSession S(SessionConfig{true});
  ASSERT_TRUE(bool(S.compile(K.Source, PipelineOptions{})));
  EXPECT_EQ(S.passStats(PassKind::Transform).Invocations, 0u);

  PipelineOptions Opt;
  Opt.Optimize = true;
  ASSERT_TRUE(bool(S.compile(K.Source, Opt)));
  EXPECT_EQ(S.passStats(PassKind::Transform).Invocations, 1u);
}

TEST(SessionTest, TraceReportsPassesAndSerializesJson) {
  const LivermoreKernel &K = kernel("loop12");
  CompilationSession S(SessionConfig{true});
  PipelineOptions Opts;
  Opts.Verify = true;
  ASSERT_TRUE(bool(S.compile(K.Source, Opts)));

  PipelineTrace Trace = S.trace();
  EXPECT_TRUE(Trace.CacheEnabled);
  EXPECT_GT(Trace.totalInvocations(), 0u);
  EXPECT_GE(Trace.totalWallSeconds(), 0.0);

  std::ostringstream Json;
  Trace.writeJson(Json);
  const std::string Text = Json.str();
  EXPECT_NE(Text.find("sdsp-pipeline-trace-v1"), std::string::npos);
  for (const char *Id : {"lower", "sdsp", "sdsp-pn", "rate", "frustum",
                         "schedule", "verify"})
    EXPECT_NE(Text.find(std::string("\"") + Id + "\""), std::string::npos)
        << Id;

  std::ostringstream Table;
  Trace.printTable(Table);
  EXPECT_NE(Table.str().find("lower"), std::string::npos);
}

/// Artifacts carry shared ownership: they stay valid after the session
/// that produced them is gone.
TEST(SessionTest, ArtifactsOutliveTheSession) {
  ArtifactRef<SdspPn> Pn;
  {
    CompilationSession S(SessionConfig{true});
    auto G = S.lower(kernel("l1").Source);
    ASSERT_TRUE(bool(G));
    auto Sd = S.buildSdsp(*G, 1, false);
    ASSERT_TRUE(bool(Sd));
    auto Got = S.buildPn(*Sd);
    ASSERT_TRUE(bool(Got));
    Pn = *Got;
  }
  EXPECT_GT(Pn->Net.numTransitions(), 0u);
  EXPECT_NE(Pn.hash(), 0u);
}

//===----------------------------------------------------------------------===//
// Cancellation and fault sites at the pass boundary
// (docs/ROBUSTNESS.md).
//===----------------------------------------------------------------------===//

TEST(SessionTest, CancelledTokenFailsAtThePassBoundary) {
  TraceCollector Collector;
  SessionConfig Cfg{true};
  Cfg.Trace = &Collector.track("job");
  CancelSource Src;
  Src.cancel();
  Cfg.Cancel = Src.token();
  CompilationSession S(std::move(Cfg));
  Expected<CompiledLoop> CL =
      S.compile(kernel("loop1").Source, PipelineOptions{});
  ASSERT_FALSE(bool(CL));
  EXPECT_EQ(CL.status().code(), ErrorCode::Cancelled);
  EXPECT_EQ(CL.status().stage(), "session");
  EXPECT_NE(CL.status().str().find("before pass 'lower'"),
            std::string::npos);
  // The observation shows up on the trace as a "cancelled" instant.
  std::ostringstream OS;
  Collector.writeJson(OS);
  EXPECT_NE(OS.str().find("\"cancelled\""), std::string::npos);
}

TEST(SessionTest, ExpiredDeadlineFailsWithDeadlineExceeded) {
  SessionConfig Cfg{true};
  Cfg.Cancel =
      CancelSource::withDeadline(std::chrono::milliseconds(0)).token();
  CompilationSession S(std::move(Cfg));
  Expected<CompiledLoop> CL =
      S.compile(kernel("loop1").Source, PipelineOptions{});
  ASSERT_FALSE(bool(CL));
  EXPECT_EQ(CL.status().code(), ErrorCode::DeadlineExceeded);
}

/// A deadline that expires inside verify fails the compile: verify polls
/// before each of its checks.  The delay fault at verify's boundary
/// sleeps past the deadline after the boundary's own poll passed, so
/// the poll before the first check stops it.
TEST(SessionTest, DeadlineExpiringInsideVerifyFailsTheCompile) {
  Expected<FaultSchedule> Sched =
      FaultSchedule::parse("pass:verify:delay=600ms");
  ASSERT_TRUE(Sched);
  FaultContext Ctx(&*Sched, "kernel:loop7");
  TraceCollector Collector;
  SessionConfig Cfg{true};
  Cfg.Trace = &Collector.track("job");
  Cfg.Faults = &Ctx;
  Cfg.Cancel =
      CancelSource::withDeadline(std::chrono::milliseconds(300)).token();
  CompilationSession S(std::move(Cfg));
  PipelineOptions O;
  O.Verify = true;
  Expected<CompiledLoop> CL = S.compile(kernel("loop7").Source, O);
  ASSERT_FALSE(bool(CL));
  EXPECT_EQ(CL.status().code(), ErrorCode::DeadlineExceeded);
  EXPECT_NE(CL.status().str().find(
                "verify: deadline exceeded before check 'marked graph'"),
            std::string::npos)
      << CL.status().str();
  EXPECT_EQ(S.passStats(PassKind::Verify).Failures, 1u);
  std::ostringstream OS;
  Collector.writeJson(OS);
  EXPECT_NE(OS.str().find("\"cancelled\""), std::string::npos);
}

/// A compile stopped before Petri leaves verify nothing to check, so
/// verify polls nothing itself: the session's poll after the pass fails
/// the compile once the delay at verify's boundary has slept past the
/// deadline.
TEST(SessionTest, DeadlineExpiringInsideAnEmptyVerifyFailsAfterThePass) {
  Expected<FaultSchedule> Sched =
      FaultSchedule::parse("pass:verify:delay=600ms");
  ASSERT_TRUE(Sched);
  FaultContext Ctx(&*Sched, "kernel:loop7");
  SessionConfig Cfg{true};
  Cfg.Faults = &Ctx;
  Cfg.Cancel =
      CancelSource::withDeadline(std::chrono::milliseconds(300)).token();
  CompilationSession S(std::move(Cfg));
  PipelineOptions O;
  O.Verify = true;
  O.StopAfter = PipelineStage::Storage;
  Expected<CompiledLoop> CL = S.compile(kernel("loop7").Source, O);
  ASSERT_FALSE(bool(CL));
  EXPECT_EQ(CL.status().code(), ErrorCode::DeadlineExceeded);
  EXPECT_NE(CL.status().str().find("after pass 'verify'"), std::string::npos)
      << CL.status().str();
  EXPECT_EQ(S.passStats(PassKind::Verify).Failures, 1u);
}

/// The in-session retry contract the batch layer relies on: a transient
/// pass fault fails the compile, and because the pass boundary
/// checkpoints before any cache insert, the retry through the same
/// session and context recomputes instead of replaying a poisoned
/// artifact.
TEST(SessionTest, TransientPassFaultRetriesCleanlyInTheSameSession) {
  const LivermoreKernel &K = kernel("loop7");
  CompilationSession Plain(SessionConfig{true});
  Expected<CompiledLoop> Want = Plain.compile(K.Source, PipelineOptions{});
  ASSERT_TRUE(bool(Want));

  Expected<FaultSchedule> Sched = FaultSchedule::parse("pass:sdsp:fail@1");
  ASSERT_TRUE(Sched);
  FaultContext Ctx(&*Sched, "kernel:loop7");
  SessionConfig Cfg{true};
  Cfg.Faults = &Ctx;
  CompilationSession S(std::move(Cfg));
  Expected<CompiledLoop> First = S.compile(K.Source, PipelineOptions{});
  ASSERT_FALSE(bool(First));
  EXPECT_EQ(First.status().code(), ErrorCode::TransientFault);
  EXPECT_EQ(Ctx.fired(), 1u);

  // Arrivals persisted past the trigger, so the retry sails through.
  Expected<CompiledLoop> Retry = S.compile(K.Source, PipelineOptions{});
  ASSERT_TRUE(bool(Retry)) << Retry.status().str();
  EXPECT_EQ(Ctx.fired(), 1u);

  // Byte-identical to the fault-free schedule.
  auto ScheduleText = [](const CompiledLoop &CL) {
    std::vector<std::string> Names;
    for (TransitionId T : CL.machineNet().transitionIds())
      Names.emplace_back(CL.machineNet().transition(T).Name);
    std::ostringstream OS;
    CL.Schedule->print(OS, Names);
    return OS.str();
  };
  EXPECT_EQ(ScheduleText(*Retry), ScheduleText(*Want));
}

} // namespace
