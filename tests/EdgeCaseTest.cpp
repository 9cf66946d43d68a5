//===- tests/EdgeCaseTest.cpp - Boundary-condition sweep -------------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "codegen/Codegen.h"
#include "codegen/Vm.h"
#include "core/BufferSizing.h"
#include "core/Frustum.h"
#include "core/ScheduleDerivation.h"
#include "core/SdspPn.h"
#include "dataflow/Interpreter.h"
#include "loopir/Lowering.h"
#include "support/TextTable.h"
#include "gtest/gtest.h"

#include <sstream>

using namespace sdsp;
using namespace sdsp::testutil;

namespace {

TEST(EdgeCase, VmZeroIterations) {
  Sdsp S = Sdsp::standard(buildL2Direct());
  SdspPn Pn = buildSdspPn(S);
  auto F = detectFrustum(Pn.Net);
  ASSERT_TRUE(F.has_value());
  LoopProgram P =
      generateLoopProgram(S, Pn, deriveSchedule(Pn, *F));
  StreamMap In; // No streams needed for zero iterations.
  VmResult R = executeLoopProgram(P, In, 0);
  EXPECT_TRUE(R.Outputs.empty());
  EXPECT_EQ(R.Cycles, 0u);
}

TEST(EdgeCase, InterpreterZeroIterations) {
  DataflowGraph G = buildL1();
  StreamMap In;
  for (const char *Name : {"X", "Y", "Z", "W"})
    In[Name] = {};
  InterpResult R = interpret(G, In, 0);
  EXPECT_TRUE(R.Outputs.empty() || R.Outputs.at("E").empty());
}

TEST(EdgeCase, TextTablePrintsNothingWhenEmpty) {
  TextTable T;
  std::ostringstream OS;
  T.print(OS);
  EXPECT_TRUE(OS.str().empty());
}

TEST(EdgeCase, InstantaneousStateStringShowsResidualAndQueue) {
  InstantaneousState S;
  S.M = Marking(3);
  S.M.produce(PlaceId(1u));
  S.Residual = {0, 2, 0};
  S.PolicyFingerprint = {4, 2};
  std::string Out = S.str();
  EXPECT_NE(Out.find("p1"), std::string::npos);
  EXPECT_NE(Out.find("R=(0,2,0)"), std::string::npos);
  EXPECT_NE(Out.find("Q=(4,2)"), std::string::npos);
}

TEST(EdgeCase, SingleIterationScheduleStartTimes) {
  // startTime must be exact for the very first iterations, prologue
  // included, on a kernel whose prologue is nonempty.
  Sdsp S = Sdsp::standard(buildL2Direct());
  SdspPn Pn = buildSdspPn(S);
  auto F = detectFrustum(Pn.Net);
  ASSERT_TRUE(F.has_value());
  SoftwarePipelineSchedule Sched = deriveSchedule(Pn, *F);
  // Replay the trace and compare against startTime for every firing.
  std::vector<uint64_t> Seen(Pn.Net.numTransitions(), 0);
  for (StepView Rec : F->Trace)
    for (TransitionId T : Rec.Fired)
      EXPECT_EQ(Sched.startTime(T, Seen[T.index()]++), Rec.Time);
}

TEST(EdgeCase, BufferSizingOnSingleOpLoop) {
  // Loop12's shape: nothing to size; already at its bound.
  DataflowGraph G;
  NodeId In = G.addNode(OpKind::Input, "y");
  NodeId Sub = G.addNode(OpKind::Neg, "x");
  G.connect(In, 0, Sub, 0);
  NodeId Out = G.addNode(OpKind::Output, "x");
  G.connect(Sub, 0, Out, 0);
  BufferSizingResult R = sizeBuffers(G);
  EXPECT_TRUE(R.Feasible);
  EXPECT_EQ(R.Storage, 0u);
  EXPECT_EQ(R.AchievedCycleTime, Rational(1));
}

TEST(EdgeCase, FrustumOnTwoIndependentRecurrences) {
  // Two self-recurrences of different latencies in one body: the net
  // is connected through nothing (two components); per-transition
  // rates legitimately differ, and hasUniformCount reports it.
  DataflowGraph G;
  for (int I = 0; I < 2; ++I) {
    NodeId In = G.addNode(OpKind::Input, "x" + std::to_string(I));
    NodeId Acc = G.addNode(OpKind::Add, "s" + std::to_string(I));
    G.setExecTime(Acc, I == 0 ? 1 : 3);
    G.connect(In, 0, Acc, 0);
    G.connectFeedback(Acc, 0, Acc, 1, {0.0});
    NodeId Out = G.addNode(OpKind::Output, "s" + std::to_string(I));
    G.connect(Acc, 0, Out, 0);
  }
  SdspPn Pn = buildSdspPn(Sdsp::standard(G));
  auto F = detectFrustum(Pn.Net);
  ASSERT_TRUE(F.has_value());
  EXPECT_FALSE(F->hasUniformCount(Pn.Net.transitionIds()))
      << "disconnected components run at their own rates";
  // Fast accumulator: once per cycle; slow one: once per 3.
  Rational Fast = F->computationRate(TransitionId(0u));
  Rational Slow = F->computationRate(TransitionId(1u));
  EXPECT_EQ(Fast, Rational(1));
  EXPECT_EQ(Slow, Rational(1, 3));
}

TEST(EdgeCase, DeepInitWindowThroughTheWholeStack) {
  // Distance-4 recurrence: parser init list, ring of 4 registers, VM.
  DiagnosticEngine Diags;
  auto G = compileLoop(
      "do i { init s = 1, 2, 3, 4; s = s[i-4] + x[i]; out s; }", Diags);
  ASSERT_TRUE(G.has_value());
  Sdsp S = Sdsp::standard(*G);
  EXPECT_EQ(S.storageLocations(), 4u);
  SdspPn Pn = buildSdspPn(S);
  auto F = detectFrustum(Pn.Net);
  ASSERT_TRUE(F.has_value());
  LoopProgram P =
      generateLoopProgram(S, Pn, deriveSchedule(Pn, *F));
  StreamMap In;
  In["x"] = {10, 10, 10, 10, 10, 10, 10, 10};
  VmResult R = executeLoopProgram(P, In, 8);
  EXPECT_DOUBLE_EQ(R.Outputs.at("s")[0], 11.0);
  EXPECT_DOUBLE_EQ(R.Outputs.at("s")[3], 14.0);
  EXPECT_DOUBLE_EQ(R.Outputs.at("s")[4], 21.0);
  EXPECT_DOUBLE_EQ(R.Outputs.at("s")[7], 24.0);
}

TEST(EdgeCase, RationalExtremes) {
  Rational Big(1000000, 3);
  Rational Small(1, 1000000);
  EXPECT_LT(Small, Big);
  EXPECT_EQ((Big * Small), Rational(1, 3));
  EXPECT_EQ(Rational(-0.0 == 0.0 ? 0 : 1), Rational(0));
}

} // namespace
