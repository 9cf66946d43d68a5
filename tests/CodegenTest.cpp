//===- tests/CodegenTest.cpp - Loop codegen and VM tests -------------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "codegen/Codegen.h"
#include "codegen/Vm.h"

#include "TestUtil.h"
#include "core/Frustum.h"
#include "core/ScheduleDerivation.h"
#include "core/StorageOptimizer.h"
#include "dataflow/Interpreter.h"
#include "livermore/Livermore.h"
#include "loopir/Lowering.h"
#include "gtest/gtest.h"

#include <cmath>
#include <sstream>

using namespace sdsp;
using namespace sdsp::testutil;

namespace {

/// Full pipeline: graph -> schedule -> program.
LoopProgram compileToProgram(const Sdsp &S) {
  SdspPn Pn = buildSdspPn(S);
  auto F = detectFrustum(Pn.Net);
  EXPECT_TRUE(F.has_value());
  SoftwarePipelineSchedule Sched = deriveSchedule(Pn, *F);
  return generateLoopProgram(S, Pn, Sched);
}

void expectMatchesInterpreter(const DataflowGraph &G, const Sdsp &S,
                              const StreamMap &Inputs, size_t N) {
  LoopProgram Program = compileToProgram(S);
  VmResult Got = executeLoopProgram(Program, Inputs, N);
  InterpResult Want = interpret(G, Inputs, N);
  ASSERT_EQ(Got.Outputs.size(), Want.Outputs.size());
  for (const auto &[Name, Values] : Want.Outputs) {
    ASSERT_EQ(Got.Outputs.count(Name), 1u) << Name;
    ASSERT_EQ(Got.Outputs.at(Name).size(), Values.size()) << Name;
    for (size_t I = 0; I < Values.size(); ++I) {
      EXPECT_EQ(Got.DummyMask.at(Name)[I], Want.DummyMask.at(Name)[I])
          << Name << "[" << I << "]";
      EXPECT_NEAR(Got.Outputs.at(Name)[I], Values[I], 1e-12)
          << Name << "[" << I << "]";
    }
  }
}

TEST(Codegen, RegisterCountEqualsStorageLocations) {
  for (bool UseL2 : {false, true}) {
    Sdsp S = Sdsp::standard(UseL2 ? buildL2Direct() : buildL1());
    LoopProgram P = compileToProgram(S);
    EXPECT_EQ(P.numRegisters(), S.storageLocations());
    EXPECT_EQ(P.ops().size(), S.loopBodySize());
  }
}

TEST(Codegen, L2VmMatchesInterpreter) {
  DataflowGraph G = buildL2Direct();
  Sdsp S = Sdsp::standard(G);
  StreamMap In;
  Rng R(17);
  for (const char *Name : {"X", "Y", "W"}) {
    std::vector<double> V(32);
    for (double &X : V)
      X = R.uniform();
    In[Name] = V;
  }
  expectMatchesInterpreter(G, S, In, 32);
}

TEST(Codegen, OptimizedStorageStillComputesCorrectly) {
  // The heart of Section 6: after chain-merging the acks, the shared
  // registers still never clobber a live value.
  DataflowGraph G = buildL2Direct();
  StorageOptResult R = minimizeStorage(Sdsp::standard(G));
  ASSERT_LT(R.StorageAfter, R.StorageBefore);
  LoopProgram P = compileToProgram(R.Optimized);
  EXPECT_EQ(P.numRegisters(), R.StorageAfter);

  StreamMap In;
  Rng Rand(18);
  for (const char *Name : {"X", "Y", "W"}) {
    std::vector<double> V(32);
    for (double &X : V)
      X = Rand.uniform();
    In[Name] = V;
  }
  expectMatchesInterpreter(G, R.Optimized, In, 32);
}

TEST(Codegen, EveryKernelExecutesCorrectly) {
  for (const LivermoreKernel &K : livermoreKernels()) {
    DiagnosticEngine Diags;
    auto G = compileLoop(K.Source, Diags);
    ASSERT_TRUE(G.has_value()) << K.Name;
    Sdsp S = Sdsp::standard(*G);
    const size_t N = 24;
    StreamMap In = K.MakeInputs(N, 777);

    LoopProgram Program = compileToProgram(S);
    VmResult Got = executeLoopProgram(Program, In, N);
    StreamMap Want = K.Reference(In, N);
    for (const auto &[Name, Values] : Want) {
      ASSERT_EQ(Got.Outputs.at(Name).size(), Values.size())
          << K.Name << " " << Name;
      for (size_t I = 0; I < Values.size(); ++I)
        EXPECT_NEAR(Got.Outputs.at(Name)[I], Values[I],
                    1e-9 * (1.0 + std::fabs(Values[I])))
            << K.Name << " " << Name << "[" << I << "]";
    }
  }
}

TEST(Codegen, VmRejectsAStreamOneValueShortOrMissing) {
  const LivermoreKernel *K = findKernel("loop7");
  ASSERT_NE(K, nullptr);
  DiagnosticEngine Diags;
  auto G = compileLoop(K->Source, Diags);
  ASSERT_TRUE(G.has_value());
  LoopProgram Program = compileToProgram(Sdsp::standard(*G));
  const size_t N = 16;
  StreamMap In = K->MakeInputs(N, 779);
  ASSERT_FALSE(In.empty());
  Expected<VmResult> Full = executeLoopProgramChecked(Program, In, N);
  ASSERT_TRUE(Full) << Full.status().str();
  EXPECT_EQ(Full->Outputs, executeLoopProgram(Program, In, N).Outputs);

  for (auto &[Name, Values] : In) {
    // One value short.
    StreamMap Short = In;
    Short[Name].pop_back();
    Expected<VmResult> R = executeLoopProgramChecked(Program, Short, N);
    ASSERT_FALSE(R) << Name;
    EXPECT_EQ(R.status().code(), ErrorCode::InvalidInput);
    EXPECT_EQ(R.status().stage(), "vm");
    EXPECT_NE(R.status().message().find("'" + Name + "' holds 15 values"),
              std::string::npos)
        << R.status().str();
    EXPECT_DEATH(executeLoopProgram(Program, Short, N), "every input stream");

    // Missing.
    StreamMap Missing = In;
    Missing.erase(Name);
    R = executeLoopProgramChecked(Program, Missing, N);
    ASSERT_FALSE(R) << Name;
    EXPECT_EQ(R.status().code(), ErrorCode::InvalidInput);
    EXPECT_NE(R.status().message().find("input stream '" + Name + "'"),
              std::string::npos)
        << R.status().str();
  }
}

TEST(Codegen, OptimizedKernelsExecuteCorrectly) {
  for (const LivermoreKernel &K : livermoreKernels()) {
    DiagnosticEngine Diags;
    auto G = compileLoop(K.Source, Diags);
    ASSERT_TRUE(G.has_value()) << K.Name;
    StorageOptResult R = minimizeStorage(Sdsp::standard(*G));
    const size_t N = 24;
    StreamMap In = K.MakeInputs(N, 778);
    LoopProgram Program = compileToProgram(R.Optimized);
    EXPECT_EQ(Program.numRegisters(), R.StorageAfter) << K.Name;
    VmResult Got = executeLoopProgram(Program, In, N);
    StreamMap Want = K.Reference(In, N);
    for (const auto &[Name, Values] : Want)
      for (size_t I = 0; I < Values.size(); ++I)
        EXPECT_NEAR(Got.Outputs.at(Name)[I], Values[I],
                    1e-9 * (1.0 + std::fabs(Values[I])))
            << K.Name << " " << Name << "[" << I << "]";
  }
}

TEST(Codegen, ConditionalLoopWithDummies) {
  DiagnosticEngine Diags;
  auto G = compileLoop(
      "do i { A = if X[i] < 0 then 0 - X[i] else X[i]; out A; }", Diags);
  ASSERT_TRUE(G.has_value());
  Sdsp S = Sdsp::standard(*G);
  StreamMap In;
  In["X"] = {-2, 3, -4, 5, 0, -6};
  expectMatchesInterpreter(*G, S, In, 6);
}

TEST(Codegen, DeepFeedbackRings) {
  // y = x + y[i-3]: a 3-deep window ring.
  DataflowGraph G;
  NodeId In = G.addNode(OpKind::Input, "x");
  NodeId A = G.addNode(OpKind::Add, "y");
  G.connect(In, 0, A, 0);
  G.connectFeedback(A, 0, A, 1, {10.0, 20.0, 30.0});
  NodeId Out = G.addNode(OpKind::Output, "y");
  G.connect(A, 0, Out, 0);

  Sdsp S = Sdsp::standard(G);
  EXPECT_EQ(S.storageLocations(), 3u);
  StreamMap Inputs;
  Inputs["x"] = {1, 2, 3, 4, 5, 6, 7};
  expectMatchesInterpreter(G, S, Inputs, 7);
}

TEST(Codegen, FractionalRateKernelExecutesCorrectly) {
  // alpha* = 5/2: the kernel interleaves two iterations; the VM must
  // still produce the exact recurrence x_i = x_{i-2} + in_i.
  GraphBuilder B;
  NodeId A0 = B.graph().addNode(OpKind::Add, "a0");
  GraphBuilder::Value X = B.input("x");
  B.graph().connect(X.N, X.Port, A0, 0);
  GraphBuilder::Value V{A0, 0};
  for (int I = 1; I < 5; ++I)
    V = B.add(V, B.constant(0.0), "a" + std::to_string(I));
  B.graph().connectFeedback(V.N, V.Port, A0, 1, {100.0, 200.0});
  B.outputValue("y", V);
  DataflowGraph G = B.take();

  Sdsp S = Sdsp::standard(G);
  StreamMap In;
  In["x"] = {1, 2, 3, 4, 5, 6, 7, 8};
  expectMatchesInterpreter(G, S, In, 8);

  // Spot-check absolute values: y0 = 100+1, y2 = y0+3, ...
  LoopProgram P = compileToProgram(S);
  VmResult R = executeLoopProgram(P, In, 8);
  EXPECT_DOUBLE_EQ(R.Outputs.at("y")[0], 101.0);
  EXPECT_DOUBLE_EQ(R.Outputs.at("y")[1], 202.0);
  EXPECT_DOUBLE_EQ(R.Outputs.at("y")[2], 104.0);
  EXPECT_DOUBLE_EQ(R.Outputs.at("y")[3], 206.0);
}

TEST(Codegen, RandomGraphsExecuteCorrectly) {
  Rng R(909);
  for (int Trial = 0; Trial < 10; ++Trial) {
    DataflowGraph G = buildRandomLoopGraph(R, 3 + Trial % 6, 25);
    Sdsp S = Sdsp::standard(G);
    const size_t N = 20;
    StreamMap In;
    for (NodeId Node : G.nodeIds()) {
      if (G.node(Node).Kind != OpKind::Input)
        continue;
      std::vector<double> V(N);
      for (double &X : V)
        X = R.uniform();
      In[std::string(G.node(Node).Name)] = V;
    }
    expectMatchesInterpreter(G, S, In, N);
  }
}

TEST(Codegen, MixedExecTimesOnRandomGraphs) {
  Rng R(911);
  for (int Trial = 0; Trial < 8; ++Trial) {
    DataflowGraph G =
        buildRandomLoopGraph(R, 3 + Trial % 5, 25, /*MaxExecTime=*/3);
    Sdsp S = Sdsp::standard(G);
    const size_t N = 16;
    StreamMap In;
    for (NodeId Node : G.nodeIds()) {
      if (G.node(Node).Kind != OpKind::Input)
        continue;
      std::vector<double> V(N);
      for (double &X : V)
        X = R.uniform();
      In[std::string(G.node(Node).Name)] = V;
    }
    expectMatchesInterpreter(G, S, In, N);
  }
}

TEST(Codegen, ListingMentionsRegistersAndSlots) {
  Sdsp S = Sdsp::standard(buildL2Direct());
  LoopProgram P = compileToProgram(S);
  std::ostringstream OS;
  P.print(OS);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("registers"), std::string::npos);
  EXPECT_NE(Out.find("r0"), std::string::npos);
  EXPECT_NE(Out.find("out(E)"), std::string::npos);
}

} // namespace
