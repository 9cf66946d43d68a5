//===- tests/TransformsTest.cpp - Dataflow optimization tests --------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "dataflow/Transforms.h"

#include "TestUtil.h"
#include "dataflow/Interpreter.h"
#include "dataflow/Validate.h"
#include "livermore/Livermore.h"
#include "loopir/Lowering.h"
#include "gtest/gtest.h"

#include <cmath>

using namespace sdsp;
using namespace sdsp::testutil;

namespace {

DataflowGraph compileSrc(const std::string &Src) {
  DiagnosticEngine Diags;
  auto G = compileLoop(Src, Diags);
  EXPECT_TRUE(G.has_value());
  return std::move(*G);
}

TEST(Transforms, FoldsConstantExpressions) {
  DataflowGraph G =
      compileSrc("doall i { A = X[i] + (2 + 3) * 4; out A; }");
  TransformStats Stats;
  DataflowGraph Opt = optimize(G, Stats);
  EXPECT_GE(Stats.ConstantsFolded, 2u) << "2+3 and *4";
  EXPECT_TRUE(isWellFormed(Opt));

  StreamMap In;
  In["X"] = {1, 2};
  InterpResult R = interpret(Opt, In, 2);
  EXPECT_DOUBLE_EQ(R.Outputs.at("A")[0], 21.0);
  EXPECT_DOUBLE_EQ(R.Outputs.at("A")[1], 22.0);
}

TEST(Transforms, CseMergesRepeatedSubexpressions) {
  DataflowGraph G = compileSrc(
      "doall i { A = (X[i] + Y[i]) * (X[i] + Y[i]); out A; }");
  size_t Before = G.numNodes();
  TransformStats Stats;
  DataflowGraph Opt = optimize(G, Stats);
  EXPECT_GE(Stats.SubexpressionsMerged, 1u);
  EXPECT_LT(Opt.numNodes(), Before);

  StreamMap In;
  In["X"] = {3};
  In["Y"] = {4};
  EXPECT_DOUBLE_EQ(interpret(Opt, In, 1).Outputs.at("A")[0], 49.0);
}

TEST(Transforms, CseKeepsDistinctFeedbackApart) {
  // s and t accumulate different streams: identical op kinds but
  // different operands must NOT merge.
  DataflowGraph G = compileSrc(
      "do i { init s = 0; init t = 0; s = s[i-1] + X[i]; "
      "t = t[i-1] + Y[i]; out s; out t; }");
  TransformStats Stats;
  DataflowGraph Opt = optimize(G, Stats);
  StreamMap In;
  In["X"] = {1, 2, 3};
  In["Y"] = {10, 20, 30};
  InterpResult R = interpret(Opt, In, 3);
  EXPECT_DOUBLE_EQ(R.Outputs.at("s")[2], 6.0);
  EXPECT_DOUBLE_EQ(R.Outputs.at("t")[2], 60.0);
}

TEST(Transforms, DceDropsUnusedChains) {
  // Build by hand: a used chain and an unused one.
  GraphBuilder B;
  auto X = B.input("x");
  auto Used = B.add(X, B.constant(1), "used");
  B.outputValue("y", Used);
  auto Dead = B.mul(X, B.constant(2), "dead");
  B.identity(Dead, "deader"); // dangling
  DataflowGraph G = B.graph();

  TransformStats Stats;
  DataflowGraph Opt = eliminateDeadCode(G, Stats);
  EXPECT_GE(Stats.DeadNodesRemoved, 2u);
  EXPECT_TRUE(isWellFormed(Opt));
  StreamMap In;
  In["x"] = {5};
  EXPECT_DOUBLE_EQ(interpret(Opt, In, 1).Outputs.at("y")[0], 6.0);
}

TEST(Transforms, SemanticsPreservedOnEveryKernel) {
  for (const LivermoreKernel &K : livermoreKernels()) {
    DataflowGraph G = compileSrc(K.Source);
    TransformStats Stats;
    DataflowGraph Opt = optimize(G, Stats);
    EXPECT_TRUE(isWellFormed(Opt)) << K.Name;
    EXPECT_LE(Opt.numNodes(), G.numNodes()) << K.Name;

    const size_t N = 24;
    StreamMap In = K.MakeInputs(N, 555);
    StreamMap Want = K.Reference(In, N);
    InterpResult Got = interpret(Opt, In, N);
    for (const auto &[Name, Values] : Want)
      for (size_t I = 0; I < Values.size(); ++I)
        EXPECT_NEAR(Got.Outputs.at(Name)[I], Values[I],
                    1e-9 * (1.0 + std::fabs(Values[I])))
            << K.Name << " " << Name << "[" << I << "]";
  }
}

TEST(Transforms, Loop7SharesScalarProducts) {
  // loop7 multiplies by r and q repeatedly; CSE should find at least
  // the repeated scalar loads (inputs are already deduped by the
  // frontend, so gains come from fold/DCE only if any); mostly this
  // guards that optimize() terminates and changes nothing semantically
  // on a large body.
  DataflowGraph G = compileSrc(findKernel("loop7")->Source);
  TransformStats Stats;
  DataflowGraph Opt = optimize(G, Stats);
  EXPECT_TRUE(isWellFormed(Opt));
  EXPECT_EQ(Stats.NodesBefore, G.numNodes());
  EXPECT_EQ(Stats.NodesAfter, Opt.numNodes());
}

TEST(Transforms, AlgebraBypassesNeutralElements) {
  DataflowGraph G = compileSrc(
      "doall i { A = (X[i] + 0) * 1 - 0; out A; }");
  TransformStats Stats;
  DataflowGraph Opt = optimize(G, Stats);
  EXPECT_GE(Stats.AlgebraicRewrites, 3u);
  // Everything collapses to out(X): only the input and output remain.
  size_t Compute = 0;
  for (NodeId N : Opt.nodeIds()) {
    OpKind K = Opt.node(N).Kind;
    if (K != OpKind::Input && K != OpKind::Const && K != OpKind::Output)
      ++Compute;
  }
  EXPECT_EQ(Compute, 0u);
  StreamMap In;
  In["X"] = {7.5};
  EXPECT_DOUBLE_EQ(interpret(Opt, In, 1).Outputs.at("A")[0], 7.5);
}

TEST(Transforms, AlgebraPreservesDummySemantics) {
  // Inside a conditional, `t * 1` on the unselected branch carries a
  // dummy; the rewrite forwards the dummy unchanged (x*0 -> 0 would
  // not, which is why it is not performed).
  GraphBuilder B;
  auto X = B.input("x");
  auto C = B.lt(X, B.constant(0));
  auto [T1, F1] = B.switchOn(C, X);
  auto Scaled = B.mul(T1, B.constant(1), "scaled");
  auto M = B.merge(C, B.neg(Scaled), F1, "abs");
  B.outputValue("abs", M);
  DataflowGraph G = B.take();

  TransformStats Stats;
  DataflowGraph Opt = optimize(G, Stats);
  EXPECT_GE(Stats.AlgebraicRewrites, 1u);
  StreamMap In;
  In["x"] = {-3, 4};
  InterpResult R = interpret(Opt, In, 2);
  EXPECT_DOUBLE_EQ(R.Outputs.at("abs")[0], 3.0);
  EXPECT_DOUBLE_EQ(R.Outputs.at("abs")[1], 4.0);
  EXPECT_FALSE(R.DummyMask.at("abs")[0]);
  EXPECT_FALSE(R.DummyMask.at("abs")[1]);
}

TEST(Transforms, FeedbackOperandBlocksBypass) {
  // s = s[i-1] + 0 is a pure delay; bypassing would change timing, so
  // the node must survive (and the loop still behaves like a delay).
  DataflowGraph G = compileSrc(
      "do i { init s = 5; s = s[i-1] + 0; out s; }");
  TransformStats Stats;
  DataflowGraph Opt = optimize(G, Stats);
  StreamMap In;
  InterpResult R = interpret(Opt, In, 3);
  EXPECT_DOUBLE_EQ(R.Outputs.at("s")[2], 5.0);
}

TEST(Transforms, IdempotentAtFixedPoint) {
  DataflowGraph G = compileSrc(
      "doall i { A = (X[i] + 0) * (X[i] + 0) + 2 * 3; out A; }");
  TransformStats S1;
  DataflowGraph Once = optimize(G, S1);
  TransformStats S2;
  DataflowGraph Twice = optimize(Once, S2);
  EXPECT_FALSE(S2.changedAnything());
  EXPECT_EQ(Once.numNodes(), Twice.numNodes());
}

TEST(Transforms, RandomGraphsSurviveOptimization) {
  Rng R(777);
  for (int Trial = 0; Trial < 15; ++Trial) {
    DataflowGraph G = buildRandomLoopGraph(R, 4 + Trial % 6, 25);
    TransformStats Stats;
    DataflowGraph Opt = optimize(G, Stats);
    ASSERT_TRUE(isWellFormed(Opt)) << "trial " << Trial;

    const size_t N = 12;
    StreamMap In;
    for (NodeId Node : G.nodeIds())
      if (G.node(Node).Kind == OpKind::Input) {
        std::vector<double> V(N);
        for (double &X : V)
          X = R.uniform();
        In[std::string(G.node(Node).Name)] = V;
      }
    InterpResult Want = interpret(G, In, N);
    InterpResult Got = interpret(Opt, In, N);
    for (const auto &[Name, Values] : Want.Outputs) {
      ASSERT_EQ(Got.Outputs.count(Name), 1u) << Name;
      for (size_t I = 0; I < Values.size(); ++I)
        EXPECT_NEAR(Got.Outputs.at(Name)[I], Values[I], 1e-12)
            << "trial " << Trial;
    }
  }
}

} // namespace
