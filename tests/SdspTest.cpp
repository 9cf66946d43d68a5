//===- tests/SdspTest.cpp - SDSP construction tests ------------------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "core/Sdsp.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

using namespace sdsp;
using namespace sdsp::testutil;

namespace {

TEST(Sdsp, BoundaryClassification) {
  EXPECT_TRUE(isBoundaryOp(OpKind::Input));
  EXPECT_TRUE(isBoundaryOp(OpKind::Const));
  EXPECT_TRUE(isBoundaryOp(OpKind::Output));
  EXPECT_FALSE(isBoundaryOp(OpKind::Add));
  EXPECT_FALSE(isBoundaryOp(OpKind::Switch));
}

TEST(Sdsp, L1StandardConstruction) {
  Sdsp S = Sdsp::standard(buildL1());
  EXPECT_EQ(S.loopBodySize(), 5u);
  EXPECT_EQ(S.interiorArcs().size(), 5u);
  EXPECT_EQ(S.acks().size(), 5u);
  // One storage location per data/ack pair (Section 6).
  EXPECT_EQ(S.storageLocations(), 5u);
  for (Sdsp::AckView A : S.acks()) {
    EXPECT_EQ(A.Path.size(), 1u);
    EXPECT_EQ(A.Slots, 1u);
  }
}

TEST(Sdsp, L2CountsFeedbackStorage) {
  Sdsp S = Sdsp::standard(buildL2Direct());
  EXPECT_EQ(S.loopBodySize(), 5u);
  EXPECT_EQ(S.interiorArcs().size(), 6u);
  // Paper, Section 6: L2 uses six locations before optimization.
  EXPECT_EQ(S.storageLocations(), 6u);
  // The feedback pair's slots are zero: the buffer initially holds the
  // loop-carried value.
  bool FoundFeedback = false;
  for (Sdsp::AckView A : S.acks())
    if (S.graph().arc(A.Path.front()).isFeedback()) {
      FoundFeedback = true;
      EXPECT_EQ(A.Slots, 0u);
    }
  EXPECT_TRUE(FoundFeedback);
}

TEST(Sdsp, CapacityTwoDoublesSlots) {
  Sdsp S = Sdsp::standard(buildL1(), /*Capacity=*/2);
  EXPECT_EQ(S.storageLocations(), 10u);
  for (Sdsp::AckView A : S.acks())
    EXPECT_EQ(A.Slots, 2u);
}

TEST(Sdsp, SelfFeedbackGetsNoAck) {
  // q = q[i-1] + in: the self arc must not be acknowledged.
  DataflowGraph G;
  NodeId In = G.addNode(OpKind::Input, "x");
  NodeId Q = G.addNode(OpKind::Add, "q");
  G.connect(In, 0, Q, 0);
  G.connectFeedback(Q, 0, Q, 1, {0.0});
  NodeId Out = G.addNode(OpKind::Output, "q");
  G.connect(Q, 0, Out, 0);

  Sdsp S = Sdsp::standard(G);
  EXPECT_TRUE(S.acks().empty());
  EXPECT_EQ(S.storageLocations(), 1u) << "the window itself is storage";
}

TEST(Sdsp, WithAcksAcceptsChainCoverage) {
  DataflowGraph G = buildL1();
  Sdsp Standard = Sdsp::standard(G);
  // Cover A->B and B->D with one ack (the Figure 4 move).
  ArcId AB, BD;
  for (ArcId A : G.arcIds()) {
    if (!Standard.isInteriorArc(A))
      continue;
    const auto &Arc = G.arc(A);
    if (G.node(Arc.From).Name == "A" && G.node(Arc.To).Name == "B")
      AB = A;
    if (G.node(Arc.From).Name == "B" && G.node(Arc.To).Name == "D")
      BD = A;
  }
  ASSERT_TRUE(AB.isValid());
  ASSERT_TRUE(BD.isValid());

  std::vector<Sdsp::Ack> Acks;
  Acks.push_back(Sdsp::Ack{{AB, BD}, 1});
  for (ArcId A : Standard.interiorArcs())
    if (A != AB && A != BD)
      Acks.push_back(Sdsp::Ack{{A}, 1});
  Sdsp Chained = Sdsp::withAcks(G, Acks);
  EXPECT_EQ(Chained.storageLocations(), 4u) << "5 pairs became 4";
}

} // namespace
