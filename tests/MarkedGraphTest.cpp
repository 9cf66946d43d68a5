//===- tests/MarkedGraphTest.cpp - Marked-graph theorem tests --------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "petri/MarkedGraph.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

using namespace sdsp;
using namespace sdsp::testutil;

namespace {

/// The liveness check Kahn's algorithm replaced, kept as its reference:
/// a depth-first search for a cycle of token-free edges in the
/// transition graph.
bool isLiveMarkedGraphReference(const PetriNet &Net) {
  MarkedGraphView G(Net);
  size_t N = G.numVertices();
  // 0 = unvisited, 1 = on stack, 2 = done.
  std::vector<uint8_t> State(N, 0);
  std::vector<size_t> Stack;
  std::vector<size_t> NextEdge(N, 0);

  for (size_t Root = 0; Root < N; ++Root) {
    if (State[Root] != 0)
      continue;
    Stack.push_back(Root);
    State[Root] = 1;
    NextEdge[Root] = 0;
    while (!Stack.empty()) {
      size_t V = Stack.back();
      const auto &Outs = G.outEdges(TransitionId(V));
      bool Descended = false;
      while (NextEdge[V] < Outs.size()) {
        const MarkedGraphView::Edge &E = G.edge(Outs[NextEdge[V]++]);
        if (E.Tokens > 0)
          continue; // Marked edges break token-free cycles.
        size_t W = E.To.index();
        if (State[W] == 1)
          return false; // Token-free cycle found: not live.
        if (State[W] == 0) {
          State[W] = 1;
          NextEdge[W] = 0;
          Stack.push_back(W);
          Descended = true;
          break;
        }
      }
      if (!Descended && NextEdge[V] >= Outs.size()) {
        State[V] = 2;
        Stack.pop_back();
      }
    }
  }
  return true;
}

TEST(MarkedGraph, RecognizesMarkedGraphs) {
  PetriNet Ring = buildRing(3, 1);
  EXPECT_TRUE(isMarkedGraph(Ring));

  // Add a second consumer to a place: no longer a marked graph.
  PetriNetBuilder NB = ringBuilder(3, 1);
  TransitionId Extra = NB.addTransition("extra");
  NB.addArc(PlaceId(0u), Extra);
  PetriNet Net = NB.build();
  EXPECT_FALSE(isMarkedGraph(Net));
}

TEST(MarkedGraph, ViewEdgesMirrorPlaces) {
  PetriNet Ring = buildRing(4, 2);
  MarkedGraphView View(Ring);
  EXPECT_EQ(View.numVertices(), 4u);
  EXPECT_EQ(View.numEdges(), 4u);
  uint64_t Tokens = 0;
  for (const MarkedGraphView::Edge &E : View.edges())
    Tokens += E.Tokens;
  EXPECT_EQ(Tokens, 2u);
}

TEST(MarkedGraph, LivenessThmA51) {
  // Thm A.5.1: live iff every simple cycle carries a token.
  EXPECT_TRUE(isLiveMarkedGraph(buildRing(3, 1)));
  EXPECT_FALSE(isLiveMarkedGraph(buildRing(3, 0)));
}

TEST(MarkedGraph, KahnLivenessMatchesTheDfsReference) {
  // Random marked graphs: each place joins two random transitions
  // (self-loops included) and holds 0, 1 or 2 tokens, token-free with a
  // probability that varies by trial, so both verdicts come up often.
  Rng R(5101);
  size_t Trials = 0, Live = 0;
  for (int Trial = 0; Trial < 1500; ++Trial) {
    const int64_t N = 1 + R.range(0, Trial % 10 == 9 ? 300 : 12);
    const int64_t E = R.range(0, 3 * N);
    uint64_t MarkedOneIn = 2 + static_cast<uint64_t>(Trial % 4);
    PetriNetBuilder NB;
    for (int64_t I = 0; I < N; ++I)
      NB.addTransition("t" + std::to_string(I));
    auto Pick = [&] {
      return TransitionId(static_cast<uint32_t>(R.range(0, N - 1)));
    };
    for (int64_t I = 0; I < E; ++I) {
      uint32_t Tokens = R.chance(1, MarkedOneIn) ? 1 + R.chance(1, 8) : 0;
      PlaceId P = NB.addPlace("p" + std::to_string(I), Tokens);
      NB.addArc(Pick(), P);
      NB.addArc(P, Pick());
    }
    PetriNet Net = NB.build();
    bool Expected = isLiveMarkedGraphReference(Net);
    EXPECT_EQ(isLiveMarkedGraph(Net), Expected) << "trial " << Trial;
    ++Trials;
    Live += Expected;
  }
  EXPECT_GE(Live * 5, Trials) << Live << " live of " << Trials;
  EXPECT_GE((Trials - Live) * 5, Trials) << Live << " live of " << Trials;
}

TEST(MarkedGraph, SafetyThmA52) {
  // One token on a ring: safe.  Two tokens on a ring of 3: each edge
  // is only on the full cycle, which has 2 tokens -> unsafe.
  EXPECT_TRUE(isSafeMarkedGraph(buildRing(3, 1)));
  EXPECT_FALSE(isSafeMarkedGraph(buildRing(3, 2)));
}

TEST(MarkedGraph, SafetyWithParallelCycles) {
  // Two transitions joined by a data place (1 token) and an ack place
  // (0 tokens) in each direction: the 2-cycle has exactly 1 token.
  PetriNetBuilder NB;
  TransitionId A = NB.addTransition("a");
  TransitionId B = NB.addTransition("b");
  PlaceId D = NB.addPlace("d", 1);
  PlaceId K = NB.addPlace("k", 0);
  NB.addArc(A, D);
  NB.addArc(D, B);
  NB.addArc(B, K);
  NB.addArc(K, A);
  PetriNet Net = NB.build();
  EXPECT_TRUE(isLiveMarkedGraph(Net));
  EXPECT_TRUE(isSafeMarkedGraph(Net));
}

TEST(MarkedGraph, StructuralPersistence) {
  EXPECT_TRUE(isStructurallyPersistent(buildRing(3, 1)));
  PetriNetBuilder NB = ringBuilder(3, 1);
  TransitionId Extra = NB.addTransition("extra");
  NB.addArc(PlaceId(0u), Extra);
  PetriNet Net = NB.build();
  EXPECT_FALSE(isStructurallyPersistent(Net));
}

TEST(MarkedGraph, StrongConnectivity) {
  PetriNet Ring = buildRing(5, 1);
  MarkedGraphView View(Ring);
  EXPECT_TRUE(stronglyConnectedRoot(View).has_value());

  // Two disjoint rings: not strongly connected.
  PetriNetBuilder TwoB;
  for (int R = 0; R < 2; ++R) {
    TransitionId A = TwoB.addTransition("a");
    TransitionId B = TwoB.addTransition("b");
    PlaceId P1 = TwoB.addPlace("p", 1);
    PlaceId P2 = TwoB.addPlace("q", 0);
    TwoB.addArc(A, P1);
    TwoB.addArc(P1, B);
    TwoB.addArc(B, P2);
    TwoB.addArc(P2, A);
  }
  PetriNet Two = TwoB.build();
  MarkedGraphView TwoView(Two);
  EXPECT_FALSE(stronglyConnectedRoot(TwoView).has_value());
}

TEST(MarkedGraph, RandomSdspStyleGraphsAreLiveAndSafe) {
  Rng R(42);
  for (int Trial = 0; Trial < 20; ++Trial) {
    PetriNet Net = buildRandomMarkedGraph(R, 4 + Trial % 8, Trial % 5);
    ASSERT_TRUE(isMarkedGraph(Net));
    EXPECT_TRUE(isLiveMarkedGraph(Net)) << "trial " << Trial;
    EXPECT_TRUE(isSafeMarkedGraph(Net)) << "trial " << Trial;
  }
}

} // namespace
