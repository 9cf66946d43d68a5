//===- tests/SafetyCheckTest.cpp - Thm A.5.2 differential tests -----------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins isSafeMarkedGraph's word-parallel sweep to two oracles on random
/// live marked graphs without data/ack pairing, whose verdicts need the
/// search: the per-edge bounded-token BFS the sweep replaced (kept here
/// as the reference) and, where exploration completes, the explicit
/// forward marking class (exploreReachability + isSafe).  Also covers
/// the DAG-reachability reduction, a one-token ring too long for the
/// reference, and the bound on the check's edge-scan counter.
///
//===----------------------------------------------------------------------===//

#include "petri/MarkedGraph.h"
#include "petri/ReachabilityGraph.h"
#include "support/Metrics.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

#include <algorithm>
#include <deque>
#include <string>
#include <utility>
#include <vector>

using namespace sdsp;
using namespace sdsp::testutil;

namespace {

/// Searches for a path From -> To whose edges carry at most \p Budget
/// tokens in total, visiting each (vertex, tokens-used) state once.
bool existsBoundedTokenPath(const MarkedGraphView &G, TransitionId From,
                            TransitionId To, uint32_t Budget) {
  size_t N = G.numVertices();
  std::vector<std::vector<bool>> Seen(N,
                                      std::vector<bool>(Budget + 1, false));
  std::deque<std::pair<size_t, uint32_t>> Work;
  Work.push_back({From.index(), 0});
  Seen[From.index()][0] = true;
  while (!Work.empty()) {
    auto [V, Used] = Work.front();
    Work.pop_front();
    if (V == To.index())
      return true;
    for (uint32_t EI : G.outEdges(TransitionId(V))) {
      const MarkedGraphView::Edge &E = G.edge(EI);
      uint64_t NewUsed = static_cast<uint64_t>(Used) + E.Tokens;
      if (NewUsed > Budget)
        continue;
      size_t W = E.To.index();
      if (Seen[W][NewUsed])
        continue;
      Seen[W][NewUsed] = true;
      Work.push_back({W, static_cast<uint32_t>(NewUsed)});
    }
  }
  return false;
}

/// The reference the sweep replaced: one BFS per edge (u, v, k) for a
/// return path v -> u carrying at most 1 - k tokens.  O(E (N + E)) time
/// plus N allocations per edge; \p Net must be a live marked graph.
bool isSafeMarkedGraphReference(const PetriNet &Net) {
  MarkedGraphView G(Net);
  for (const MarkedGraphView::Edge &E : G.edges()) {
    if (E.Tokens > 1)
      return false;
    if (!existsBoundedTokenPath(G, E.To, E.From, 1 - E.Tokens))
      return false;
  }
  return true;
}

size_t pick(Rng &R, size_t N) {
  return static_cast<size_t>(R.range(0, static_cast<int64_t>(N) - 1));
}

/// One place From -> To carrying \p Tokens: one transition-graph edge.
void addEdge(PetriNetBuilder &Net, TransitionId From, TransitionId To,
             uint32_t Tokens) {
  PlaceId P = Net.addPlace("p" + std::to_string(Net.numPlaces()), Tokens);
  Net.addArc(From, P);
  Net.addArc(P, To);
}

/// Adds \p N transitions and returns them in a random order, which the
/// generators use as the topological order of the token-free edges (so
/// it differs from the id order the check starts from).
std::vector<TransitionId> addShuffledTransitions(Rng &R,
                                                 PetriNetBuilder &Net,
                                                 size_t N) {
  std::vector<TransitionId> Order;
  for (size_t I = 0; I < N; ++I)
    Order.push_back(Net.addTransition("t" + std::to_string(I)));
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[pick(R, I)]);
  return Order;
}

/// Leans unsafe.  Edges forward in a random order carry 0 or 1 token;
/// edges back (self-loops included) carry 1 or 2.  Token-free edges only
/// go forward, so the net is live.  A spine through the order, closed by
/// one back edge, makes it strongly connected, hence bounded, so
/// exploration can finish.
PetriNet buildForwardBackNet(Rng &R, size_t N, size_t Extra) {
  PetriNetBuilder Net;
  std::vector<TransitionId> Order = addShuffledTransitions(R, Net, N);
  auto Forward = [&] { return R.chance(1, 3) ? 1u : 0u; };
  auto Back = [&] { return R.chance(1, 10) ? 2u : 1u; };
  for (size_t I = 0; I + 1 < N; ++I)
    addEdge(Net, Order[I], Order[I + 1], Forward());
  addEdge(Net, Order[N - 1], Order[0], Back());
  for (size_t C = 0; C < Extra; ++C) {
    size_t I = pick(R, N), J = pick(R, N);
    addEdge(Net, Order[I], Order[J], I < J ? Forward() : Back());
  }
  return Net.build();
}

/// Leans safe.  A union of one-token cycles, each through transitions in
/// increasing order with its token on the closing edge (so token-free
/// edges go forward: live), plus, if \p Chord, one extra edge forward
/// with 0 or 1 token or back with 1.
PetriNet buildCycleUnionNet(Rng &R, size_t N, size_t Cycles,
                            size_t MeanLength, bool Chord) {
  PetriNetBuilder Net;
  std::vector<TransitionId> Order = addShuffledTransitions(R, Net, N);
  for (size_t C = 0; C < Cycles; ++C) {
    std::vector<size_t> Members;
    for (size_t I = 0; I < N; ++I)
      if (R.chance(std::min(MeanLength, N), N))
        Members.push_back(I);
    if (Members.empty())
      Members.push_back(pick(R, N));
    for (size_t I = 0; I + 1 < Members.size(); ++I)
      addEdge(Net, Order[Members[I]], Order[Members[I + 1]], 0);
    addEdge(Net, Order[Members.back()], Order[Members.front()], 1);
  }
  if (Chord) {
    size_t I = pick(R, N), J = pick(R, N);
    addEdge(Net, Order[I], Order[J], I < J && R.chance(1, 2) ? 0 : 1);
  }
  return Net.build();
}

uint32_t maxInitialTokens(const PetriNet &Net) {
  uint32_t Max = 0;
  for (PlaceId P : Net.placeIds())
    Max = std::max(Max, Net.place(P).InitialTokens);
  return Max;
}

/// Verdict counts over a differential run, for the anti-vacuity floors.
struct Tally {
  size_t Trials = 0;
  size_t Safe = 0;
  /// Unsafe with every edge at <= 1 token: the search found an edge
  /// with no return path within budget.
  size_t SearchUnsafe = 0;
  size_t Explored = 0;
};

/// Checks \p Net against the reference and, for small nets whose
/// exploration completes, against the forward marking class.
void compareWithOracles(const PetriNet &Net, Tally &T,
                        const std::string &What) {
  ASSERT_TRUE(isLiveMarkedGraph(Net)) << What;
  bool Safe = isSafeMarkedGraph(Net);
  EXPECT_EQ(Safe, isSafeMarkedGraphReference(Net)) << What;
  if (Net.numTransitions() <= 8) {
    ReachabilityGraph G = exploreReachability(Net, 1 << 12);
    if (G.Complete) {
      ++T.Explored;
      EXPECT_EQ(Safe, isSafe(G)) << What;
    }
  }
  ++T.Trials;
  if (Safe)
    ++T.Safe;
  else if (maxInitialTokens(Net) <= 1)
    ++T.SearchUnsafe;
}

uint64_t counter(const char *Name) {
  for (const auto &[Key, Value] : MetricsRegistry::global().snapshot().Counters)
    if (Key == Name)
      return Value;
  return 0;
}

/// Neither verdict may be vacuous: each must come up in at least a fifth
/// of the trials, and the unsafe ones must come from the search.
void expectBothVerdicts(const Tally &T, const char *Label) {
  EXPECT_GE(T.Safe * 5, T.Trials) << Label << ": " << T.Safe << " safe";
  EXPECT_GE(T.SearchUnsafe * 5, T.Trials)
      << Label << ": " << T.SearchUnsafe << " unsafe by search";
}

TEST(SafetyCheck, MatchesOraclesOnRandomLiveMarkedGraphs) {
  // Even trials draw forward/back nets, odd ones cycle unions.  Most
  // nets are small enough to explore; two in every 32 span several
  // 64-source batches.
  Rng R(20260512);
  Tally Small, Large;
  for (int Trial = 0; Trial < 1200; ++Trial) {
    bool IsLarge = Trial % 32 >= 30;
    size_t N = IsLarge ? static_cast<size_t>(R.range(65, 200))
                       : 1 + static_cast<size_t>(Trial / 2 % 8);
    Tally &T = IsLarge ? Large : Small;
    std::string What = "trial " + std::to_string(Trial);
    if (Trial % 2 == 0) {
      size_t Extra = pick(R, IsLarge ? N / 4 : 2 * N + 1);
      compareWithOracles(buildForwardBackNet(R, N, Extra), T,
                         What + " (forward/back)");
    } else {
      size_t Cycles = 1 + pick(R, IsLarge ? N / 2 : N);
      size_t Length = IsLarge ? 2 + pick(R, 24) : 1 + pick(R, 4);
      compareWithOracles(
          buildCycleUnionNet(R, N, Cycles, Length, R.chance(1, 2)), T,
          What + " (cycle union)");
    }
  }
  expectBothVerdicts(Small, "small nets");
  expectBothVerdicts(Large, "multi-batch nets");
  EXPECT_GE(Small.Explored * 5, Small.Trials);
}

TEST(SafetyCheck, DecidesDagReachabilityThroughTheReduction) {
  // Checking reachability pairs in a DAG reduces to the safety check:
  // each DAG edge gets a one-token reverse edge (a one-token 2-cycle),
  // and each pair (s, t) becomes a one-token back edge t -> s, covered
  // iff s reaches t by token-free edges.  Safe iff every pair reaches.
  Rng R(9001);
  size_t Trials = 0, Safe = 0;
  for (int Trial = 0; Trial < 80; ++Trial) {
    size_t N = 2 + pick(R, Trial % 4 == 3 ? 300 : 60);
    PetriNetBuilder NB;
    std::vector<TransitionId> Order = addShuffledTransitions(R, NB, N);
    std::vector<std::vector<size_t>> Succ(N);
    for (size_t I = 0; I + 1 < N; ++I)
      for (int K = static_cast<int>(R.range(0, 2)); K > 0; --K) {
        size_t J = I + 1 + pick(R, std::min<size_t>(N - I - 1, 8));
        Succ[I].push_back(J);
        addEdge(NB, Order[I], Order[J], 0);
        addEdge(NB, Order[J], Order[I], 1);
      }
    auto Reaches = [&](size_t S, size_t T) {
      std::vector<bool> Seen(N, false);
      std::vector<size_t> Work{S};
      Seen[S] = true;
      while (!Work.empty()) {
        size_t V = Work.back();
        Work.pop_back();
        if (V == T)
          return true;
        for (size_t W : Succ[V])
          if (!Seen[W]) {
            Seen[W] = true;
            Work.push_back(W);
          }
      }
      return false;
    };
    // Pairs are mostly walk endpoints (reachable); a random pair may not
    // be.
    bool Expected = true;
    for (int Q = static_cast<int>(R.range(1, 6)); Q > 0; --Q) {
      size_t S = pick(R, N), T = S;
      if (R.chance(1, 5)) {
        T = pick(R, N);
      } else {
        while (!Succ[T].empty() && R.chance(3, 4))
          T = Succ[T][pick(R, Succ[T].size())];
      }
      Expected = Expected && Reaches(S, T);
      addEdge(NB, Order[T], Order[S], 1);
    }
    PetriNet Net = NB.build();
    std::string What = "trial " + std::to_string(Trial);
    ASSERT_TRUE(isLiveMarkedGraph(Net)) << What;
    EXPECT_EQ(isSafeMarkedGraph(Net), Expected) << What;
    EXPECT_EQ(isSafeMarkedGraphReference(Net), Expected) << What;
    ++Trials;
    Safe += Expected;
  }
  EXPECT_GE(Safe * 5, Trials);
  EXPECT_GE((Trials - Safe) * 5, Trials);
}

TEST(SafetyCheck, LongOneTokenRing) {
  // 16k transitions: the per-edge reference takes ~16 s here
  // (O(E (N + E))), so only the sweep runs.
  PetriNetBuilder NB = ringBuilder(16384, 1);
  EXPECT_TRUE(isSafeMarkedGraph(buildRing(16384, 1)));
  // A one-token chord back to t0 needs a token-free return path from t0,
  // but t0's only out-edge holds the ring's token.
  addEdge(NB, TransitionId(8192u), TransitionId(0u), 1);
  PetriNet Ring = NB.build();
  ASSERT_TRUE(isLiveMarkedGraph(Ring));
  EXPECT_FALSE(isSafeMarkedGraph(Ring));
}

TEST(SafetyCheck, NonLiveOrNonMarkedGraphIsNotSafe) {
  // A token-free cycle keeps its transitions out of the topological
  // order: the precondition fails and the check says false.
  EXPECT_FALSE(isSafeMarkedGraph(buildRing(3, 0)));
  PetriNetBuilder NB = ringBuilder(3, 1);
  TransitionId Extra = NB.addTransition("extra");
  NB.addArc(PlaceId(0u), Extra);
  PetriNet Net = NB.build();
  EXPECT_FALSE(isSafeMarkedGraph(Net));
}

TEST(SafetyCheck, EdgeScansStayWithinTheWordParallelBound) {
  // Each 64-source batch sweeps every edge at most twice, so one call
  // scans at most 2 E ceil(N / 64) edges.  The counter is exact: the
  // same net always scans the same edges.
  Rng R(64);
  for (size_t N : {1, 2, 63, 64, 65, 200, 1000, 4096}) {
    for (const PetriNet &Net :
         {buildRing(N, 1), buildRandomMarkedGraph(R, N, N / 4)}) {
      size_t E = Net.numPlaces();
      uint64_t Checks = counter("marked_graph.safe.checks");
      uint64_t Scans = counter("marked_graph.safe.edge_scans");
      EXPECT_TRUE(isSafeMarkedGraph(Net)) << "N = " << N;
      EXPECT_EQ(counter("marked_graph.safe.checks") - Checks, 1u);
      uint64_t Delta = counter("marked_graph.safe.edge_scans") - Scans;
      EXPECT_GE(Delta, E) << "N = " << N;
      EXPECT_LE(Delta, 2 * E * ((N + 63) / 64)) << "N = " << N;
      isSafeMarkedGraph(Net);
      EXPECT_EQ(counter("marked_graph.safe.edge_scans") - Scans - Delta,
                Delta)
          << "N = " << N;
    }
  }
}

} // namespace
