//===- tests/SafetyCheckTest.cpp - Thm A.5.2 differential tests -----------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins isSafeMarkedGraph, witnesses first and the word-parallel sweep
/// for what they leave, to two oracles on random live marked graphs
/// without data/ack pairing, whose verdicts need the search: the
/// per-edge bounded-token BFS the sweep replaced (kept here as the
/// reference) and, where exploration completes, the explicit forward
/// marking class (exploreReachability + isSafe).  Also covers the
/// DAG-reachability reduction, rings with one and two tokens, the
/// doubled ring no witness covers, every bundled kernel's SDSP-PN with
/// its ack cycles offered as witnesses (and those witnesses mutated),
/// and the bounds on the check's counters.
///
//===----------------------------------------------------------------------===//

#include "core/Session.h"
#include "livermore/Livermore.h"
#include "petri/MarkedGraph.h"
#include "petri/ReachabilityGraph.h"
#include "support/Metrics.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

#include <algorithm>
#include <deque>
#include <optional>
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

uint64_t counter(const char *Name) {
  for (const auto &[Key, Value] : MetricsRegistry::global().snapshot().Counters)
    if (Key == Name)
      return Value;
  return 0;
}

/// What one safety check did, read from its counters.
struct CheckWork {
  uint64_t Covered = 0;
  uint64_t Swept = 0;
  uint64_t Scans = 0;
};

/// Runs \p Check and returns its verdict with the counters it added.
template <typename Fn> bool measured(CheckWork &W, Fn Check) {
  uint64_t Covered = counter("marked_graph.safe.covered_places");
  uint64_t Swept = counter("marked_graph.safe.swept_sources");
  uint64_t Scans = counter("marked_graph.safe.edge_scans");
  bool Verdict = Check();
  W.Covered = counter("marked_graph.safe.covered_places") - Covered;
  W.Swept = counter("marked_graph.safe.swept_sources") - Swept;
  W.Scans = counter("marked_graph.safe.edge_scans") - Scans;
  return Verdict;
}

/// Verdict counts over a differential run, for the anti-vacuity floors.
struct Tally {
  size_t Trials = 0;
  size_t Safe = 0;
  /// Unsafe with every edge at <= 1 token: the search found an edge
  /// with no return path within budget.
  size_t SearchUnsafe = 0;
  size_t Explored = 0;
  /// Checks in which a witness covered a place, and in which the sweep
  /// ran.
  size_t Witnessed = 0;
  size_t Swept = 0;
};

/// Checks \p Net against the reference and, for small nets whose
/// exploration completes, against the forward marking class.
void compareWithOracles(const PetriNet &Net, Tally &T,
                        const std::string &What) {
  ASSERT_TRUE(isLiveMarkedGraph(Net)) << What;
  CheckWork W;
  bool Safe = measured(W, [&] { return isSafeMarkedGraph(Net); });
  EXPECT_EQ(Safe, isSafeMarkedGraphReference(Net)) << What;
  T.Witnessed += W.Covered > 0;
  T.Swept += W.Swept > 0;
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
  // Both halves of the check decide verdicts here: witnesses cover
  // places of small nets, and the sweep runs from what they leave.
  EXPECT_GE(Small.Witnessed * 5, Small.Trials) << Small.Witnessed;
  EXPECT_GE(Small.Swept * 5, Small.Trials) << Small.Swept;
  EXPECT_GE(Large.Swept * 5, Large.Trials) << Large.Swept;
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

/// Two one-token rings over the same \p N transitions, as
/// tools/make_ring_pnml.py --double writes them.  Safe, but from three
/// stages on no place has a reverse partner and the one component holds
/// two tokens, so no witness covers a place.
PetriNet buildDoubledRing(size_t N) {
  PetriNetBuilder NB = ringBuilder(N, 1);
  for (size_t I = 0; I < N; ++I)
    addEdge(NB, TransitionId(I), TransitionId((I + 1) % N), I == 0 ? 1 : 0);
  return NB.build();
}

TEST(SafetyCheck, EdgeScansStayWithinTheWordParallelBound) {
  // Each 64-source batch sweeps every edge at most twice, so one call
  // scans at most 2 E ceil(S / 64) edges for S swept sources; witnesses
  // cover every place of a one-token ring (its one component) and of an
  // SDSP-style net (reverse partners), which then sweep nothing, while
  // the doubled ring sweeps from every transition.  The counters are
  // exact: the same net always covers, sweeps and scans the same.
  Rng R(64);
  for (size_t N : {1, 2, 3, 63, 64, 65, 200, 1000, 4096}) {
    const PetriNet Nets[] = {buildRing(N, 1),
                             buildRandomMarkedGraph(R, N, N / 4),
                             buildDoubledRing(N)};
    for (size_t K = 0; K < 3; ++K) {
      const PetriNet &Net = Nets[K];
      const size_t E = Net.numPlaces();
      std::string What = "net " + std::to_string(K) + ", N = " +
                         std::to_string(N);
      uint64_t Checks = counter("marked_graph.safe.checks");
      CheckWork W;
      EXPECT_TRUE(measured(W, [&] { return isSafeMarkedGraph(Net); }))
          << What;
      EXPECT_EQ(counter("marked_graph.safe.checks") - Checks, 1u);
      EXPECT_LE(W.Scans, 2 * E * ((W.Swept + 63) / 64)) << What;
      EXPECT_EQ(W.Swept == 0, W.Scans == 0) << What;
      if (K < 2 || N < 3) {
        EXPECT_EQ(W.Covered, E) << What;
        EXPECT_EQ(W.Swept, 0u) << What;
      } else {
        EXPECT_EQ(W.Covered, 0u) << What;
        EXPECT_EQ(W.Swept, N) << What;
      }
      CheckWork Again;
      measured(Again, [&] { return isSafeMarkedGraph(Net); });
      EXPECT_EQ(Again.Covered, W.Covered) << What;
      EXPECT_EQ(Again.Swept, W.Swept) << What;
      EXPECT_EQ(Again.Scans, W.Scans) << What;
    }
  }
}

TEST(SafetyCheck, RingsWithOneAndTwoTokens) {
  // One token anywhere on a ring: safe, by its component.  Two tokens
  // on two places: the only cycle holds both, so no witness covers a
  // place and the sweep finds it unsafe.  A doubled ring is safe, and
  // from three stages on the sweep must show it.
  for (size_t N = 1; N <= 70; ++N) {
    std::string What = "N = " + std::to_string(N);
    PetriNet One = buildRing(N, 1);
    EXPECT_TRUE(isSafeMarkedGraph(One)) << What;
    EXPECT_TRUE(isSafeMarkedGraphReference(One)) << What;
    if (N >= 2) {
      PetriNet Two = buildRing(N, 1);
      Two.setInitialTokens(PlaceId(static_cast<uint32_t>(N / 2)), 1);
      ASSERT_TRUE(isLiveMarkedGraph(Two)) << What;
      EXPECT_FALSE(isSafeMarkedGraph(Two)) << What;
      EXPECT_FALSE(isSafeMarkedGraphReference(Two)) << What;
    }
    PetriNet Doubled = buildDoubledRing(N);
    ASSERT_TRUE(isLiveMarkedGraph(Doubled)) << What;
    EXPECT_TRUE(isSafeMarkedGraph(Doubled)) << What;
    EXPECT_TRUE(isSafeMarkedGraphReference(Doubled)) << What;
    // A second token on one of its rings makes the doubled ring unsafe.
    Doubled.setInitialTokens(PlaceId(static_cast<uint32_t>(N / 2)), 1);
    if (N >= 2) {
      EXPECT_FALSE(isSafeMarkedGraph(Doubled)) << What;
      EXPECT_FALSE(isSafeMarkedGraphReference(Doubled)) << What;
    }
  }
}

/// The SDSP-PN of kernel \p K at unroll \p Unroll and capacity 1, with
/// the SDSP it came from.
struct KernelNet {
  std::optional<Sdsp> S;
  std::optional<SdspPn> Pn;
};

KernelNet kernelNet(const LivermoreKernel &K, uint32_t Unroll,
                    bool Minimize) {
  CompilationSession Session;
  PipelineOptions O;
  O.Unroll = Unroll;
  O.OptimizeStorage = Minimize;
  O.StopAfter = PipelineStage::Petri;
  Expected<CompiledLoop> CL = Session.compile(K.Source, O);
  EXPECT_TRUE(CL) << K.Id << ": " << CL.status().str();
  KernelNet Out;
  if (CL) {
    Out.S = std::move(CL->S);
    Out.Pn = std::move(CL->Pn);
  }
  return Out;
}

/// The check with \p Acks offered as witnesses.
bool isSafeWith(const PetriNet &Net, const AckCycles &Acks) {
  SafetyCheckOptions SO;
  SO.Witnesses = {Acks.Start, Acks.Places};
  Expected<bool> Safe = checkSafeMarkedGraph(Net, SO);
  EXPECT_TRUE(Safe) << Safe.status().str();
  return Safe && *Safe;
}

bool singleTokens(const PetriNet &Net) { return maxInitialTokens(Net) <= 1; }

TEST(SafetyCheck, AckCyclesCoverEveryBundledKernel) {
  // Every bundled kernel at unroll 1-8 and capacity 1, with and without
  // storage minimization: with the ack cycles offered, the witnesses
  // cover every place of a net whose places hold at most one token, and
  // nothing is swept; without them, the verdict is the same.  Only a
  // minimized SDSP chains acks, so only it offers any cycle.
  size_t Nets = 0, Minimized = 0;
  for (const LivermoreKernel &K : livermoreKernels())
    for (uint32_t U = 1; U <= 8; ++U)
      for (bool Minimize : {false, true}) {
        KernelNet KN = kernelNet(K, U, Minimize);
        ASSERT_TRUE(KN.Pn && KN.S);
        const PetriNet &Net = KN.Pn->Net;
        std::string What = K.Id + " x" + std::to_string(U) +
                           (Minimize ? " minimized" : "");
        bool Expected = isSafeMarkedGraphReference(Net);
        AckCycles Acks = ackCycles(*KN.S, *KN.Pn);
        if (!Minimize) {
          EXPECT_TRUE(Acks.Start.empty() && Acks.Places.empty()) << What;
        }
        CheckWork W;
        EXPECT_EQ(measured(W, [&] { return isSafeWith(Net, Acks); }),
                  Expected)
            << What;
        EXPECT_EQ(isSafeMarkedGraph(Net), Expected) << What;
        if (singleTokens(Net)) {
          EXPECT_TRUE(Expected) << What;
          EXPECT_EQ(W.Covered, Net.numPlaces()) << What;
          EXPECT_EQ(W.Swept, 0u) << What;
          ++Nets;
          Minimized += !Acks.Start.empty();
        }
      }
  EXPECT_GE(Nets, 100u);
  EXPECT_GE(Minimized, 10u) << "too few nets with a longer chain";
}

TEST(SafetyCheck, MutatedAckCyclesFallBackToTheReference) {
  // Storage-minimized SDSP-PNs, whose chains only the ack cycles cover;
  // every offered walk is a chain of two or more data places, then its
  // ack place.  Each mutation must leave the verdict equal to the
  // reference's:
  //   - a token moved onto an ack place from its chain, or off it onto
  //     the chain: the walk still holds one token and still covers;
  //   - a second token on the walk, on its ack place if that is empty
  //     and else on its first empty chain place: the walk holds two and
  //     covers nothing;
  //   - a chain place dropped from the walk: it no longer closes.
  // Mutated nets that are not live, or hold two tokens on a place, are
  // outside the check's contract and skipped.
  size_t Moved = 0, Extra = 0, Dropped = 0, FellBack = 0;
  for (const LivermoreKernel &K : livermoreKernels())
    for (uint32_t U = 1; U <= 4; ++U) {
      const std::string &Id = K.Id;
      KernelNet KN = kernelNet(K, U, /*Minimize=*/true);
      ASSERT_TRUE(KN.Pn && KN.S);
      const PetriNet &Base = KN.Pn->Net;
      const AckCycles Acks = ackCycles(*KN.S, *KN.Pn);
      for (size_t A = 0; A + 1 < Acks.Start.size(); ++A) {
        const size_t Begin = Acks.Start[A], End = Acks.Start[A + 1];
        const PlaceId Head = Acks.Places[Begin], Ack = Acks.Places[End - 1];
        std::string What = Id + " x" + std::to_string(U) +
                           " ack " + std::to_string(A);
        auto Compare = [&](const PetriNet &Net, const AckCycles &W,
                           const char *Kind) -> size_t {
          if (!isLiveMarkedGraph(Net) || !singleTokens(Net))
            return 0;
          CheckWork Work;
          EXPECT_EQ(measured(Work, [&] { return isSafeWith(Net, W); }),
                    isSafeMarkedGraphReference(Net))
              << What << ", " << Kind;
          FellBack += Work.Covered < Net.numPlaces();
          return 1;
        };

        PetriNet Net = Base;
        if (Base.place(Ack).InitialTokens == 0) {
          for (size_t I = Begin; I + 1 < End; ++I)
            if (Base.place(Acks.Places[I]).InitialTokens == 1) {
              Net.setInitialTokens(Acks.Places[I], 0);
              Net.setInitialTokens(Ack, 1);
              break;
            }
        } else if (Base.place(Head).InitialTokens == 0) {
          Net.setInitialTokens(Ack, 0);
          Net.setInitialTokens(Head, 1);
        }
        Moved += Compare(Net, Acks, "token moved");

        PetriNet Two = Base;
        for (size_t I = End; I-- > Begin;)
          if (Base.place(Acks.Places[I]).InitialTokens == 0) {
            Two.setInitialTokens(Acks.Places[I], 1);
            break;
          }
        Extra += Compare(Two, Acks, "second token");

        ASSERT_GE(End - Begin, 3u) << What;
        AckCycles Short = Acks;
        Short.Places.erase(Short.Places.begin() +
                           static_cast<ptrdiff_t>(Begin + 1));
        for (size_t J = A + 1; J < Short.Start.size(); ++J)
          --Short.Start[J];
        Dropped += Compare(Base, Short, "chain place dropped");
      }
    }
  // 80 chained acks: 56 token moves keep a live, single-token net.
  EXPECT_GE(Moved, 40u);
  EXPECT_GE(Extra, 40u);
  EXPECT_GE(Dropped, 40u);
  EXPECT_GE(FellBack, 40u) << "too few mutations reached the fallback";
}

} // namespace
