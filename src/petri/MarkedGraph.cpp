//===- petri/MarkedGraph.cpp - Marked-graph structure & theorems ----------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "petri/MarkedGraph.h"

#include "support/CancelToken.h"
#include "support/FaultInjection.h"
#include "support/Metrics.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <string>

using namespace sdsp;

MarkedGraphView::MarkedGraphView(const PetriNet &Net) : Net(Net) {
  bool Ok = init();
  assert(Ok && "net is not a marked graph");
  (void)Ok;
}

bool MarkedGraphView::init() {
  const size_t N = Net.numTransitions();
  // Pass 1: the edges, and each transition's degrees counted one slot
  // ahead of its row.
  OutStart.assign(N + 1, 0);
  InStart.assign(N + 1, 0);
  Edges.reserve(Net.numPlaces());
  for (size_t I = 0; I < Net.numPlaces(); ++I) {
    const PlaceId P(I);
    const PetriNet::Place &Pl = Net.place(P);
    if (Pl.Producers.size() != 1 || Pl.Consumers.size() != 1)
      return false;
    Edges.push_back(
        Edge{Pl.Producers.front(), Pl.Consumers.front(), P, Pl.InitialTokens});
    ++OutStart[Pl.Producers.front().index() + 1];
    ++InStart[Pl.Consumers.front().index() + 1];
  }
  for (size_t T = 0; T < N; ++T) {
    OutStart[T + 1] += OutStart[T];
    InStart[T + 1] += InStart[T];
  }
  // Pass 2: edge indices in place order, each row filled through a
  // cursor that ends at the next row's start; one shift restores it.
  OutEdges.resize(Edges.size());
  InEdges.resize(Edges.size());
  for (uint32_t I = 0; I < Edges.size(); ++I) {
    OutEdges[OutStart[Edges[I].From.index()]++] = I;
    InEdges[InStart[Edges[I].To.index()]++] = I;
  }
  for (size_t T = N; T > 0; --T) {
    OutStart[T] = OutStart[T - 1];
    InStart[T] = InStart[T - 1];
  }
  OutStart[0] = InStart[0] = 0;
  return true;
}

std::optional<MarkedGraphView>
MarkedGraphView::tryBuild(const PetriNet &Net) {
  std::optional<MarkedGraphView> V(MarkedGraphView(Net, Unchecked{}));
  if (!V->init())
    V.reset();
  return V;
}

bool sdsp::isMarkedGraph(const PetriNet &Net) {
  for (size_t I = 0; I < Net.numPlaces(); ++I) {
    const PetriNet::Place &Pl = Net.place(PlaceId(I));
    if (Pl.Producers.size() != 1 || Pl.Consumers.size() != 1)
      return false;
  }
  return true;
}

namespace {

/// The one producer of place \p P of a marked graph: its edge's tail.
uint32_t tailOf(const PetriNet &Net, PlaceId P) {
  return Net.place(P).Producers.front().index();
}

/// The one consumer of place \p P of a marked graph: its edge's head.
uint32_t headOf(const PetriNet &Net, PlaceId P) {
  return Net.place(P).Consumers.front().index();
}

/// Kahn's algorithm over the token-free places: writes a topological
/// order of the token-free subgraph to \p Order and returns how many
/// transitions it ordered, which is all of them iff no cycle is
/// token-free (Thm A.5.1).  \p InDegree is N words of scratch.
size_t tokenFreeOrder(const PetriNet &Net, uint32_t *InDegree,
                      uint32_t *Order) {
  const size_t N = Net.numTransitions();
  std::fill(InDegree, InDegree + N, 0);
  for (size_t I = 0; I < Net.numPlaces(); ++I) {
    const PetriNet::Place Pl = Net.place(PlaceId(I));
    if (Pl.InitialTokens == 0)
      for (TransitionId T : Pl.Consumers)
        ++InDegree[T.index()];
  }
  size_t End = 0;
  for (uint32_t T = 0; T < N; ++T)
    if (InDegree[T] == 0)
      Order[End++] = T;
  for (size_t I = 0; I < End; ++I)
    for (PlaceId P : Net.transition(TransitionId(Order[I])).OutputPlaces) {
      const PetriNet::Place Pl = Net.place(P);
      if (Pl.InitialTokens == 0)
        for (TransitionId T : Pl.Consumers)
          if (--InDegree[T.index()] == 0)
            Order[End++] = T.index();
    }
  return End;
}

/// Tarjan's strongly connected components of the transition graph,
/// without recursion: \p Comp receives each transition's component,
/// numbered in the order they complete, and the count is returned.
/// \p Work is 4N words of scratch.  \p Net must be a marked graph.
uint32_t componentsOf(const PetriNet &Net, uint32_t *Comp, uint32_t *Work) {
  const size_t N = Net.numTransitions();
  // Index is 0 until a transition is entered and Done once its
  // component is complete, so a low-link never takes it.  Comp doubles
  // as the low-link array until then.
  constexpr uint32_t Done = UINT32_MAX;
  uint32_t *Index = Work, *Cursor = Work + N, *Stack = Work + 2 * N,
           *Call = Work + 3 * N, *Low = Comp;
  std::fill(Index, Index + N, 0);
  uint32_t Next = 1, Count = 0;
  size_t StackTop = 0, CallTop = 0;
  auto Enter = [&](uint32_t V) {
    Index[V] = Low[V] = Next++;
    Cursor[V] = 0;
    Stack[StackTop++] = V;
    Call[CallTop++] = V;
  };
  for (uint32_t Root = 0; Root < N; ++Root) {
    if (Index[Root] != 0)
      continue;
    Enter(Root);
    while (CallTop > 0) {
      const uint32_t V = Call[CallTop - 1];
      std::span<const PlaceId> Outs =
          Net.transition(TransitionId(V)).OutputPlaces;
      if (Cursor[V] < Outs.size()) {
        const uint32_t W = headOf(Net, Outs[Cursor[V]++]);
        if (Index[W] == 0)
          Enter(W);
        else
          Low[V] = std::min(Low[V], Index[W]);
        continue;
      }
      --CallTop;
      const uint32_t LowV = Low[V];
      if (LowV == Index[V]) {
        uint32_t W;
        do {
          W = Stack[--StackTop];
          Index[W] = Done;
          Comp[W] = Count;
        } while (W != V);
        ++Count;
      }
      if (CallTop > 0) {
        uint32_t &LowU = Low[Call[CallTop - 1]];
        LowU = std::min(LowU, LowV);
      }
    }
  }
  return Count;
}

/// The strongly connected components of a marked graph's transition
/// graph, filled on demand: Words[0, N) holds each transition's
/// component, and the 4N words after it are free scratch once filled.
struct ComponentMap {
  std::vector<uint32_t> Words;
  uint32_t Count = 0;
  bool Filled = false;

  void fill(const PetriNet &Net) {
    const size_t N = Net.numTransitions();
    Words.resize(5 * N);
    Count = componentsOf(Net, Words.data(), Words.data() + N);
    Filled = true;
  }
};

/// The safety check's work counters, flushed into the global registry
/// once per check on every exit path (the pattern of core/Frustum.cpp's
/// EngineMetricsFlusher).  All are functions of the net and the offered
/// witnesses alone, so they are exact and thread-count-invariant.
struct SafeCheckMetrics {
  uint64_t CoveredPlaces = 0;
  uint64_t SweptSources = 0;
  uint64_t EdgeScans = 0;
  ~SafeCheckMetrics() {
    MetricsRegistry &MR = MetricsRegistry::global();
    MR.add("marked_graph.safe.checks", 1);
    MR.add("marked_graph.safe.covered_places", CoveredPlaces);
    MR.add("marked_graph.safe.swept_sources", SweptSources);
    MR.add("marked_graph.safe.edge_scans", EdgeScans);
  }
};

/// One bit per place: set once a witness has proven the place lies on a
/// one-token cycle.
class CoverBits {
public:
  CoverBits(uint32_t *Words, size_t Places) : Words(Words) {
    std::fill(Words, Words + wordsFor(Places), 0);
  }
  static size_t wordsFor(size_t Places) { return (Places + 31) / 32; }

  bool covered(size_t P) const { return Words[P / 32] >> (P % 32) & 1; }
  void cover(size_t P) {
    if (!covered(P)) {
      Words[P / 32] |= uint32_t(1) << (P % 32);
      ++Count;
    }
  }
  /// Places covered so far.
  size_t count() const { return Count; }

private:
  uint32_t *Words;
  size_t Count = 0;
};

/// Covers every place of each offered walk that is closed and holds one
/// token in all.
void coverOfferedCycles(const PetriNet &Net, const CycleWitnesses &W,
                        CoverBits &Cover) {
  const size_t E = Net.numPlaces();
  for (size_t C = 0; C + 1 < W.Start.size(); ++C) {
    const size_t Begin = W.Start[C], End = W.Start[C + 1];
    if (Begin >= End || End > W.Places.size())
      continue;
    uint64_t Tokens = 0;
    bool Closed = true;
    for (size_t I = Begin; I < End && Closed; ++I) {
      const PlaceId P = W.Places[I];
      const PlaceId Next = W.Places[I + 1 < End ? I + 1 : Begin];
      Closed = P.index() < E && Next.index() < E &&
               headOf(Net, P) == tailOf(Net, Next);
      if (Closed)
        Tokens += Net.place(P).InitialTokens;
    }
    if (Closed && Tokens == 1)
      for (size_t I = Begin; I < End; ++I)
        Cover.cover(W.Places[I].index());
  }
}

/// Covers every place u -> v beside a reverse partner v -> u, the two
/// holding one token together, and every one-token self-loop.  Each
/// transition u stamps its out-neighbours v with the fewest tokens on a
/// place u -> v (the stamp's low bit); then each input place v -> u of u
/// finds its partner in v's stamp.  \p Stamp is N words of scratch.
void coverReversePartners(const PetriNet &Net, uint32_t *Stamp,
                          CoverBits &Cover) {
  const size_t N = Net.numTransitions();
  std::fill(Stamp, Stamp + N, 0);
  for (uint32_t U = 0; U < N; ++U) {
    const PetriNet::Transition Tr = Net.transition(TransitionId(U));
    const uint32_t Mark = (U + 1) << 1;
    for (PlaceId P : Tr.OutputPlaces) {
      const uint32_t V = headOf(Net, P), K = Net.place(P).InitialTokens;
      if (V == U) {
        if (K == 1)
          Cover.cover(P.index());
        continue;
      }
      Stamp[V] = (Stamp[V] & ~1u) == Mark ? Stamp[V] & (Mark | K) : Mark | K;
    }
    for (PlaceId Q : Tr.InputPlaces) {
      const uint32_t V = tailOf(Net, Q);
      if (V != U && (Stamp[V] & ~1u) == Mark &&
          Net.place(Q).InitialTokens + (Stamp[V] & 1) == 1)
        Cover.cover(Q.index());
    }
  }
}

/// Polls before one batch of the sweep: the fault site, then the token.
Status pollSweep(const SafetyCheckOptions &Opts, size_t Batch,
                 size_t Batches) {
  if (Opts.Faults && !Opts.FaultSite.empty())
    if (Status St = Opts.Faults->checkpoint(Opts.FaultSite); !St)
      return St;
  assert((!Opts.Cancel || !Opts.Stage.empty()) && "a token needs a stage");
  if (Opts.Cancel && Opts.Cancel->cancelled())
    return Opts.Cancel->status(
        Opts.Stage, "in the safety sweep, before batch " +
                        std::to_string(Batch + 1) + " of " +
                        std::to_string(Batches));
  return Status::ok();
}

/// The word-parallel sweep (see isSafeMarkedGraph) from the heads of the
/// places \p Cover leaves uncovered.  \p Order is Kahn's order of the
/// token-free subgraph, all N transitions.
Expected<bool> sweepUncovered(const PetriNet &Net, const uint32_t *Order,
                              const CoverBits &Cover,
                              const SafetyCheckOptions &Opts,
                              SafeCheckMetrics &Metrics) {
  const size_t N = Net.numTransitions(), E = Net.numPlaces();
  size_t Free = 0;
  for (size_t I = 0; I < E; ++I)
    Free += Net.place(PlaceId(I)).InitialTokens == 0;

  // One block of words: each transition's topological position, the
  // in-edges by target position as compressed-sparse-row lists split by
  // token count (items are source positions, rows in input-place
  // order), and the sources' positions, ascending.
  std::vector<uint32_t> Words(N + 2 * (N + 1) + E + N);
  uint32_t *Pos = Words.data(), *FreeStart = Pos + N,
           *MarkedStart = FreeStart + N + 1, *FreeItem = MarkedStart + N + 1,
           *MarkedItem = FreeItem + Free, *Sources = FreeItem + E;
  for (uint32_t I = 0; I < N; ++I)
    Pos[Order[I]] = I;
  uint32_t F = 0, M = 0;
  for (uint32_t P = 0; P < N; ++P) {
    FreeStart[P] = F;
    MarkedStart[P] = M;
    for (PlaceId Q : Net.transition(TransitionId(Order[P])).InputPlaces) {
      const uint32_t U = Pos[tailOf(Net, Q)];
      if (Net.place(Q).InitialTokens == 0)
        FreeItem[F++] = U;
      else
        MarkedItem[M++] = U;
    }
  }
  FreeStart[N] = F;
  MarkedStart[N] = M;
  for (size_t I = 0; I < E; ++I)
    if (!Cover.covered(I))
      Sources[Pos[headOf(Net, PlaceId(I))]] = 1;
  size_t S = 0;
  for (uint32_t P = 0; P < N; ++P)
    if (Sources[P] == 1)
      Sources[S++] = P;
  Metrics.SweptSources += S;

  // One bit per source, 64 sources per batch.  Reach0[p] holds the
  // batch sources reaching p by a token-free walk; Reach1[p] those
  // reaching it by a walk with exactly one token.
  std::vector<uint64_t> Reach(2 * N, 0);
  uint64_t *Reach0 = Reach.data(), *Reach1 = Reach0 + N;
  const size_t Batches = (S + 63) / 64;
  uint32_t PrevLo = 0;
  for (size_t B = 0; B < S; B += 64) {
    if (Status St = pollSweep(Opts, B / 64, Batches); !St)
      return St;
    const uint32_t *Src = Sources + B;
    const size_t Count = std::min<size_t>(64, S - B);
    const uint32_t Lo = Src[0], Last = Src[Count - 1];
    // No token-free walk leads back to a position before Lo; clear what
    // the previous batch left there.
    std::fill(Reach0 + PrevLo, Reach0 + Lo, 0);
    PrevLo = Lo;

    // Layer 0, from the batch's first source on.
    size_t J = 0;
    for (uint32_t P = Lo; P < N; ++P) {
      uint64_t W = 0;
      if (J < Count && Src[J] == P)
        W = uint64_t(1) << J++;
      for (uint32_t I = FreeStart[P]; I < FreeStart[P + 1]; ++I)
        W |= Reach0[FreeItem[I]];
      Reach0[P] = W;
    }
    Metrics.EdgeScans += FreeStart[N] - FreeStart[Lo];

    // Layer 1, entered through one-token edges, up to the batch's last
    // source: a token-free predecessor precedes its successor in the
    // order.  Edge (u, v, k) into a source v is covered iff v's bit is
    // in u's layer-0 word (k = 1) or in either word (k = 0).
    J = 0;
    uint64_t Uncovered = 0;
    for (uint32_t P = 0; P <= Last; ++P) {
      uint64_t Bit = 0;
      if (J < Count && Src[J] == P)
        Bit = uint64_t(1) << J++;
      uint64_t W = 0;
      for (uint32_t I = FreeStart[P]; I < FreeStart[P + 1]; ++I) {
        const uint32_t U = FreeItem[I];
        W |= Reach1[U];
        Uncovered |= Bit & ~(Reach0[U] | Reach1[U]);
      }
      for (uint32_t I = MarkedStart[P]; I < MarkedStart[P + 1]; ++I) {
        const uint32_t U = MarkedItem[I];
        W |= Reach0[U];
        Uncovered |= Bit & ~Reach0[U];
      }
      Reach1[P] = W;
    }
    Metrics.EdgeScans += FreeStart[Last + 1] + MarkedStart[Last + 1];
    if (Uncovered)
      return false;
  }
  return true;
}

/// The one cover routine: decides Thm A.5.2 for a live marked graph
/// whose places hold at most one token each, given Kahn's \p Order of
/// it.  Witnesses cover what they can, cheapest first, each later one
/// only while places remain; the sweep takes the rest.  \p Components
/// is filled here if the component witness needs it and the caller has
/// not.  \p Words is N + ceil(E / 32) words of scratch.
Expected<bool> coverThenSweep(const PetriNet &Net,
                              const SafetyCheckOptions &Opts,
                              const uint32_t *Order, uint32_t *Words,
                              SafeCheckMetrics &Metrics,
                              ComponentMap &Components) {
  const size_t N = Net.numTransitions(), E = Net.numPlaces();
  CoverBits Cover(Words + N, E);
  coverOfferedCycles(Net, Opts.Witnesses, Cover);
  if (Cover.count() < E)
    coverReversePartners(Net, Words, Cover);

  if (Cover.count() < E) {
    // Each component's places' tokens (saturating at 2), summed in the
    // scratch after the component ids.
    if (!Components.Filled)
      Components.fill(Net);
    const uint32_t *Comp = Components.Words.data();
    uint32_t *Sum = Components.Words.data() + N;
    std::fill(Sum, Sum + Components.Count, 0);
    for (size_t I = 0; I < E; ++I) {
      const PlaceId P(I);
      const uint32_t C = Comp[tailOf(Net, P)];
      if (C == Comp[headOf(Net, P)])
        Sum[C] = std::min<uint32_t>(2, Sum[C] + Net.place(P).InitialTokens);
    }
    for (size_t I = 0; I < E; ++I) {
      if (Cover.covered(I))
        continue;
      const PlaceId P(I);
      const uint32_t C = Comp[tailOf(Net, P)];
      if (C != Comp[headOf(Net, P)]) {
        // An edge between two components lies on no cycle.
        Metrics.CoveredPlaces = Cover.count();
        return false;
      }
      if (Sum[C] == 1)
        Cover.cover(I);
    }
  }
  Metrics.CoveredPlaces = Cover.count();
  if (Cover.count() == E)
    return true;
  return sweepUncovered(Net, Order, Cover, Opts, Metrics);
}

/// Words of scratch the safety check takes: Kahn's order, then N words
/// for the in-degrees and stamps, then the cover bits.
size_t safetyScratchWords(const PetriNet &Net) {
  return 2 * Net.numTransitions() + CoverBits::wordsFor(Net.numPlaces());
}

} // namespace

bool sdsp::isLiveMarkedGraph(const PetriNet &Net) {
  const size_t N = Net.numTransitions();
  std::vector<uint32_t> Words(2 * N);
  return tokenFreeOrder(Net, Words.data(), Words.data() + N) == N;
}

bool sdsp::isSafeMarkedGraph(const PetriNet &Net) {
  Expected<bool> Safe = checkSafeMarkedGraph(Net, SafetyCheckOptions{});
  return Safe && *Safe;
}

Expected<bool> sdsp::checkSafeMarkedGraph(const PetriNet &Net,
                                          const SafetyCheckOptions &Opts) {
  SafeCheckMetrics Metrics;
  const size_t N = Net.numTransitions();
  // An edge with two or more tokens lies only on cycles with two or
  // more: unsafe.
  for (size_t I = 0; I < Net.numPlaces(); ++I) {
    const PetriNet::Place Pl = Net.place(PlaceId(I));
    if (Pl.Producers.size() != 1 || Pl.Consumers.size() != 1)
      return false; // Not a marked graph.
    if (Pl.InitialTokens > 1)
      return false;
  }
  std::vector<uint32_t> Words(safetyScratchWords(Net));
  if (tokenFreeOrder(Net, Words.data() + N, Words.data()) != N)
    return false; // A token-free cycle: not live.
  ComponentMap Components;
  return coverThenSweep(Net, Opts, Words.data(), Words.data() + N, Metrics,
                        Components);
}

Expected<MarkedGraphVerdicts>
sdsp::classifyMarkedGraph(const PetriNet &Net,
                          const SafetyCheckOptions &Opts) {
  const size_t N = Net.numTransitions();
  MarkedGraphVerdicts V;
  ComponentMap Components;
  Components.fill(Net);
  V.StronglyConnected = N > 0 && Components.Count == 1;
  std::vector<uint32_t> Words(safetyScratchWords(Net));
  V.Live = tokenFreeOrder(Net, Words.data() + N, Words.data()) == N;
  if (!V.Live)
    return V;
  for (size_t I = 0; I < Net.numPlaces(); ++I)
    if (Net.place(PlaceId(I)).InitialTokens > 1)
      return V; // Unsafe without a check.
  SafeCheckMetrics Metrics;
  Expected<bool> Safe = coverThenSweep(Net, Opts, Words.data(),
                                       Words.data() + N, Metrics, Components);
  if (!Safe)
    return Safe.status();
  V.Safe = *Safe;
  return V;
}

bool sdsp::isStructurallyPersistent(const PetriNet &Net) {
  for (size_t I = 0; I < Net.numPlaces(); ++I)
    if (Net.place(PlaceId(I)).Consumers.size() > 1)
      return false;
  return true;
}

std::optional<TransitionId>
sdsp::stronglyConnectedRoot(const MarkedGraphView &G) {
  size_t N = G.numVertices();
  if (N == 0)
    return std::nullopt;

  auto Reaches = [&](bool Forward) {
    std::vector<bool> Seen(N, false);
    std::deque<size_t> Work{0};
    Seen[0] = true;
    size_t Count = 1;
    while (!Work.empty()) {
      size_t V = Work.front();
      Work.pop_front();
      const auto &Edges =
          Forward ? G.outEdges(TransitionId(V)) : G.inEdges(TransitionId(V));
      for (uint32_t EI : Edges) {
        const MarkedGraphView::Edge &E = G.edge(EI);
        size_t W = Forward ? E.To.index() : E.From.index();
        if (Seen[W])
          continue;
        Seen[W] = true;
        ++Count;
        Work.push_back(W);
      }
    }
    return Count == N;
  };

  if (Reaches(/*Forward=*/true) && Reaches(/*Forward=*/false))
    return TransitionId(0u);
  return std::nullopt;
}
