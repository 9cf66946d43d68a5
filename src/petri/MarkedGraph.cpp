//===- petri/MarkedGraph.cpp - Marked-graph structure & theorems ----------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "petri/MarkedGraph.h"

#include "support/Metrics.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <utility>

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

/// DFS-based cycle check over the subgraph of token-free edges.  A cycle
/// of token-free edges is exactly a token-free simple cycle.
bool sdsp::isLiveMarkedGraph(const PetriNet &Net) {
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

namespace {

/// The safety check's work counters, flushed into the global registry
/// once per call on every exit path (the pattern of core/Frustum.cpp's
/// EngineMetricsFlusher).  Both are functions of the net alone, so they
/// are exact and thread-count-invariant.
struct SafeCheckMetrics {
  uint64_t EdgeScans = 0;
  ~SafeCheckMetrics() {
    MetricsRegistry &MR = MetricsRegistry::global();
    MR.add("marked_graph.safe.checks", 1);
    MR.add("marked_graph.safe.edge_scans", EdgeScans);
  }
};

/// Adjacency in compressed-sparse-row form: row R holds
/// Item[Start[R] .. Start[R + 1]).
struct Csr {
  std::vector<uint32_t> Start;
  std::vector<uint32_t> Item;

  /// Groups (row, item) pairs by row, keeping their input order.
  Csr(size_t Rows, const std::vector<std::pair<uint32_t, uint32_t>> &Pairs)
      : Start(Rows + 1, 0), Item(Pairs.size()) {
    for (auto [Row, It] : Pairs)
      ++Start[Row + 1];
    for (size_t R = 0; R < Rows; ++R)
      Start[R + 1] += Start[R];
    std::vector<uint32_t> Next(Start.begin(), Start.end() - 1);
    for (auto [Row, It] : Pairs)
      Item[Next[Row]++] = It;
  }
};

} // namespace

bool sdsp::isSafeMarkedGraph(const PetriNet &Net) {
  SafeCheckMetrics Metrics;
  const size_t N = Net.numTransitions();

  // Edges as (from, to) pairs, split by token count.  An edge with two
  // or more tokens lies only on cycles with two or more: unsafe.
  std::vector<std::pair<uint32_t, uint32_t>> Free, Marked;
  for (size_t I = 0; I < Net.numPlaces(); ++I) {
    const PetriNet::Place &Pl = Net.place(PlaceId(I));
    if (Pl.Producers.size() != 1 || Pl.Consumers.size() != 1)
      return false; // Not a marked graph.
    if (Pl.InitialTokens > 1)
      return false;
    std::pair<uint32_t, uint32_t> E(Pl.Producers.front().index(),
                                    Pl.Consumers.front().index());
    (Pl.InitialTokens == 0 ? Free : Marked).push_back(E);
  }

  // Topological order of the token-free subgraph (Kahn).  Liveness makes
  // it a DAG; an order that misses a transition means a token-free
  // cycle, i.e. a net that is not live.
  std::vector<uint32_t> Order, Pos(N);
  {
    Csr Out(N, Free);
    std::vector<uint32_t> InDegree(N, 0);
    for (auto [From, To] : Free)
      ++InDegree[To];
    Order.reserve(N);
    for (uint32_t T = 0; T < N; ++T)
      if (InDegree[T] == 0)
        Order.push_back(T);
    for (size_t I = 0; I < Order.size(); ++I)
      for (uint32_t J = Out.Start[Order[I]]; J < Out.Start[Order[I] + 1];
           ++J)
        if (--InDegree[Out.Item[J]] == 0)
          Order.push_back(Out.Item[J]);
    if (Order.size() != N)
      return false;
    for (uint32_t I = 0; I < N; ++I)
      Pos[Order[I]] = I;
  }

  // In-edges by target, everything renumbered to topological positions
  // so that both sweeps walk the word arrays in order.
  for (auto *Edges : {&Free, &Marked})
    for (std::pair<uint32_t, uint32_t> &E : *Edges)
      E = {Pos[E.second], Pos[E.first]};
  const Csr FreeIn(N, Free), MarkedIn(N, Marked);

  // One bit per source, 64 sources per batch, taken in topological
  // order.  Reach0[p] holds the batch sources reaching p by a token-free
  // walk; Reach1[p] those reaching it by a walk with exactly one token.
  std::vector<uint64_t> Reach0(N, 0), Reach1(N, 0);
  for (size_t Lo = 0; Lo < N; Lo += 64) {
    const size_t Hi = std::min(N, Lo + 64);
    // No token-free walk leads back to a position before Lo; clear what
    // the previous batch left there.
    if (Lo > 0)
      std::fill(Reach0.begin() + (Lo - 64), Reach0.begin() + Lo, 0);

    // Layer 0, from the batch's first position on.
    for (size_t P = Lo; P < N; ++P) {
      uint64_t W = P < Hi ? uint64_t(1) << (P - Lo) : 0;
      for (uint32_t I = FreeIn.Start[P]; I < FreeIn.Start[P + 1]; ++I)
        W |= Reach0[FreeIn.Item[I]];
      Reach0[P] = W;
    }
    Metrics.EdgeScans += FreeIn.Start[N] - FreeIn.Start[Lo];

    // Layer 1, entered through one-token edges.  Only positions up to
    // the batch's last feed the coverage test: a token-free predecessor
    // precedes its successor in the order.
    for (size_t P = 0; P < Lo; ++P) {
      uint64_t W = 0;
      for (uint32_t I = FreeIn.Start[P]; I < FreeIn.Start[P + 1]; ++I)
        W |= Reach1[FreeIn.Item[I]];
      for (uint32_t I = MarkedIn.Start[P]; I < MarkedIn.Start[P + 1]; ++I)
        W |= Reach0[MarkedIn.Item[I]];
      Reach1[P] = W;
    }
    // The batch itself: edge (u, v, k) into a source v is covered iff
    // v's bit is in u's layer-0 word (k = 1) or in either word (k = 0).
    uint64_t Uncovered = 0;
    for (size_t P = Lo; P < Hi; ++P) {
      const uint64_t Bit = uint64_t(1) << (P - Lo);
      uint64_t W = 0;
      for (uint32_t I = FreeIn.Start[P]; I < FreeIn.Start[P + 1]; ++I) {
        uint32_t U = FreeIn.Item[I];
        W |= Reach1[U];
        Uncovered |= Bit & ~(Reach0[U] | Reach1[U]);
      }
      for (uint32_t I = MarkedIn.Start[P]; I < MarkedIn.Start[P + 1]; ++I) {
        uint32_t U = MarkedIn.Item[I];
        W |= Reach0[U];
        Uncovered |= Bit & ~Reach0[U];
      }
      Reach1[P] = W;
    }
    Metrics.EdgeScans += FreeIn.Start[Hi] + MarkedIn.Start[Hi];
    if (Uncovered)
      return false;
  }
  return true;
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
