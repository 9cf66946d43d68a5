//===- petri/CycleRatio.cpp - Critical cycles & cycle time -----------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "petri/CycleRatio.h"

#include "support/Status.h"

#include <algorithm>
#include <cassert>
#include <span>

using namespace sdsp;

namespace {

/// Edge lists per vertex in compressed-sparse-row form: vertex V's
/// edges are Items[Start[V] .. Start[V + 1]).
struct EdgeLists {
  std::vector<uint32_t> Start;
  std::vector<uint32_t> Items;

  std::span<const uint32_t> row(size_t V) const {
    return {Items.data() + Start[V], Items.data() + Start[V + 1]};
  }

  /// Fills the lists of \p N vertices with the edges \p Keep accepts,
  /// each under its source vertex, in ascending edge order.
  template <typename KeepFn>
  void assign(const MarkedGraphView &G, size_t N, KeepFn Keep) {
    // Counting sort by source, stable: Start[V] serves as row V's fill
    // cursor and ends at row V + 1's begin; one shift restores it.
    Start.assign(N + 1, 0);
    for (size_t EI = 0; EI < G.numEdges(); ++EI)
      if (Keep(static_cast<uint32_t>(EI)))
        ++Start[G.edge(EI).From.index() + 1];
    for (size_t V = 0; V < N; ++V)
      Start[V + 1] += Start[V];
    Items.resize(Start[N]);
    for (size_t EI = 0; EI < G.numEdges(); ++EI)
      if (Keep(static_cast<uint32_t>(EI)))
        Items[Start[G.edge(EI).From.index()]++] = static_cast<uint32_t>(EI);
    for (size_t V = N; V > 0; --V)
      Start[V] = Start[V - 1];
    Start[0] = 0;
  }
};

Rational cycleRatio(const SimpleCycle &C) {
  assert(C.TokenSum > 0 && "token-free cycle in a live net");
  return Rational(static_cast<int64_t>(C.ValueSum),
                  static_cast<int64_t>(C.TokenSum));
}

SimpleCycle makeCycle(const MarkedGraphView &G,
                      const std::vector<uint32_t> &Edges) {
  SimpleCycle C;
  C.Edges = Edges;
  for (uint32_t EI : Edges) {
    const MarkedGraphView::Edge &E = G.edge(EI);
    C.ValueSum += G.net().transition(E.From).ExecTime;
    C.TokenSum += E.Tokens;
  }
  return C;
}

/// Bellman-Ford longest-path relaxation from a virtual source that
/// reaches every vertex with distance 0.  If a positive-weight cycle
/// exists, returns its edges; otherwise returns std::nullopt and leaves
/// the converged potentials in \p Dist.
std::optional<std::vector<uint32_t>>
findPositiveCycle(const MarkedGraphView &G,
                  const std::vector<int64_t> &Weight,
                  std::vector<int64_t> &Dist) {
  size_t N = G.numVertices();
  Dist.assign(N, 0);
  std::vector<uint32_t> PredEdge(N, UINT32_MAX);

  size_t RelaxedVertex = SIZE_MAX;
  for (size_t Pass = 0; Pass <= N; ++Pass) {
    RelaxedVertex = SIZE_MAX;
    for (size_t EI = 0; EI < G.numEdges(); ++EI) {
      const MarkedGraphView::Edge &E = G.edge(EI);
      size_t U = E.From.index(), V = E.To.index();
      if (Dist[U] + Weight[EI] > Dist[V]) {
        Dist[V] = Dist[U] + Weight[EI];
        PredEdge[V] = static_cast<uint32_t>(EI);
        RelaxedVertex = V;
      }
    }
    if (RelaxedVertex == SIZE_MAX)
      return std::nullopt; // Converged: no positive cycle.
  }

  // A relaxation on pass N implies a positive cycle in the predecessor
  // graph.  Walk back N steps to guarantee we are standing inside it.
  size_t V = RelaxedVertex;
  for (size_t I = 0; I < N; ++I) {
    assert(PredEdge[V] != UINT32_MAX && "broken predecessor chain");
    V = G.edge(PredEdge[V]).From.index();
  }
  std::vector<uint32_t> Cycle;
  size_t Cursor = V;
  do {
    uint32_t EI = PredEdge[Cursor];
    Cycle.push_back(EI);
    Cursor = G.edge(EI).From.index();
  } while (Cursor != V);
  std::reverse(Cycle.begin(), Cycle.end());
  return Cycle;
}

/// With converged potentials Pi for weights w (all cycles <= 0), an edge
/// is *tight* when Pi[u] + w == Pi[v]; zero-weight (critical) cycles are
/// exactly the cycles of tight edges.  Returns the vertices lying on
/// nontrivial SCCs of the tight subgraph.  When \p Include is non-null,
/// only edges between included vertices participate (Howard's converged
/// potentials are only valid — and only needed — on the vertices whose
/// ratio attains lambda*).
std::vector<TransitionId>
verticesOnTightCycles(const MarkedGraphView &G,
                      const std::vector<int64_t> &Weight,
                      const std::vector<int64_t> &Pi,
                      const std::vector<uint8_t> *Include = nullptr,
                      TightCycleStructure *StructureOut = nullptr) {
  size_t N = G.numVertices();
  EdgeLists TightOut;
  TightOut.assign(G, N, [&](uint32_t EI) {
    const MarkedGraphView::Edge &E = G.edge(EI);
    if (Include &&
        (!(*Include)[E.From.index()] || !(*Include)[E.To.index()]))
      return false;
    return Pi[E.From.index()] + Weight[EI] == Pi[E.To.index()];
  });

  // Tarjan SCC (iterative) over the tight subgraph.
  std::vector<int64_t> Index(N, -1), Low(N, 0);
  std::vector<bool> OnStack(N, false);
  std::vector<size_t> SccId(N, SIZE_MAX);
  std::vector<size_t> SccSize;
  std::vector<size_t> Stack;
  int64_t NextIndex = 0;

  struct Frame {
    size_t V;
    size_t EdgePos;
  };
  std::vector<Frame> Frames;

  std::vector<bool> HasTightSelfLoop(N, false);

  for (size_t Root = 0; Root < N; ++Root) {
    if (Index[Root] != -1)
      continue;
    Frames.push_back({Root, 0});
    Index[Root] = Low[Root] = NextIndex++;
    Stack.push_back(Root);
    OnStack[Root] = true;
    while (!Frames.empty()) {
      Frame &F = Frames.back();
      size_t V = F.V;
      if (F.EdgePos < TightOut.row(V).size()) {
        const MarkedGraphView::Edge &E = G.edge(TightOut.row(V)[F.EdgePos++]);
        size_t W = E.To.index();
        if (W == V)
          HasTightSelfLoop[V] = true;
        if (Index[W] == -1) {
          Index[W] = Low[W] = NextIndex++;
          Stack.push_back(W);
          OnStack[W] = true;
          Frames.push_back({W, 0});
        } else if (OnStack[W]) {
          Low[V] = std::min(Low[V], Index[W]);
        }
        continue;
      }
      if (Low[V] == Index[V]) {
        size_t Id = SccSize.size();
        size_t Count = 0;
        while (true) {
          size_t W = Stack.back();
          Stack.pop_back();
          OnStack[W] = false;
          SccId[W] = Id;
          ++Count;
          if (W == V)
            break;
        }
        SccSize.push_back(Count);
      }
      Frames.pop_back();
      if (!Frames.empty())
        Low[Frames.back().V] = std::min(Low[Frames.back().V], Low[V]);
    }
  }

  // An SCC is nontrivial (contains a cycle) when it has more than one
  // vertex or a self-loop.
  std::vector<bool> Nontrivial(SccSize.size(), false);
  for (size_t V = 0; V < N; ++V)
    if (SccSize[SccId[V]] > 1 || HasTightSelfLoop[V])
      Nontrivial[SccId[V]] = true;

  std::vector<TransitionId> Result;
  for (size_t V = 0; V < N; ++V)
    if (Nontrivial[SccId[V]])
      Result.push_back(TransitionId(V));

  if (StructureOut) {
    TightCycleStructure St;
    for (size_t Id = 0; Id < SccSize.size(); ++Id)
      if (Nontrivial[Id]) {
        ++St.NumNontrivialSccs;
        St.SccVertices += SccSize[Id];
      }
    // Tight edges internal to a nontrivial SCC.  Counting *edges*, not
    // adjacency, matters: two parallel tight edges between the same
    // vertex pair are two distinct critical cycles.
    for (size_t V = 0; V < N; ++V)
      for (uint32_t EI : TightOut.row(V))
        if (SccId[G.edge(EI).To.index()] == SccId[V] &&
            Nontrivial[SccId[V]])
          ++St.SccEdges;
    *StructureOut = St;
  }
  return Result;
}

} // namespace

std::optional<CriticalCycleInfo>
sdsp::criticalCycleByEnumeration(const MarkedGraphView &G) {
  std::vector<SimpleCycle> Cycles = enumerateSimpleCycles(G);
  if (Cycles.empty())
    return std::nullopt;

  Rational Best(-1);
  for (const SimpleCycle &C : Cycles)
    Best = std::max(Best, cycleRatio(C));

  CriticalCycleInfo Info;
  Info.CycleTime = Best;
  Info.ComputationRate =
      Best.isZero() ? Rational(0) : Best.reciprocal();

  std::vector<bool> OnCritical(G.numVertices(), false);
  for (const SimpleCycle &C : Cycles) {
    if (cycleRatio(C) != Best)
      continue;
    ++Info.NumCriticalCycles;
    if (Info.Witness.Edges.empty())
      Info.Witness = C;
    for (TransitionId T : cycleTransitions(G, C))
      OnCritical[T.index()] = true;
  }
  for (size_t V = 0; V < G.numVertices(); ++V)
    if (OnCritical[V])
      Info.CriticalTransitions.push_back(TransitionId(V));
  return Info;
}

namespace {

std::optional<CriticalCycleInfo>
parametricSearchImpl(const MarkedGraphView &G,
                     TightCycleStructure *StructureOut) {
  // Start below every possible ratio so the first probe finds any cycle
  // at all (live nets have M(C) >= 1, so cycle weight Omega + M > 0
  // under lambda = -1).
  Rational Lambda(-1);
  std::optional<SimpleCycle> Witness;
  std::vector<int64_t> Weight(G.numEdges());
  std::vector<int64_t> Dist;

  while (true) {
    // Scale weights to integers: w_e = tau(from) * den - num * tokens.
    // A cycle has positive weight iff Omega(C)/M(C) > lambda.
    for (size_t EI = 0; EI < G.numEdges(); ++EI) {
      const MarkedGraphView::Edge &E = G.edge(EI);
      int64_t Tau = G.net().transition(E.From).ExecTime;
      Weight[EI] = Tau * Lambda.den() - Lambda.num() * E.Tokens;
    }
    std::optional<std::vector<uint32_t>> Cycle =
        findPositiveCycle(G, Weight, Dist);
    if (!Cycle) {
      if (!Witness)
        return std::nullopt; // Acyclic graph.
      CriticalCycleInfo Info;
      Info.CycleTime = Lambda;
      Info.ComputationRate =
          Lambda.isZero() ? Rational(0) : Lambda.reciprocal();
      Info.Witness = *Witness;
      Info.CriticalTransitions =
          verticesOnTightCycles(G, Weight, Dist, nullptr, StructureOut);
      return Info;
    }
    SimpleCycle C = makeCycle(G, *Cycle);
    Rational Ratio = cycleRatio(C);
    assert(Ratio > Lambda && "parametric search failed to make progress");
    Lambda = Ratio;
    Witness = std::move(C);
  }
}

} // namespace

std::optional<CriticalCycleInfo>
sdsp::criticalCycleByParametricSearch(const MarkedGraphView &G) {
  return parametricSearchImpl(G, nullptr);
}

std::optional<CriticalCycleInfo>
sdsp::maxCycleRatioHoward(const MarkedGraphView &G, uint64_t *IterationsOut,
                          TightCycleStructure *StructureOut,
                          const RoundPoll &Poll) {
  if (IterationsOut)
    *IterationsOut = 0;
  size_t N = G.numVertices();
  size_t NE = G.numEdges();

  // Trim to the cyclic core: peel vertices with no outgoing edge (to a
  // surviving vertex) until none remain.  Every cycle survives, and
  // every surviving vertex has an out-edge, so a policy (one out-edge
  // per vertex) always induces a functional graph.
  std::vector<uint8_t> Alive(N, 1);
  std::vector<uint32_t> OutDeg(N, 0);
  for (size_t EI = 0; EI < NE; ++EI)
    ++OutDeg[G.edge(EI).From.index()];
  std::vector<uint32_t> Peel;
  for (size_t V = 0; V < N; ++V)
    if (OutDeg[V] == 0)
      Peel.push_back(static_cast<uint32_t>(V));
  while (!Peel.empty()) {
    uint32_t V = Peel.back();
    Peel.pop_back();
    Alive[V] = 0;
    for (uint32_t EI : G.inEdges(TransitionId(V))) {
      uint32_t U = G.edge(EI).From.index();
      if (Alive[U] && --OutDeg[U] == 0)
        Peel.push_back(U);
    }
  }

  // Surviving out-edges per vertex (both ends alive), in ascending edge
  // order so every tie-break below is deterministic.
  bool AnyAlive = false;
  for (size_t V = 0; V < N && !AnyAlive; ++V)
    AnyAlive = Alive[V];
  if (!AnyAlive)
    return std::nullopt; // Acyclic graph.
  EdgeLists FOut;
  FOut.assign(G, N, [&](uint32_t EI) {
    const MarkedGraphView::Edge &E = G.edge(EI);
    return Alive[E.From.index()] && Alive[E.To.index()];
  });
#ifndef NDEBUG
  for (size_t V = 0; V < N; ++V)
    assert((!Alive[V] || !FOut.row(V).empty()) &&
           "trimmed vertex without surviving edge");
#endif

  auto EdgeTau = [&](uint32_t EI) -> int64_t {
    return G.net().transition(G.edge(EI).From).ExecTime;
  };
  // Reduced weight w(e; lambda) = tau(from) * den - num * tokens: a
  // cycle's reduced-weight sum is den * (Omega - lambda * M), zero
  // exactly on cycles of ratio lambda.
  auto Reduced = [&](uint32_t EI, const Rational &Lambda) -> int64_t {
    return EdgeTau(EI) * Lambda.den() -
           Lambda.num() * static_cast<int64_t>(G.edge(EI).Tokens);
  };

  std::vector<uint32_t> Pol(N, UINT32_MAX);
  for (size_t V = 0; V < N; ++V)
    if (Alive[V])
      Pol[V] = FOut.row(V).front();

  // Per-vertex policy value: the ratio of the policy cycle the vertex
  // leads to (Lam) and the reduced-weight bias along the policy path to
  // that cycle (Val, in units of 1/Lam.den; only comparable between
  // vertices of equal Lam, which is the only way it is used).
  std::vector<Rational> Lam(N);
  std::vector<int64_t> Val(N, 0);
  std::vector<uint8_t> State(N);
  std::vector<uint32_t> Path;
  uint64_t Iterations = 0;

  auto Target = [&](uint32_t EI) -> uint32_t {
    return G.edge(EI).To.index();
  };

  auto Evaluate = [&]() {
    ++Iterations;
    State.assign(N, 0); // 0 unvisited, 1 on current walk, 2 evaluated
    for (size_t Root = 0; Root < N; ++Root) {
      if (!Alive[Root] || State[Root] != 0)
        continue;
      Path.clear();
      uint32_t U = static_cast<uint32_t>(Root);
      while (State[U] == 0) {
        State[U] = 1;
        Path.push_back(U);
        U = Target(Pol[U]);
      }
      size_t TailEnd = Path.size();
      if (State[U] == 1) {
        // New policy cycle: the suffix of Path starting at U.
        size_t Pos = Path.size();
        while (Path[Pos - 1] != U)
          --Pos;
        --Pos;
        uint64_t WSum = 0, TSum = 0;
        size_t RootIdx = Pos;
        for (size_t I = Pos; I < Path.size(); ++I) {
          uint32_t C = Path[I];
          WSum += static_cast<uint64_t>(EdgeTau(Pol[C]));
          TSum += G.edge(Pol[C]).Tokens;
          if (C < Path[RootIdx])
            RootIdx = I;
        }
        SDSP_CHECK(TSum > 0, "token-free policy cycle in a live net");
        Rational Lambda(static_cast<int64_t>(WSum),
                        static_cast<int64_t>(TSum));
        // Normalize at the cycle's min-index vertex (deterministic and
        // stable across rounds), then unwind values against the
        // successor direction; the cycle's reduced weights sum to zero
        // at Lambda, so the assignment is consistent.
        size_t K = Path.size() - Pos;
        uint32_t RootV = Path[RootIdx];
        Lam[RootV] = Lambda;
        Val[RootV] = 0;
        State[RootV] = 2;
        for (size_t Step = 1; Step < K; ++Step) {
          size_t I = Pos + ((RootIdx - Pos) + K - Step) % K;
          uint32_t C = Path[I];
          uint32_t Succ = Target(Pol[C]);
          Lam[C] = Lambda;
          Val[C] = Reduced(Pol[C], Lambda) + Val[Succ];
          State[C] = 2;
        }
        TailEnd = Pos;
      }
      // Unwind the tail (nearest the evaluated region first).
      for (size_t I = TailEnd; I-- > 0;) {
        uint32_t C = Path[I];
        if (State[C] == 2)
          continue; // Part of the cycle handled above.
        uint32_t Succ = Target(Pol[C]);
        Lam[C] = Lam[Succ];
        Val[C] = Reduced(Pol[C], Lam[C]) + Val[Succ];
        State[C] = 2;
      }
    }
  };

  // Policy iteration: ratio improvements first (global), bias
  // improvements only on ratio-stable rounds; both strictly increase
  // the (Lam, Val) profile, so the loop terminates — the cap is a
  // safety net that routes pathological instances to the parametric
  // search rather than risking an unbounded loop.
  constexpr uint64_t MaxIterations = 512;
  while (true) {
    if (Poll && !Poll(Iterations + 1))
      return std::nullopt;
    Evaluate();
    if (Iterations > MaxIterations) {
      if (IterationsOut)
        *IterationsOut = 0;
      return parametricSearchImpl(G, StructureOut);
    }
    bool AnyLam = false;
    for (size_t U = 0; U < N; ++U) {
      if (!Alive[U])
        continue;
      Rational BestLam = Lam[U];
      uint32_t BestE = Pol[U];
      for (uint32_t EI : FOut.row(U))
        if (Lam[Target(EI)] > BestLam) {
          BestLam = Lam[Target(EI)];
          BestE = EI;
        }
      if (BestLam > Lam[U]) {
        Pol[U] = BestE;
        AnyLam = true;
      }
    }
    if (AnyLam)
      continue;
    bool AnyVal = false;
    for (size_t U = 0; U < N; ++U) {
      if (!Alive[U])
        continue;
      int64_t Best = Val[U];
      uint32_t BestE = Pol[U];
      for (uint32_t EI : FOut.row(U)) {
        uint32_t X = Target(EI);
        if (Lam[X] != Lam[U])
          continue;
        int64_t Cand = Reduced(EI, Lam[U]) + Val[X];
        if (Cand > Best) {
          Best = Cand;
          BestE = EI;
        }
      }
      if (BestE != Pol[U]) {
        Pol[U] = BestE;
        AnyVal = true;
      }
    }
    if (!AnyVal)
      break;
  }
  if (IterationsOut)
    *IterationsOut = Iterations;

  // lambda* = the best converged ratio; the witness is the policy cycle
  // of its smallest-index attaining vertex.
  Rational Best(-1);
  uint32_t BestV = UINT32_MAX;
  for (size_t V = 0; V < N; ++V)
    if (Alive[V] && (BestV == UINT32_MAX || Lam[V] > Best)) {
      Best = Lam[V];
      BestV = static_cast<uint32_t>(V);
    }

  State.assign(N, 0);
  uint32_t U = BestV;
  while (State[U] == 0) {
    State[U] = 1;
    U = Target(Pol[U]);
  }
  std::vector<uint32_t> CycleEdges;
  uint32_t Cursor = U;
  do {
    CycleEdges.push_back(Pol[Cursor]);
    Cursor = Target(Pol[Cursor]);
  } while (Cursor != U);

  CriticalCycleInfo Info;
  Info.CycleTime = Best;
  Info.ComputationRate = Best.isZero() ? Rational(0) : Best.reciprocal();
  Info.Witness = makeCycle(G, CycleEdges);
  assert(cycleRatio(Info.Witness) == Best &&
         "policy cycle ratio diverged from converged lambda*");

  // Critical transitions: cycles of ratio lambda* live entirely among
  // the vertices whose Lam attains it (any vertex on such a cycle can
  // reach it, so its converged ratio is lambda*).  On those vertices
  // the converged values are longest-path potentials for the reduced
  // weights at lambda* — phase-2 convergence is exactly
  // Pi[to] >= Pi[from] + w — so the tight-subgraph analysis of the
  // parametric search applies unchanged, restricted to that vertex set.
  std::vector<int64_t> Weight(NE, 0);
  for (size_t EI = 0; EI < NE; ++EI)
    Weight[EI] = Reduced(static_cast<uint32_t>(EI), Best);
  std::vector<uint8_t> Include(N, 0);
  std::vector<int64_t> Pi(N, 0);
  for (size_t V = 0; V < N; ++V)
    if (Alive[V] && Lam[V] == Best) {
      Include[V] = 1;
      Pi[V] = -Val[V];
    }
  Info.CriticalTransitions =
      verticesOnTightCycles(G, Weight, Pi, &Include, StructureOut);
  return Info;
}

std::optional<CriticalCycleInfo>
sdsp::criticalCycle(const MarkedGraphView &G,
                    std::optional<uint64_t> *HowardIterationsOut,
                    size_t EnumerationLimit, const RoundPoll &Poll) {
  if (G.numVertices() <= EnumerationLimit)
    return criticalCycleByEnumeration(G);
  uint64_t Iterations = 0;
  std::optional<CriticalCycleInfo> Info =
      maxCycleRatioHoward(G, &Iterations, nullptr, Poll);
  if (HowardIterationsOut)
    *HowardIterationsOut = Iterations;
  return Info;
}
