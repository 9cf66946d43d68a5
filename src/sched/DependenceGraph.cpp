//===- sched/DependenceGraph.cpp - Scheduler-facing dependences ------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "sched/DependenceGraph.h"

#include "petri/CycleRatio.h"
#include "petri/PetriNet.h"

#include <cassert>
#include <map>

using namespace sdsp;

uint32_t DepGraph::maxDistance() const {
  uint32_t Max = 0;
  for (const Dep &D : Deps)
    Max = std::max(Max, D.Distance);
  return Max;
}

Rational DepGraph::recurrenceMii() const {
  // Reuse the parametric cycle-ratio machinery by phrasing the
  // dependence graph as a marked graph: a transition per op, a place
  // per dependence carrying its distance as tokens.
  PetriNetBuilder Builder;
  std::vector<TransitionId> Ts;
  Ts.reserve(Ops.size());
  for (const Op &O : Ops)
    Ts.push_back(Builder.addTransition(O.Name, O.Latency));
  for (const Dep &D : Deps) {
    PlaceId P = Builder.addPlace("d", D.Distance);
    Builder.addArc(Ts[D.From], P);
    Builder.addArc(P, Ts[D.To]);
  }
  PetriNet Net = Builder.build();
  MarkedGraphView View(Net);
  std::optional<CriticalCycleInfo> Info = criticalCycleByParametricSearch(View);
  if (!Info)
    return Rational(0);
  return Info->CycleTime;
}

namespace {

/// Maps compute nodes to dense op indices.
struct OpIndexMap {
  std::vector<uint32_t> NodeToOp;
  explicit OpIndexMap(const Sdsp &S)
      : NodeToOp(S.graph().numNodes(), ~0u) {
    uint32_t Next = 0;
    for (NodeId N : S.graph().nodeIds())
      if (!isBoundaryOp(S.graph().node(N).Kind))
        NodeToOp[N.index()] = Next++;
  }
};

DepGraph buildBase(const Sdsp &S, const OpIndexMap &Map) {
  const DataflowGraph &G = S.graph();
  DepGraph D;
  for (NodeId N : G.nodeIds()) {
    const DataflowGraph::Node &Node = G.node(N);
    if (isBoundaryOp(Node.Kind))
      continue;
    D.Ops.push_back(DepGraph::Op{std::string(Node.Name), Node.ExecTime});
  }
  for (ArcId A : G.arcIds()) {
    if (!S.isInteriorArc(A))
      continue;
    const DataflowGraph::Arc &Arc = G.arc(A);
    D.Deps.push_back(DepGraph::Dep{Map.NodeToOp[Arc.From.index()],
                                   Map.NodeToOp[Arc.To.index()],
                                   Arc.Distance});
  }
  return D;
}

} // namespace

DepGraph sdsp::depGraphFromSdsp(const Sdsp &S) {
  OpIndexMap Map(S);
  return buildBase(S, Map);
}

DepGraph sdsp::depGraphFromSdspWithAcks(const Sdsp &S) {
  OpIndexMap Map(S);
  DepGraph D = buildBase(S, Map);
  const DataflowGraph &G = S.graph();
  for (Sdsp::AckView Ack : S.acks()) {
    const DataflowGraph::Arc &Head = G.arc(Ack.Path.front());
    const DataflowGraph::Arc &Tail = G.arc(Ack.Path.back());
    // The head producer's iteration m waits for the tail consumer's
    // iteration m - Slots (see core/ScheduleDerivation.cpp).  Slots of
    // zero (a full feedback buffer) yields a same-iteration
    // anti-dependence; note criticalPathHeights() must only be used on
    // the data-only graph in that case.
    D.Deps.push_back(DepGraph::Dep{Map.NodeToOp[Tail.To.index()],
                                   Map.NodeToOp[Head.From.index()],
                                   Ack.Slots});
  }
  return D;
}

std::vector<uint64_t> sdsp::criticalPathHeights(const DepGraph &G) {
  // Longest path to any sink over distance-0 deps (acyclic by SDSP
  // construction).  Reverse topological accumulation.
  size_t N = G.size();
  std::vector<std::vector<uint32_t>> Succ(N);
  std::vector<uint32_t> InDeg(N, 0);
  for (size_t I = 0; I < G.Deps.size(); ++I) {
    if (G.Deps[I].Distance != 0)
      continue;
    Succ[G.Deps[I].From].push_back(static_cast<uint32_t>(I));
    ++InDeg[G.Deps[I].To];
  }
  // Topological order via Kahn.
  std::vector<uint32_t> Order, Ready;
  for (uint32_t I = 0; I < N; ++I)
    if (InDeg[I] == 0)
      Ready.push_back(I);
  while (!Ready.empty()) {
    uint32_t V = Ready.back();
    Ready.pop_back();
    Order.push_back(V);
    for (uint32_t DI : Succ[V])
      if (--InDeg[G.Deps[DI].To] == 0)
        Ready.push_back(G.Deps[DI].To);
  }
  assert(Order.size() == N && "distance-0 dependences form a cycle");

  std::vector<uint64_t> Height(N, 0);
  for (auto It = Order.rbegin(); It != Order.rend(); ++It) {
    uint32_t V = *It;
    Height[V] = G.Ops[V].Latency;
    for (uint32_t DI : Succ[V])
      Height[V] = std::max(Height[V],
                           G.Ops[V].Latency + Height[G.Deps[DI].To]);
  }
  return Height;
}
