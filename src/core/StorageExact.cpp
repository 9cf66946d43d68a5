//===- core/StorageExact.cpp - Optimal chain covers ------------------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "core/StorageExact.h"

#include "core/RateAnalysis.h"
#include "core/SdspPn.h"

#include <algorithm>
#include <cassert>

using namespace sdsp;

namespace {

struct SearchState {
  std::shared_ptr<const DataflowGraph> G;
  Rational AlphaStar;
  Rational TargetRate;
  /// Fixed acknowledgements (feedback arcs).
  std::vector<Sdsp::Ack> FixedAcks;
  /// Forward arcs in assignment order.
  std::vector<ArcId> Arcs;
  /// Open chains: covered arcs, current tip, accumulated value sum.
  struct Chain {
    std::vector<ArcId> Path;
    NodeId Tip;
    uint64_t ValueSum = 0;
  };
  std::vector<Chain> Chains;

  uint64_t Best = ~0ull;
  std::vector<Sdsp::Ack> BestAcks;
  uint64_t Nodes = 0;
  uint64_t Budget = 0;
  bool Exhausted = false;

  uint64_t fixedStorage() const {
    uint64_t Total = 0;
    for (const Sdsp::Ack &A : FixedAcks) {
      uint64_t Resident = 0;
      for (ArcId Arc : A.Path)
        Resident += G->arc(Arc).Distance;
      Total += A.Slots + Resident;
    }
    return Total;
  }

  /// Whole-net verification of a complete cover.
  bool rateHolds(const std::vector<Sdsp::Ack> &Acks) const {
    Sdsp Candidate = Sdsp::withAcks(G, Acks);
    SdspPn Pn = buildSdspPn(Candidate);
    return analyzeRate(Pn).OptimalRate == TargetRate;
  }

  void leaf() {
    uint64_t Cost = Chains.size();
    if (Cost >= Best)
      return;
    std::vector<Sdsp::Ack> Acks = FixedAcks;
    for (const Chain &C : Chains)
      Acks.push_back(Sdsp::Ack{C.Path, 1});
    if (!rateHolds(Acks))
      return;
    Best = Cost;
    BestAcks = std::move(Acks);
  }

  void search(size_t Index) {
    if (++Nodes > Budget) {
      Exhausted = true;
      return;
    }
    if (Chains.size() >= Best)
      return; // Every remaining arc only adds cost.
    if (Index == Arcs.size()) {
      leaf();
      return;
    }
    ArcId A = Arcs[Index];
    const DataflowGraph::Arc &Arc = G->arc(A);
    uint64_t TauTo = G->node(Arc.To).ExecTime;

    // Option 1: append to a compatible open chain.  Index-based access
    // throughout: the recursion grows the vector, so references would
    // dangle.
    size_t OpenChains = Chains.size();
    for (size_t CI = 0; CI < OpenChains && !Exhausted; ++CI) {
      if (Chains[CI].Tip != Arc.From)
        continue;
      if (Rational(static_cast<int64_t>(Chains[CI].ValueSum + TauTo)) >
          AlphaStar)
        continue;
      Chain Saved = Chains[CI];
      Chains[CI].Path.push_back(A);
      Chains[CI].Tip = Arc.To;
      Chains[CI].ValueSum += TauTo;
      search(Index + 1);
      Chains[CI] = Saved;
    }
    if (Exhausted)
      return;

    // Option 2: start a new chain.
    Chain Fresh;
    Fresh.Path = {A};
    Fresh.Tip = Arc.To;
    Fresh.ValueSum = G->node(Arc.From).ExecTime + TauTo;
    Chains.push_back(std::move(Fresh));
    search(Index + 1);
    Chains.pop_back();
  }
};

} // namespace

std::optional<StorageOptResult>
sdsp::minimizeStorageExact(const Sdsp &S, uint64_t NodeBudget) {
  const DataflowGraph &G = S.graph();

  SearchState State;
  State.G = S.sharedGraph();
  State.Budget = NodeBudget;

  {
    SdspPn Pn = buildSdspPn(S);
    RateReport Rate = analyzeRate(Pn);
    State.TargetRate = Rate.OptimalRate;
    State.AlphaStar = Rate.CycleTime;
  }

  for (Sdsp::AckView A : S.acks()) {
    assert(A.Path.size() == 1 &&
           "minimizeStorageExact expects per-arc acknowledgements");
    if (G.arc(A.Path.front()).isFeedback())
      State.FixedAcks.push_back(
          Sdsp::Ack{{A.Path.begin(), A.Path.end()}, A.Slots});
  }

  // Forward interior arcs in topological order of their sources, so
  // any chain ending at an arc's source already exists when the arc is
  // assigned.
  std::vector<size_t> Pos(G.numNodes());
  {
    std::vector<NodeId> Topo = G.forwardTopoOrder();
    for (size_t I = 0; I < Topo.size(); ++I)
      Pos[Topo[I].index()] = I;
  }
  for (ArcId A : S.interiorArcs()) {
    const DataflowGraph::Arc &Arc = G.arc(A);
    if (!Arc.isFeedback() && Arc.From != Arc.To)
      State.Arcs.push_back(A);
  }
  std::sort(State.Arcs.begin(), State.Arcs.end(),
            [&](ArcId A, ArcId B) {
              const auto &AA = G.arc(A);
              const auto &AB = G.arc(B);
              return std::tie(Pos[AA.From.index()], Pos[AA.To.index()]) <
                     std::tie(Pos[AB.From.index()], Pos[AB.To.index()]);
            });

  State.search(0);
  if (State.Exhausted || State.Best == ~0ull)
    return std::nullopt;

  StorageOptResult Result{Sdsp::withAcks(S.sharedGraph(), State.BestAcks),
                          S.storageLocations(), 0, State.TargetRate};
  Result.StorageAfter = Result.Optimized.storageLocations();
  return Result;
}
