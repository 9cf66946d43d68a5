//===- core/StorageOptimizer.cpp - Minimum storage allocation --------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "core/StorageOptimizer.h"

#include "core/RateAnalysis.h"
#include "core/SdspPn.h"

#include <cassert>

using namespace sdsp;

namespace {

/// Sum of execution times of the nodes on a chain of arcs (the value
/// sum of the would-be acknowledgement cycle).
uint64_t chainValueSum(const DataflowGraph &G,
                       const std::vector<ArcId> &Path) {
  uint64_t Sum = G.node(G.arc(Path.front()).From).ExecTime;
  for (ArcId A : Path)
    Sum += G.node(G.arc(A).To).ExecTime;
  return Sum;
}

Rational rateOf(const Sdsp &S) {
  SdspPn Pn = buildSdspPn(S);
  return analyzeRate(Pn).OptimalRate;
}

} // namespace

Expected<StorageOptResult> sdsp::minimizeStorageChecked(const Sdsp &S) {
  if (Status St = validateSdsp(S); !St)
    return St;
  for (Sdsp::AckView A : S.acks()) {
    if (A.Path.size() != 1)
      return Status::error(ErrorCode::InvalidGraph, "storage",
                           "minimizeStorage expects per-arc "
                           "acknowledgements (an Sdsp::standard input), "
                           "not already-chained ones");
    // Section 6 minimizes the capacity-1 allocation; rebuilding a
    // multi-slot buffer as a one-slot chain would *lower* the rate,
    // which the restore loop then cannot fix.
    if (!S.graph().arc(A.Path.front()).isFeedback() && A.Slots != 1)
      return Status::error(ErrorCode::InvalidInput, "storage",
                           "storage minimization requires capacity-1 "
                           "buffers (an arc has " +
                               std::to_string(A.Slots) + " slots)");
  }
  return minimizeStorage(S);
}

StorageOptResult sdsp::minimizeStorage(const Sdsp &S) {
  const DataflowGraph &G = S.graph();

  StorageOptResult Result{S, S.storageLocations(), 0, rateOf(S)};
  Rational AlphaStar = Result.OptimalRate.isZero()
                           ? Rational(0)
                           : Result.OptimalRate.reciprocal();

  // Greedy chain growth over forward interior arcs, in topological
  // order so chains follow the dataflow direction.
  std::vector<bool> Covered(G.numArcs(), false);
  std::vector<Sdsp::Ack> Acks;

  // Feedback arcs keep their original acknowledgement structure.
  for (Sdsp::AckView A : S.acks()) {
    SDSP_CHECK(A.Path.size() == 1,
               "minimizeStorage expects per-arc acknowledgements");
    if (G.arc(A.Path.front()).isFeedback()) {
      Acks.push_back(Sdsp::Ack{{A.Path.begin(), A.Path.end()}, A.Slots});
      Covered[A.Path.front().index()] = true;
    }
  }

  for (NodeId N : G.forwardTopoOrder()) {
    for (ArcId Start : G.node(N).Fanout) {
      const DataflowGraph::Arc &StartArc = G.arc(Start);
      if (StartArc.isFeedback() || Covered[Start.index()] ||
          !S.isInteriorArc(Start))
        continue;

      std::vector<ArcId> Path{Start};
      Covered[Start.index()] = true;
      NodeId Tip = StartArc.To;
      // Extend while some uncovered forward interior arc leaves the tip
      // and the covering cycle stays at or above the critical ratio.
      bool Extended = true;
      while (Extended) {
        Extended = false;
        for (ArcId Next : G.node(Tip).Fanout) {
          const DataflowGraph::Arc &NextArc = G.arc(Next);
          if (NextArc.isFeedback() || Covered[Next.index()] ||
              !S.isInteriorArc(Next))
            continue;
          Path.push_back(Next);
          if (Rational(static_cast<int64_t>(chainValueSum(G, Path))) <=
              AlphaStar) {
            Covered[Next.index()] = true;
            Tip = NextArc.To;
            Extended = true;
          } else {
            Path.pop_back();
          }
          break; // Consider one continuation per tip (chains, not trees).
        }
      }
      Acks.push_back(Sdsp::Ack{std::move(Path), 1});
    }
  }

  Sdsp Optimized = Sdsp::withAcks(S.sharedGraph(), std::move(Acks));

  // Verification: chain interactions must not have lowered the rate.
  // If they did, split the longest multi-arc chain and retry.
  while (rateOf(Optimized) < Result.OptimalRate) {
    std::vector<Sdsp::Ack> Split = Optimized.ackRecords();
    size_t Longest = Split.size();
    for (size_t I = 0; I < Split.size(); ++I)
      if (Split[I].Path.size() > 1 &&
          (Longest == Split.size() ||
           Split[I].Path.size() > Split[Longest].Path.size()))
        Longest = I;
    SDSP_CHECK(Longest != Split.size(),
               "per-arc acknowledgements cannot be below the optimal rate");
    std::vector<ArcId> &Path = Split[Longest].Path;
    std::vector<ArcId> Tail(Path.begin() + Path.size() / 2, Path.end());
    Path.resize(Path.size() / 2);
    Split.push_back(Sdsp::Ack{std::move(Tail), 1});
    Optimized = Sdsp::withAcks(S.sharedGraph(), std::move(Split));
  }

  Result.Optimized = std::move(Optimized);
  Result.StorageAfter = Result.Optimized.storageLocations();
  return Result;
}
