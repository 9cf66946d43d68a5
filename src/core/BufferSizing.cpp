//===- core/BufferSizing.cpp - Minimum capacity for a target rate ----------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "core/BufferSizing.h"

#include "core/RateAnalysis.h"
#include "core/SdspPn.h"
#include "petri/CycleRatio.h"

#include <algorithm>
#include <cassert>
#include <map>

using namespace sdsp;

Rational sdsp::dataOnlyCycleTime(const DataflowGraph &G) {
  // Ample buffering never binds: with capacity = loop body size + max
  // distance on every arc, every acknowledgement cycle's ratio drops
  // below any data cycle's.
  uint32_t Ample = static_cast<uint32_t>(G.numNodes()) + 2;
  for (ArcId A : G.arcIds())
    Ample = std::max(Ample, G.arc(A).Distance + 1);
  Sdsp S = Sdsp::standard(G, Ample);
  SdspPn Pn = buildSdspPn(S);
  return analyzeRate(Pn).CycleTime;
}

BufferSizingResult
sdsp::sizeBuffers(const DataflowGraph &G,
                  std::optional<Rational> TargetCycleTime) {
  Rational Bound = dataOnlyCycleTime(G);
  Rational Target = TargetCycleTime.value_or(Bound);

  BufferSizingResult Result{Sdsp::standard(G), Rational(0), Target, 0,
                            false};
  if (Target < Bound) {
    // No amount of buffering beats the loop-carried bound.
    SdspPn Pn = buildSdspPn(Result.Sized);
    Result.AchievedCycleTime = analyzeRate(Pn).CycleTime;
    Result.Storage = Result.Sized.storageLocations();
    return Result;
  }

  // Per-arc capacities, starting at the one-token-per-arc minimum
  // (Sdsp::standard already applies the deadlock spare slot where
  // needed).
  std::map<uint32_t, uint32_t> Capacity; // arc index -> capacity
  for (Sdsp::AckView A : Result.Sized.acks()) {
    ArcId Arc = A.Path.front();
    Capacity[Arc.index()] = A.Slots + G.arc(Arc).Distance;
  }

  auto Rebuild = [&]() {
    std::vector<Sdsp::Ack> Acks;
    for (const auto &[ArcIdx, Cap] : Capacity) {
      ArcId Arc(ArcIdx);
      Acks.push_back(
          Sdsp::Ack{{Arc}, Cap - G.arc(Arc).Distance});
    }
    return Sdsp::withAcks(G, std::move(Acks));
  };

  // Safety cap: every arc at ample capacity certainly meets the bound.
  uint64_t MaxSteps =
      (static_cast<uint64_t>(G.numNodes()) + 3) * (Capacity.size() + 1);

  for (uint64_t Step = 0; Step <= MaxSteps; ++Step) {
    SdspPn Pn = buildSdspPn(Result.Sized);
    MarkedGraphView View(Pn.Net);
    std::optional<CriticalCycleInfo> Info = criticalCycle(View);
    Rational SelfLoop(0);
    for (TransitionId T : Pn.Net.transitionIds())
      SelfLoop = std::max(SelfLoop,
                          Rational(static_cast<int64_t>(
                              Pn.Net.transition(T).ExecTime)));
    Rational Achieved =
        Info ? std::max(Info->CycleTime, SelfLoop) : SelfLoop;
    if (Achieved <= Target) {
      Result.AchievedCycleTime = Achieved;
      Result.Feasible = true;
      Result.Storage = Result.Sized.storageLocations();
      return Result;
    }
    assert(Info && "cycle time above target needs a witness cycle");

    // Find an acknowledgement place on the witness cycle and widen its
    // arc by one slot.
    std::map<uint32_t, uint32_t> PlaceToArc; // ack place -> arc index
    for (size_t I = 0; I < Pn.AckPlaces.size(); ++I)
      PlaceToArc[Pn.AckPlaces[I].index()] =
          Result.Sized.acks()[I].Path.front().index();

    bool Widened = false;
    for (uint32_t EI : Info->Witness.Edges) {
      auto It = PlaceToArc.find(View.edge(EI).Via.index());
      if (It == PlaceToArc.end())
        continue;
      ++Capacity[It->second];
      Widened = true;
      break;
    }
    if (!Widened) {
      // Purely data-bound witness above the target: infeasible.
      Result.AchievedCycleTime = Achieved;
      Result.Storage = Result.Sized.storageLocations();
      return Result;
    }
    Result.Sized = Rebuild();
  }
  // Safety cap exhausted (should not happen).
  SdspPn Pn = buildSdspPn(Result.Sized);
  Result.AchievedCycleTime = analyzeRate(Pn).CycleTime;
  Result.Storage = Result.Sized.storageLocations();
  return Result;
}
