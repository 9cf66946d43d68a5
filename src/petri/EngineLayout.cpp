//===- petri/EngineLayout.cpp - SoA net layout & hot-state arena -----------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "petri/EngineLayout.h"

#include "support/Status.h"

#include <algorithm>

using namespace sdsp;

/// Ring buckets are only worth their memory for bounded execution
/// times; nets with longer taus use the ordered-map fallback.
static constexpr TimeUnits MaxRingExecTime = 4096;

EngineLayout::EngineLayout(const PetriNet &Net) {
  NumTransitions = Net.numTransitions();
  NumPlaces = Net.numPlaces();
  BitWords = (NumTransitions + 63) / 64;
  MarkWords = (NumPlaces + 63) / 64;

  PetriNet::Rows<PlaceId> In = Net.inputPlaceRows();
  PetriNet::Rows<PlaceId> Out = Net.outputPlaceRows();
  PetriNet::Rows<TransitionId> Cons = Net.consumerRows();
  InOff = In.Start;
  InList = In.Items;
  OutOff = Out.Start;
  OutList = Out.Items;
  ConsOff = Cons.Start;
  ConsList = Cons.Items;

  Exec.resize(NumTransitions);
  for (uint32_t I = 0; I < NumTransitions; ++I) {
    TimeUnits E = Net.transition(TransitionId(I)).ExecTime;
    SDSP_CHECK(E >= 1, "engine requires execution times >= 1");
    MaxExec = std::max(MaxExec, E);
    Exec[I] = E;
  }

  GateOf.assign(NumPlaces, NoGate);
  TransitionGate.assign(NumTransitions, NoGate);
  for (uint32_t P = 0; P < NumPlaces; ++P) {
    if (ConsOff[P + 1] - ConsOff[P] <= BitWords)
      continue;
    uint32_t G = static_cast<uint32_t>(GatePlace.size());
    GateOf[P] = G;
    GatePlace.push_back(P);
    for (uint32_t K = ConsOff[P]; K < ConsOff[P + 1]; ++K) {
      uint32_t &TG = TransitionGate[ConsList[K].index()];
      if (TG == NoGate) {
        TG = G;
      } else if (TG != MultiGate && TG != G) {
        TG = MultiGate;
        MultiGated.push_back(ConsList[K].index());
      }
    }
  }

  // Marked-graph fast-path metadata (see petri/EarliestFiring.h).
  FastFireTopo.assign(NumTransitions, 0);
  AllFastTopo = NumTransitions > 0;
  for (uint32_t I = 0; I < NumTransitions; ++I) {
    bool AllSole = true;
    for (uint32_t K = InOff[I]; K < InOff[I + 1]; ++K) {
      uint32_t P = InList[K].index();
      AllSole &= (ConsOff[P + 1] - ConsOff[P]) == 1;
    }
    FastFireTopo[I] = AllSole;
    AllFastTopo &= AllSole;
  }

  // Packed-marking slot permutation: in a pure marked graph every
  // input-list entry names a distinct place, so slot = input-list
  // position is a bijection once consumerless places take the tail.
  PlaceSlot.assign(NumPlaces, ~0u);
  if (AllFastTopo)
    for (uint32_t K = 0, E = static_cast<uint32_t>(InList.size()); K < E;
         ++K) {
      uint32_t &Slot = PlaceSlot[InList[K].index()];
      if (Slot != ~0u) {
        AllFastTopo = false; // duplicate input arc
        break;
      }
      Slot = K;
    }
  if (AllFastTopo) {
    uint32_t Next = static_cast<uint32_t>(InList.size());
    for (uint32_t P = 0; P < NumPlaces; ++P)
      if (PlaceSlot[P] == ~0u)
        PlaceSlot[P] = Next++;
    SlotPlace.resize(NumPlaces);
    for (uint32_t P = 0; P < NumPlaces; ++P)
      SlotPlace[PlaceSlot[P]] = P;
  } else {
    for (uint32_t P = 0; P < NumPlaces; ++P)
      PlaceSlot[P] = P;
    SlotPlace = PlaceSlot;
  }

  for (uint32_t P : GatePlace)
    GateSlot.push_back(PlaceSlot[P]);
  FastCompTopo.assign(NumTransitions, 0);
  CompOff.reserve(NumTransitions + 1);
  CompOff.push_back(0);
  for (uint32_t I = 0; I < NumTransitions; ++I) {
    bool AllSingle = true;
    for (uint32_t K = OutOff[I]; K < OutOff[I + 1]; ++K) {
      uint32_t P = OutList[K].index();
      if (ConsOff[P + 1] - ConsOff[P] != 1 ||
          TransitionGate[ConsList[ConsOff[P]].index()] != NoGate) {
        AllSingle = false;
        break;
      }
    }
    if (AllSingle)
      for (uint32_t K = OutOff[I]; K < OutOff[I + 1]; ++K) {
        uint32_t P = OutList[K].index();
        CompPairs.push_back((static_cast<uint64_t>(PlaceSlot[P]) << 32) |
                            ConsList[ConsOff[P]].index());
        CompPlace.push_back(P);
      }
    FastCompTopo[I] = AllSingle;
    CompOff.push_back(static_cast<uint32_t>(CompPairs.size()));
  }

  UnitTime = MaxExec == 1;
  UseRing = MaxExec <= MaxRingExecTime;
}

void EngineHotState::init(const EngineLayout &L) {
  // Arena sections in per-instant scan order, each 8-byte aligned.
  // Sizes in 64-bit words.
  size_t MarkW = L.MarkWords;
  size_t EnW = L.BitWords;
  size_t BusyW = L.BitWords;
  size_t RdW = L.BitWords * 32;             // 64 uint32 lanes per group
  size_t FinW = L.NumTransitions;
  size_t RingW = (L.UseRing && !L.UnitTime)
                     ? (static_cast<size_t>(L.MaxExec) + 1 + 1) / 2
                     : 0;

  Arena.assign(MarkW + EnW + BusyW + RdW + FinW + RingW, 0);
  uint64_t *P = Arena.data();
  Mark = P;
  P += MarkW;
  EnabledIdle = P;
  P += EnW;
  Busy = P;
  P += BusyW;
  Readiness = reinterpret_cast<uint32_t *>(P);
  P += RdW;
  FinishTime = P;
  P += FinW;
  RingCount = RingW ? reinterpret_cast<uint32_t *>(P) : nullptr;

  // Sentinel-pad the readiness lanes beyond the last transition so a
  // 64-lane read never takes them for enabled.
  for (size_t Lane = L.NumTransitions; Lane < L.BitWords * 64; ++Lane)
    Readiness[Lane] = 1;
  // Idle transitions carry the sentinel finish time.
  std::fill_n(FinishTime, L.NumTransitions, ~static_cast<TimeStep>(0));
}
