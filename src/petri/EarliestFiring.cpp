//===- petri/EarliestFiring.cpp - Earliest-firing-rule engine --------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "petri/EarliestFiring.h"

#include "support/Hashing.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

using namespace sdsp;

//===----------------------------------------------------------------------===//
// InstantaneousState
//===----------------------------------------------------------------------===//

size_t InstantaneousState::hashValue() const {
  size_t Seed = M.hashValue();
  hashCombineRange(Seed, Residual);
  hashCombineRange(Seed, PolicyFingerprint);
  return Seed;
}

std::string InstantaneousState::str() const {
  std::string Out = M.str();
  bool AnyBusy = false;
  for (TimeUnits R : Residual)
    AnyBusy |= (R != 0);
  if (AnyBusy) {
    Out += " R=(";
    for (size_t I = 0; I < Residual.size(); ++I) {
      if (I)
        Out += ",";
      Out += std::to_string(Residual[I]);
    }
    Out += ")";
  }
  if (!PolicyFingerprint.empty()) {
    Out += " Q=(";
    for (size_t I = 0; I < PolicyFingerprint.size(); ++I) {
      if (I)
        Out += ",";
      Out += std::to_string(PolicyFingerprint[I]);
    }
    Out += ")";
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// FiringTrace
//===----------------------------------------------------------------------===//

void FiringTrace::layOut(std::span<const uint32_t> Completions,
                         std::span<const uint32_t> Firings, bool Unit) {
  assert(empty() && (Unit || Completions.size() == Firings.size()) &&
         "laying out rows of a nonempty trace");
  size_t Rows = Firings.size();
  Times.resize(Rows);
  CompletedEnd.resize(Rows);
  FiredEnd.resize(Rows);
  uint64_t At = 0;
  for (size_t I = 0; I < Rows; ++I) {
    Times[I] = I;
    if (Unit && I)
      CompletedEnd[I] = At | SharedRow;
    else
      CompletedEnd[I] = At += Unit ? 0 : Completions[I];
    At += Firings[I];
    FiredEnd[I] = At;
  }
  Ids.resize(At);
}

void FiringTrace::shareCompletions() {
  // Rows close up front to back, so a row's ids only ever move down,
  // over ids already read.
  uint64_t Read = 0, Write = 0;
  uint64_t PrevFired = 0, PrevFiredLen = 0;
  for (size_t I = 0, Rows = size(); I < Rows; ++I) {
    assert(!(CompletedEnd[I] & SharedRow) && "sharing a shared row");
    uint64_t CEnd = CompletedEnd[I], FEnd = FiredEnd[I];
    uint64_t NC = CEnd - Read, NF = FEnd - CEnd;
    if (I && NC == PrevFiredLen &&
        std::equal(Ids.begin() + Read, Ids.begin() + CEnd,
                   Ids.begin() + PrevFired)) {
      CompletedEnd[I] = Write | SharedRow;
    } else {
      std::memmove(Ids.data() + Write, Ids.data() + Read,
                   NC * sizeof(TransitionId));
      Write += NC;
      CompletedEnd[I] = Write;
    }
    std::memmove(Ids.data() + Write, Ids.data() + CEnd,
                 NF * sizeof(TransitionId));
    PrevFired = Write;
    PrevFiredLen = NF;
    Write += NF;
    FiredEnd[I] = Write;
    Read = FEnd;
  }
  Ids.resize(Write);
}

//===----------------------------------------------------------------------===//
// Policies
//===----------------------------------------------------------------------===//

FiringPolicy::~FiringPolicy() = default;

void FiringPolicy::appendFingerprint(std::vector<uint32_t> &Out) const {
  std::vector<uint32_t> Fp = stateFingerprint();
  Out.insert(Out.end(), Fp.begin(), Fp.end());
}

/// Calls \p F with the index of every set bit, in ascending order.
template <typename Fn>
static void forEachSetBit(const uint64_t *Bits, size_t NumWords, Fn &&F) {
  for (size_t W = 0; W < NumWords; ++W) {
    uint64_t Word = Bits[W];
    while (Word) {
      F(static_cast<uint32_t>(W * 64 + std::countr_zero(Word)));
      Word &= Word - 1;
    }
  }
}

static bool testBit(const uint64_t *Bits, uint32_t I) {
  return (Bits[I >> 6] >> (I & 63)) & 1;
}

/// Calls \p F(W), in ascending order, for every nonzero word W of
/// \p Words whose bit is set in \p Summary (bit w of summary word s
/// stands for word 64 * s + w), then clears the summary bits of the
/// words left zero.
template <typename Fn>
static void forEachMarkedWord(std::vector<uint64_t> &Summary,
                              const uint64_t *Words, Fn &&F) {
  for (size_t S = 0, NS = Summary.size(); S < NS; ++S) {
    uint64_t Keep = 0;
    for (uint64_t Sum = Summary[S]; Sum; Sum &= Sum - 1) {
      size_t W = S * 64 + static_cast<size_t>(std::countr_zero(Sum));
      if (Words[W])
        F(W);
      if (Words[W])
        Keep |= Sum & -Sum;
    }
    Summary[S] = Keep;
  }
}

void FiringPolicy::orderEnabled(const PetriNet &Net, const Marking &M,
                                const std::vector<TransitionId> &Completed,
                                const uint64_t *Enabled, size_t NumWords,
                                std::vector<TransitionId> &Out) {
  Out.clear();
  forEachSetBit(Enabled, NumWords,
                [&](uint32_t I) { Out.push_back(TransitionId(I)); });
  orderCandidates(Net, M, Completed, Out);
}

bool FiringPolicy::sameConditionAt(TimeStep) const { return true; }

ReadyListPolicy::ReadyListPolicy(std::vector<bool> IsConflicting,
                                 std::vector<PlaceId> ResourcePlaces,
                                 bool NewestFirst)
    : NewestFirst(NewestFirst) {
  size_t MaxIdx = 0;
  for (PlaceId P : ResourcePlaces)
    MaxIdx = std::max(MaxIdx, static_cast<size_t>(P.index()) + 1);
  IsResourcePlace.assign(MaxIdx, false);
  for (PlaceId P : ResourcePlaces)
    IsResourcePlace[P.index()] = true;
  size_t N = IsConflicting.size();
  ConflictBits.assign((N + 63) / 64, 0);
  for (size_t I = 0; I < N; ++I)
    if (IsConflicting[I])
      ConflictBits[I >> 6] |= 1ull << (I & 63);
  ListHash = pairMix(HeadMark, Tail);
}

uint64_t ReadyListPolicy::pairMix(uint32_t A, uint32_t B) {
  // splitmix64's finalizer over the packed pair: a bijection, so
  // distinct pairs give distinct terms.
  uint64_t Z = (static_cast<uint64_t>(A) << 32) | B;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

void ReadyListPolicy::reset() {
  for (uint32_t V = First; V != None;) {
    uint32_t N = Next[V];
    Next[V] = None;
    V = N == Tail ? None : N;
  }
  First = Last = None;
  ListHash = pairMix(HeadMark, Tail);
  Joined.clear();
  JoinedAt.clear();
  LeftAt.clear();
  Clock = 0;
  for (uint32_t I : Dirty)
    DirtyFlag[I] = false;
  Dirty.clear();
  ScanAll = true;
  Checks = 0;
  Visits = 0;
}

void ReadyListPolicy::markDirty(uint32_t I) {
  if (isConflicting(I) && !isListed(I) && !DirtyFlag[I]) {
    DirtyFlag[I] = true;
    Dirty.push_back(I);
  }
}

void ReadyListPolicy::enqueueIfDataReady(const PetriNet &Net,
                                         const Marking &M, uint32_t I) {
  assert(!isListed(I) && "transition already waiting in the ready list");
  ++Checks;
  // The shared resource does not gate data readiness.
  for (PlaceId P : Net.transition(TransitionId(I)).InputPlaces)
    if (!isResourcePlace(P) && M.tokens(P) == 0)
      return;
  // Append: the pair (Last, Tail) becomes (Last, I), (I, Tail).
  uint32_t Before = Last == None ? HeadMark : Last;
  ListHash ^= pairMix(Before, Tail) ^ pairMix(Before, I) ^ pairMix(I, Tail);
  Prev[I] = Last;
  Next[I] = Tail;
  if (Last == None)
    First = I;
  else
    Next[Last] = I;
  Last = I;
  JoinOf[I] = static_cast<uint32_t>(Joined.size());
  Joined.push_back(I);
  JoinedAt.push_back(Clock);
  LeftAt.push_back(Never);
}

void ReadyListPolicy::observe(TimeStep Now, const PetriNet &Net,
                              const Marking &M,
                              const std::vector<TransitionId> &Completed) {
  Clock = Now;
  // Enqueue newly data-ready conflicting transitions in index order;
  // index order mirrors the adjacency-list tie-break of Section 5.2.
  if (ScanAll) {
    ScanAll = false;
    size_t N = ConflictBits.size() * 64;
    if (Next.size() < N) {
      Prev.assign(N, None);
      Next.assign(N, None);
      JoinOf.assign(N, 0);
      DirtyFlag.assign(N, false);
    }
    for (size_t W = 0; W < ConflictBits.size(); ++W)
      for (uint64_t Word = ConflictBits[W]; Word; Word &= Word - 1)
        enqueueIfDataReady(
            Net, M, static_cast<uint32_t>(W * 64 + std::countr_zero(Word)));
  } else {
    for (TransitionId C : Completed)
      for (PlaceId P : Net.transition(C).OutputPlaces)
        if (!isResourcePlace(P))
          for (TransitionId T : Net.place(P).Consumers)
            markDirty(T.index());
    std::sort(Dirty.begin(), Dirty.end());
    for (uint32_t I : Dirty)
      enqueueIfDataReady(Net, M, I);
  }
  for (uint32_t I : Dirty)
    DirtyFlag[I] = false;
  Dirty.clear();
}

void ReadyListPolicy::appendOrder(const uint64_t *Enabled, size_t NumWords,
                                  std::vector<TransitionId> &Out) const {
  // Non-conflicting candidates first (their relative order is
  // irrelevant: they cannot disable each other), then list order.
  for (size_t W = 0; W < NumWords; ++W) {
    uint64_t Word =
        Enabled[W] & ~(W < ConflictBits.size() ? ConflictBits[W] : 0);
    while (Word) {
      Out.push_back(TransitionId(
          static_cast<uint32_t>(W * 64 + std::countr_zero(Word))));
      Word &= Word - 1;
    }
  }
  for (uint32_t V = front(); V != None; V = after(V))
    if (testBit(Enabled, V))
      Out.push_back(TransitionId(V));
}

void ReadyListPolicy::orderCandidates(
    const PetriNet &Net, const Marking &M,
    const std::vector<TransitionId> &Completed,
    std::vector<TransitionId> &Candidates) {
  CandidateBits.assign((Net.numTransitions() + 63) / 64, 0);
  for (TransitionId T : Candidates)
    CandidateBits[T.index() >> 6] |= 1ull << (T.index() & 63);
  orderEnabled(Net, M, Completed, CandidateBits.data(), CandidateBits.size(),
               Scratch);
  Candidates.swap(Scratch);
}

void ReadyListPolicy::orderEnabled(const PetriNet &Net, const Marking &M,
                                   const std::vector<TransitionId> &Completed,
                                   const uint64_t *Enabled, size_t NumWords,
                                   std::vector<TransitionId> &Out) {
  // The vector-form callers (the reference engine) step every instant
  // from 0, so the instant is the number of calls so far.
  observe(ScanAll ? 0 : Clock + 1, Net, M, Completed);
  Out.clear();
  appendOrder(Enabled, NumWords, Out);
}

void ReadyListPolicy::noteFired(TransitionId T) {
  uint32_t V = T.index();
  if (!isListed(V))
    return;
  uint32_t P = Prev[V], N = Next[V];
  ListHash ^= pairMix(P == None ? HeadMark : P, V) ^ pairMix(V, N) ^
              pairMix(P == None ? HeadMark : P, N);
  if (P == None)
    First = N == Tail ? None : N;
  else
    Next[P] = N;
  if (N == Tail)
    Last = P;
  else
    Prev[N] = P;
  Next[V] = None;
  LeftAt[JoinOf[V]] = Clock;
  // Its inputs may still hold tokens: re-test it at the next call.
  markDirty(V);
}

bool ReadyListPolicy::sameConditionAt(TimeStep Then) const {
  // The list sampled at Then held every transition that joined at or
  // before Then and had not left before it, in joining order.  Joins
  // are logged in time order, so the scan stops at the first later one.
  uint32_t V = First;
  for (size_t K = 0; K < Joined.size() && JoinedAt[K] <= Then; ++K) {
    if (LeftAt[K] < Then)
      continue;
    if (V != Joined[K])
      return false;
    V = Next[V] == Tail ? None : Next[V];
  }
  return V == None;
}

std::vector<uint32_t> ReadyListPolicy::stateFingerprint() const {
  std::vector<uint32_t> Fp;
  appendFingerprint(Fp);
  return Fp;
}

void ReadyListPolicy::appendFingerprint(std::vector<uint32_t> &Out) const {
  for (uint32_t V = First; V != None; V = Next[V] == Tail ? None : Next[V])
    Out.push_back(V);
}

//===----------------------------------------------------------------------===//
// EarliestFiringEngine
//===----------------------------------------------------------------------===//

/// Sentinel finish time for idle transitions.
static constexpr TimeStep IdleFinish = ~static_cast<TimeStep>(0);

Status sdsp::validateTimedNet(const PetriNet &Net) {
  if (Net.numTransitions() == 0)
    return Status::error(ErrorCode::InvalidNet, "petri",
                         "net has no transitions");
  for (TransitionId T : Net.transitionIds())
    if (Net.transition(T).ExecTime < 1)
      return Status::error(ErrorCode::InvalidNet, "petri",
                           "transition " + std::string(Net.transition(T).Name) +
                               " has execution time 0 (must be >= 1)");
  return Status::ok();
}

EarliestFiringEngine::EarliestFiringEngine(const PetriNet &Net,
                                           FiringPolicy *Policy)
    : Net(Net), Policy(Policy),
      Ready(dynamic_cast<ReadyListPolicy *>(Policy)),
      M(Net.initialMarking()), L(Net) {
  HS.init(L);
  Gated = !L.GatePlace.empty();
  GateZero.assign(L.GatePlace.size(), 0);
  EnabledSummary.assign((L.BitWords + 63) / 64, 0);
  ListFree = Ready != nullptr;
  for (uint32_t T = 0; T < L.NumTransitions && ListFree; ++T)
    ListFree = Ready->isConflicting(T) ||
               L.TransitionGate[T] == EngineLayout::NoGate;

  for (PlaceId P : Net.placeIds()) {
    uint32_t C = M.tokens(P);
    uint32_t S = L.PlaceSlot[P.index()];
    if (C >= 1)
      HS.Mark[S >> 6] |= 1ull << (S & 63);
    for (uint32_t Excess = C >= 1 ? C - 1 : 0; Excess; Excess &= Excess - 1) {
      size_t B = static_cast<size_t>(std::countr_zero(Excess));
      if (NumPlanes <= B) {
        NumPlanes = B + 1;
        Planes.resize(NumPlanes * L.MarkWords, 0);
        PlanePop.resize(NumPlanes, 0);
      }
      Planes[B * L.MarkWords + (S >> 6)] |= 1ull << (S & 63);
      ++PlanePop[B];
    }
  }
  for (TransitionId T : Net.transitionIds()) {
    uint32_t Missing = 0;
    for (PlaceId P : Net.transition(T).InputPlaces)
      if (M.tokens(P) == 0 && L.GateOf[P.index()] == EngineLayout::NoGate)
        ++Missing;
    HS.Readiness[T.index()] = Missing;
    if (Missing == 0)
      setEnabledIdle(T.index());
  }

  // A policy observes the counts every step, so its engine keeps them
  // exact through the generic token walks; without one, the fast paths
  // apply and the counts live in the bits and planes alone.
  AllFast = !Policy && L.AllFastTopo;

  if (Policy)
    Policy->reset();
}

// Inline: the token walks of every engine call these.
inline void EarliestFiringEngine::setEnabledIdle(uint32_t T) {
  // Callers only reach this on an exact 0-crossing of Readiness[T], so
  // the bit is known clear.
  assert(!(HS.EnabledIdle[T >> 6] & (1ull << (T & 63))) &&
         "transition already in the enabled-idle set");
  HS.EnabledIdle[T >> 6] |= 1ull << (T & 63);
  noteSetWord(T, true);
  ++EnabledIdleCount;
  ++Ctrs.EnabledSets;
  if (Gated)
    noteGatedZero(T, 1);
  if (ListFree && !Ready->isConflicting(T))
    FreeEnabled.push_back(TransitionId(T));
}

inline void EarliestFiringEngine::clearEnabledIdle(uint32_t T) {
  assert((HS.EnabledIdle[T >> 6] & (1ull << (T & 63))) &&
         "transition not in the enabled-idle set");
  HS.EnabledIdle[T >> 6] &= ~(1ull << (T & 63));
  --EnabledIdleCount;
  if (Gated)
    noteGatedZero(T, -1);
}

void EarliestFiringEngine::noteGatedZero(uint32_t T, int Delta) {
  uint32_t G = L.TransitionGate[T];
  if (G == EngineLayout::NoGate)
    return;
  GatedZero += Delta;
  if (G != EngineLayout::MultiGate)
    GateZero[G] += Delta;
}

bool EarliestFiringEngine::anyGatedEnabled() const {
  size_t BehindOne = 0;
  for (size_t G = 0; G < GateZero.size(); ++G) {
    if (GateZero[G] != 0 && testBit(HS.Mark, L.GateSlot[G]))
      return true;
    BehindOne += GateZero[G];
  }
  if (BehindOne != GatedZero)
    for (uint32_t T : L.MultiGated)
      if (testBit(HS.EnabledIdle, T) && !hasEmptyGatedInput(T))
        return true;
  return false;
}

bool EarliestFiringEngine::hasEmptyGatedInput(uint32_t T) const {
  for (uint32_t K = L.InOff[T], E = L.InOff[T + 1]; K < E; ++K) {
    uint32_t P = L.InList[K];
    if (L.GateOf[P] != EngineLayout::NoGate &&
        !testBit(HS.Mark, L.PlaceSlot[P]))
      return true;
  }
  return false;
}

const uint64_t *EarliestFiringEngine::enabledBits() const {
  if (!Gated)
    return HS.EnabledIdle;
  GateApplied.assign(HS.EnabledIdle, HS.EnabledIdle + L.BitWords);
  forEachSetBit(GateApplied.data(), L.BitWords, [&](uint32_t T) {
    if (gateMasked(T))
      GateApplied[T >> 6] &= ~(1ull << (T & 63));
  });
  return GateApplied.data();
}

bool EarliestFiringEngine::enabledMatchesSweep() const {
  // Word by word, without allocating: the census tests count this
  // engine's allocations in builds that run the check.
  size_t Count = 0;
  for (size_t W = 0; W < L.BitWords; ++W) {
    uint64_t Want = 0;
    for (size_t B = 0; B < 64; ++B)
      Want |= static_cast<uint64_t>(HS.Readiness[W * 64 + B] == 0) << B;
    if (Want != HS.EnabledIdle[W])
      return false;
    Count += static_cast<size_t>(std::popcount(Want));
  }
  size_t Behind = 0;
  for (uint32_t T = 0; T < L.NumTransitions; ++T)
    Behind += HS.Readiness[T] == 0 &&
              L.TransitionGate[T] != EngineLayout::NoGate;
  for (uint32_t G = 0; G < GateZero.size(); ++G) {
    size_t Zero = 0;
    for (uint32_t T = 0; T < L.NumTransitions; ++T)
      Zero += HS.Readiness[T] == 0 && L.TransitionGate[T] == G;
    if (Zero != GateZero[G])
      return false;
  }
  return Count == EnabledIdleCount && Behind == GatedZero;
}

void EarliestFiringEngine::addExcess(uint32_t S) {
  size_t W = S >> 6;
  uint64_t Bit = 1ull << (S & 63);
  for (size_t B = 0;; ++B) {
    if (B == NumPlanes) {
      ++NumPlanes;
      Planes.resize(NumPlanes * L.MarkWords, 0);
      PlanePop.push_back(0);
    }
    uint64_t &Word = Planes[B * L.MarkWords + W];
    Word ^= Bit;
    if (Word & Bit) {
      ++PlanePop[B];
      return;
    }
    --PlanePop[B]; // Carry into the next plane.
  }
}

bool EarliestFiringEngine::takeExcess(uint32_t S) {
  uint64_t *Word = Planes.data() + (S >> 6);
  uint64_t Bit = 1ull << (S & 63);
  size_t B = 0;
  while (B < NumPlanes && !(Word[B * L.MarkWords] & Bit))
    ++B;
  if (B == NumPlanes)
    return false;
  // Subtract one: the lowest set bit clears, and every bit below it
  // sets.
  Word[B * L.MarkWords] ^= Bit;
  --PlanePop[B];
  for (size_t C = 0; C < B; ++C) {
    Word[C * L.MarkWords] |= Bit;
    ++PlanePop[C];
  }
  return true;
}

uint32_t EarliestFiringEngine::excessAt(uint32_t S) const {
  uint32_t Excess = 0;
  for (size_t B = 0; B < NumPlanes; ++B)
    Excess |= static_cast<uint32_t>(
                  (Planes[B * L.MarkWords + (S >> 6)] >> (S & 63)) & 1)
              << B;
  return Excess;
}

size_t EarliestFiringEngine::planesInUse() const {
  size_t N = PlanePop.size();
  while (N > 0 && PlanePop[N - 1] == 0)
    --N;
  return N;
}

void EarliestFiringEngine::rederiveEnabled() {
  const uint32_t *RdP = HS.Readiness;
  uint64_t *EnP = HS.EnabledIdle;
  size_t Count = 0;
  uint64_t Sets = 0;
  std::fill(EnabledSummary.begin(), EnabledSummary.end(), uint64_t(0));
  for (size_t W = 0, NW = L.BitWords; W < NW; ++W) {
    // The padding lanes past the last transition read nonzero.
    uint64_t Want = zeroLanes(RdP + W * 64);
    Sets += static_cast<uint64_t>(std::popcount(Want & ~EnP[W]));
    EnP[W] = Want;
    EnabledSummary[W >> 6] |= static_cast<uint64_t>(Want != 0) << (W & 63);
    Count += static_cast<size_t>(std::popcount(Want));
  }
  EnabledIdleCount = Count;
  Ctrs.EnabledSets += Sets;
  Ctrs.WordsSwept += L.BitWords;
}

void EarliestFiringEngine::produceCounted(uint32_t I) {
  // A dense drain's generic produce: marks, counts and readiness words
  // only, for rederiveEnabled() to read (the net has no gates).
  for (uint32_t K = L.OutOff[I], E = L.OutOff[I + 1]; K < E; ++K) {
    uint32_t P = L.OutList[K];
    uint32_t S = L.PlaceSlot[P];
    uint64_t &Word = HS.Mark[S >> 6];
    uint64_t Bit = 1ull << (S & 63);
    if (Word & Bit) {
      addExcess(S);
      continue;
    }
    Word |= Bit;
    for (uint32_t J = L.ConsOff[P], JE = L.ConsOff[P + 1]; J < JE; ++J)
      --HS.Readiness[L.ConsList[J]];
  }
}

void EarliestFiringEngine::syncMarking() const {
  if (Policy)
    return;
  for (size_t P = 0, NumP = L.NumPlaces; P < NumP; ++P) {
    uint32_t S = L.PlaceSlot[P];
    M.setTokens(PlaceId(P), testBit(HS.Mark, S) ? 1 + excessAt(S) : 0);
  }
}

void EarliestFiringEngine::produceToken(uint32_t P) {
  uint32_t S = L.PlaceSlot[P];
  uint64_t Bit = 1ull << (S & 63);
  uint64_t &Word = HS.Mark[S >> 6];
  if (Policy)
    M.produce(PlaceId(P));
  if (Word & Bit) {
    // The place stays marked: only its count above one moves.
    addExcess(S);
    return;
  }
  // The place was empty.  A gated place walks no consumers: its mark
  // bit opens the gate.
  Word |= Bit;
  if (L.GateOf[P] != EngineLayout::NoGate)
    return;
  for (uint32_t K = L.ConsOff[P], E = L.ConsOff[P + 1]; K < E; ++K) {
    uint32_t I = L.ConsList[K];
    assert((HS.Readiness[I] & (BusyBias - 1)) > 0 &&
           "missing-input counter underflow");
    if (--HS.Readiness[I] == 0)
      setEnabledIdle(I);
  }
}

void EarliestFiringEngine::consumeToken(uint32_t P) {
  uint32_t S = L.PlaceSlot[P];
  uint64_t Bit = 1ull << (S & 63);
  uint64_t &Word = HS.Mark[S >> 6];
  assert((Word & Bit) && "consuming from an empty place");
  if (Policy)
    M.consume(PlaceId(P));
  if (takeExcess(S))
    return;
  // The place is now empty.
  Word &= ~Bit;
  if (L.GateOf[P] != EngineLayout::NoGate)
    return;
  for (uint32_t K = L.ConsOff[P], E = L.ConsOff[P + 1]; K < E; ++K) {
    uint32_t I = L.ConsList[K];
    if (HS.Readiness[I]++ == 0)
      clearEnabledIdle(I);
  }
}

/// Token production side of completing transition \p I: the fast pair
/// stream when available, the generic per-place walk otherwise.
void EarliestFiringEngine::produceOutputs(uint32_t I) {
  if (!Policy && L.FastCompTopo[I]) {
    // Stream the precomputed (slot, consumer) pairs; each produce onto
    // an empty place is one bit set plus one readiness decrement.
    for (uint32_t K = L.CompOff[I], E = L.CompOff[I + 1]; K < E; ++K) {
      uint64_t Pair = L.CompPairs[K];
      uint32_t S = static_cast<uint32_t>(Pair >> 32);
      uint64_t &Word = HS.Mark[S >> 6];
      uint64_t Bit = 1ull << (S & 63);
      if (Word & Bit) {
        addExcess(S);
        continue;
      }
      Word |= Bit;
      uint32_t C = static_cast<uint32_t>(Pair);
      assert((HS.Readiness[C] & (BusyBias - 1)) > 0 &&
             "missing-input counter underflow");
      // Branchless enable: whether this produce completes the consumer's
      // readiness is data-dependent (~coin-flip in pipelined nets), so an
      // unconditional masked OR beats a mispredicting branch.  Fast
      // consumers are never gated.
      uint32_t R = HS.Readiness[C] - 1;
      HS.Readiness[C] = R;
      bool En = R == 0;
      HS.EnabledIdle[C >> 6] |= static_cast<uint64_t>(En) << (C & 63);
      noteSetWord(C, En);
      EnabledIdleCount += En;
      Ctrs.EnabledSets += En;
    }
  } else {
    for (uint32_t K = L.OutOff[I], E = L.OutOff[I + 1]; K < E; ++K)
      produceToken(L.OutList[K]);
  }
}

/// Completion of transition \p I at the current instant: leave the busy
/// set, produce the output tokens, and re-enter the enabled-idle set if
/// the inputs are already marked again.  (Unit-time nets bypass this:
/// prepare() drains whole busy words instead.)
void EarliestFiringEngine::completeTransition(uint32_t I) {
  assert(HS.FinishTime[I] == Now && "completing a transition not due now");
  HS.FinishTime[I] = IdleFinish;
  HS.Busy[I >> 6] &= ~(1ull << (I & 63));
  --BusyCount;
  produceOutputs(I);
  if ((HS.Readiness[I] -= BusyBias) == 0)
    setEnabledIdle(I);
  CompletedThisStep.push_back(TransitionId(I));
}

void EarliestFiringEngine::prepare() {
  if (Prepared)
    return;
  Prepared = true;
  ++Ctrs.Rebuilds;
  CompletedThisStep.clear();
  CompletedFromRow = false;

  // Phase A1: completions.  A transition fired at u with time tau
  // finishes and produces its output tokens at u + tau.  The bucket for
  // the current instant counts the transitions finishing now; their
  // identity is recovered by walking the busy bitset and matching
  // finish times, which visits them in index order — matching the
  // reference engine's finish-time sweep — without a sort.  (Each word
  // is snapshotted before its bits are dispatched, so clearing busy
  // bits mid-walk is safe.)  Every token event keeps the enabled-idle
  // set exact as it happens, except on a dense unit-time instant,
  // which re-derives it once its drain settles.
  if (L.UnitTime) {
    // Every busy transition finishes now; drain the busy set (no
    // finish-time matching, no queue).
    if (BusyCount != 0 && Policy == nullptr) {
      // Without a policy the busy set is exactly the last step's fired
      // ids, in ascending index order where its trace row holds them —
      // iterate them sequentially instead of chasing set bits (the
      // countr_zero / clear-lowest-bit walk is a serial latency chain).
      // The arena arrays are raw pointers, and the enabled count lives
      // in a local, so stores through them cannot alias it.
      CompletedFromRow = true;
      std::span<const TransitionId> Done = completions();
      assert(Done.size() == BusyCount &&
             "unit busy set diverged from the last firing record");
      const uint8_t *FastC = L.FastCompTopo.data();
      const uint32_t *COff = L.CompOff.data();
      const uint64_t *CPairs = L.CompPairs.data();
      uint64_t *MarkP = HS.Mark;
      uint32_t *RdP = HS.Readiness;
      uint64_t *EnP = HS.EnabledIdle;
      if (!Gated && Done.size() >= L.BitWords) {
        // A dense instant (at least one completion per enabled-set
        // word) sets no bit as it goes: its produces, scattered over
        // the bitset, would form a chain of read-modify-writes through
        // it, which measured slower than re-deriving every word from
        // the readiness counters once the drain settles — O(N/64), no
        // more than the instant's completions.  (Flagging the words
        // the produces touch, to re-derive only those, measured slower
        // still: a dense instant touches nearly every word.)
        for (TransitionId T : Done) {
          uint32_t I = T.index();
          if (FastC[I]) [[likely]] {
            for (uint32_t K = COff[I], E = COff[I + 1]; K < E; ++K) {
              uint64_t Pair = CPairs[K];
              uint32_t S = static_cast<uint32_t>(Pair >> 32);
              uint64_t Bit = 1ull << (S & 63);
              uint64_t OldW = MarkP[S >> 6];
              if (OldW & Bit) {
                addExcess(S);
                continue;
              }
              MarkP[S >> 6] = OldW | Bit;
              --RdP[static_cast<uint32_t>(Pair)];
            }
          } else {
            produceCounted(I);
          }
          RdP[I] -= BusyBias;
        }
        rederiveEnabled();
      } else {
        // Only bits are set here, so the sets counted are the count's
        // growth; the generic walks count their own.
        size_t EnCount = EnabledIdleCount;
        auto Flush = [&] {
          Ctrs.EnabledSets += EnCount - EnabledIdleCount;
          EnabledIdleCount = EnCount;
        };
        auto Enable = [&](uint32_t T, bool En) {
          EnP[T >> 6] |= static_cast<uint64_t>(En) << (T & 63);
          noteSetWord(T, En);
          EnCount += En;
        };
        for (TransitionId T : Done) {
          uint32_t I = T.index();
          if (FastC[I]) [[likely]] {
            for (uint32_t K = COff[I], E = COff[I + 1]; K < E; ++K) {
              uint64_t Pair = CPairs[K];
              uint32_t S = static_cast<uint32_t>(Pair >> 32);
              uint64_t Bit = 1ull << (S & 63);
              uint64_t OldW = MarkP[S >> 6];
              if (OldW & Bit) {
                addExcess(S);
                continue;
              }
              MarkP[S >> 6] = OldW | Bit;
              uint32_t C = static_cast<uint32_t>(Pair);
              uint32_t R = RdP[C] - 1;
              RdP[C] = R;
              Enable(C, R == 0);
            }
          } else {
            Flush();
            produceOutputs(I);
            EnCount = EnabledIdleCount;
          }
          uint32_t R = RdP[I] - BusyBias;
          RdP[I] = R;
          if (Gated) {
            Flush();
            if (R == 0)
              setEnabledIdle(I);
            EnCount = EnabledIdleCount;
          } else {
            Enable(I, R == 0);
          }
        }
        Flush();
      }
      // Every busy bit is a completion's, so zeroing the completions'
      // words clears the set; a dense instant clears it whole.
      if (Done.size() < L.BitWords)
        for (TransitionId T : Done)
          HS.Busy[T.index() >> 6] = 0;
      else
        std::fill_n(HS.Busy, L.BitWords, uint64_t(0));
      BusyCount = 0;
    } else if (BusyCount != 0 && BusyCount * 16 < L.BitWords) {
      // Policy engines replay completions through the recording path.
      // The busy set is the last step's fired ids, in firing order: a
      // few are sorted into index order, ...
      std::span<const TransitionId> Fired = (*LastOut)[LastRow].Fired;
      assert(Fired.size() == BusyCount &&
             "unit busy set diverged from the last firing record");
      CompletedThisStep.assign(Fired.begin(), Fired.end());
      std::sort(CompletedThisStep.begin(), CompletedThisStep.end());
      for (TransitionId T : CompletedThisStep) {
        uint32_t I = T.index();
        HS.Busy[I >> 6] &= ~(1ull << (I & 63));
        produceOutputs(I);
        uint32_t R = HS.Readiness[I] - BusyBias;
        HS.Readiness[I] = R;
        if (R == 0)
          setEnabledIdle(I);
      }
      BusyCount = 0;
    } else if (BusyCount != 0) {
      // ... and many are read off the busy bitset a word at a time.
      uint64_t *BusyP = HS.Busy;
      for (size_t W = 0, NW = L.BitWords; W < NW; ++W) {
        uint64_t Word = BusyP[W];
        if (!Word)
          continue;
        BusyP[W] = 0;
        do {
          uint32_t I = static_cast<uint32_t>(W * 64 + std::countr_zero(Word));
          Word &= Word - 1;
          produceOutputs(I);
          uint32_t R = HS.Readiness[I] - BusyBias;
          HS.Readiness[I] = R;
          if (R == 0)
            setEnabledIdle(I);
          CompletedThisStep.push_back(TransitionId(I));
        } while (Word);
      }
      BusyCount = 0;
    }
  } else {
    bool AnyDue =
        L.UseRing
            ? HS.RingCount[static_cast<size_t>(Now % (L.MaxExec + 1))] != 0
            : (!Far.empty() && Far.begin()->first == Now);
    if (AnyDue) {
      for (size_t W = 0; W < L.BitWords; ++W) {
        uint64_t Word = HS.Busy[W];
        while (Word) {
          uint32_t I = static_cast<uint32_t>(W * 64 + std::countr_zero(Word));
          Word &= Word - 1;
          if (HS.FinishTime[I] == Now)
            completeTransition(I);
        }
      }
      if (L.UseRing)
        HS.RingCount[static_cast<size_t>(Now % (L.MaxExec + 1))] = 0;
      else
        Far.erase(Far.begin());
    }
  }
  // Checked at every instant on nets of up to 4,096 transitions, and at
  // power-of-two instants above, so a large net's debug run stays
  // O(N log T).
  assert(((L.BitWords > 64 && (Ctrs.Rebuilds & (Ctrs.Rebuilds - 1)) != 0) ||
          enabledMatchesSweep()) &&
         "event-kept enabled set diverged from the readiness words");

  // Phase A2+A3: candidate set = enabled idle transitions, index order,
  // then the machine observes the state and orders its choices.  With no
  // policy the order IS the bitset's index order, so materializing the
  // list waits until someone asks (candidates()); the firing loop walks
  // the bitset directly.  A policy reads the bitset itself.
  OrderedValid = false;
  if (Ready) {
    // The firing walk reads the list in place (fireAndAdvance).
    Ready->observe(Now, Net, M, CompletedThisStep);
  } else if (Policy) {
    Policy->orderEnabled(Net, M, CompletedThisStep, enabledBits(),
                         L.BitWords, Ordered);
    OrderedValid = true;
  }
}

InstantaneousState EarliestFiringEngine::state() const {
  assert(Prepared && "state sampled before prepare()");
  syncMarking();
  InstantaneousState S;
  S.M = M;
  S.Residual.assign(L.NumTransitions, 0);
  // Residual firing time R_u(t): remaining execution time of busy
  // transitions at the sample instant (post-completion, pre-firing); a
  // unit-time net therefore always samples the all-zero vector, matching
  // the paper's Figure 1(e).  Walk the busy set, not FinishTime: unit
  // mode leaves stale entries there by design.
  forEachSetBit(HS.Busy, L.BitWords, [&](uint32_t I) {
    S.Residual[I] = static_cast<TimeUnits>(HS.FinishTime[I] - Now);
  });
  if (Policy)
    S.PolicyFingerprint = Policy->stateFingerprint();
  return S;
}

void EarliestFiringEngine::packState(PackedState &Out) const {
  assert(Prepared && "state packed before prepare()");
  Out.beginState(L.MarkWords);
  Out.setMarkWords(HS.Mark, L.MarkWords);
  if (size_t NP = planesInUse()) {
    // Counts above one: the planes when they are shorter than one
    // sparse word per multi-token place, else the sparse words, found
    // through the union of the planes.  Safe nets (the paper's setting)
    // never enter this branch.
    auto AnyAt = [&](size_t W) {
      uint64_t Any = 0;
      for (size_t B = 0; B < NP; ++B)
        Any |= Planes[B * L.MarkWords + W];
      return Any;
    };
    size_t MultiToken = 0;
    for (size_t W = 0; W < L.MarkWords; ++W)
      MultiToken += static_cast<size_t>(std::popcount(AnyAt(W)));
    if (MultiToken > NP * L.MarkWords) {
      Out.appendPlanes(Planes.data(), NP, L.MarkWords);
    } else {
      for (size_t W = 0; W < L.MarkWords; ++W)
        for (uint64_t Any = AnyAt(W); Any; Any &= Any - 1) {
          uint32_t S =
              static_cast<uint32_t>(W * 64 + std::countr_zero(Any));
          Out.appendOverflow(L.SlotPlace[S], 1 + excessAt(S));
        }
    }
  }
  // A unit-time net's busy set is always empty here (prepare() drained
  // it), so skip the walk when nothing is in flight.
  if (BusyCount != 0)
    forEachSetBit(HS.Busy, L.BitWords, [&](uint32_t I) {
      Out.appendBusy(I, static_cast<uint32_t>(HS.FinishTime[I] - Now));
    });
  if (Policy) {
    if (std::optional<uint64_t> Summary = Policy->conditionSummary()) {
      Out.appendSummary(*Summary);
    } else {
      FpScratch.clear();
      Policy->appendFingerprint(FpScratch);
      Out.appendFingerprint(FpScratch);
    }
  }
  Out.finishState();
}

void EarliestFiringEngine::offerSlotWord(PackedStateTable &Seen,
                                         size_t W) const {
  Seen.offerWord(W, HS.Mark[W]);
  for (size_t B = 0; B < NumPlanes; ++B)
    Seen.offerWord((1 + B) * L.MarkWords + W, Planes[B * L.MarkWords + W]);
}

void EarliestFiringEngine::logState(PackedStateTable &Seen) {
  assert(Prepared && "state logged before prepare()");
  size_t MW = L.MarkWords;
  Seen.beginState(MW * (1 + NumPlanes));
  // Since the last logged instant the previous step consumed its
  // firings' inputs and this instant's completions produced their
  // outputs; leapt instants in between moved nothing.
  std::span<const TransitionId> Fired =
      LastOut ? (*LastOut)[LastRow].Fired : std::span<const TransitionId>();
  std::span<const TransitionId> Done = completions();
  if (Logged && (Fired.size() + Done.size()) * 4 < MW) {
    for (TransitionId T : Fired)
      for (uint32_t K = L.InOff[T.index()], E = L.InOff[T.index() + 1];
           K < E; ++K)
        offerSlotWord(Seen, L.PlaceSlot[L.InList[K]] >> 6);
    for (TransitionId T : Done)
      for (uint32_t K = L.OutOff[T.index()], E = L.OutOff[T.index() + 1];
           K < E; ++K)
        offerSlotWord(Seen, L.PlaceSlot[L.OutList[K]] >> 6);
#ifndef NDEBUG
    size_t Offered = Seen.pendingChanges();
    for (size_t W = 0; W < MW; ++W)
      offerSlotWord(Seen, W);
    assert(Seen.pendingChanges() == Offered &&
           "a word changed outside the instant's events");
#endif
  } else {
    Seen.offerWords(0, HS.Mark, MW);
    Seen.offerWords(MW, Planes.data(), NumPlanes * MW);
  }
  Logged = true;
  appendTail(Seen.tail(), Now);
}

void EarliestFiringEngine::logLeaptState(PackedStateTable &Seen,
                                         TimeStep At) const {
  Seen.beginState(L.MarkWords * (1 + NumPlanes));
  appendTail(Seen.tail(), At);
}

void EarliestFiringEngine::appendTail(std::vector<uint64_t> &Tail,
                                      TimeStep At) const {
  // The tail's length tells how many busy entries it holds, unless a
  // fingerprint of any length follows them: then the busy count goes
  // first, so a fingerprint cannot pass for busy entries.
  uint64_t Summary = 0;
  bool Fingerprint = false;
  if (Policy) {
    std::optional<uint64_t> S = Policy->conditionSummary();
    Fingerprint = !S;
    Summary = S.value_or(0);
  }
  if (Fingerprint)
    Tail.push_back(BusyCount);
  if (BusyCount != 0)
    forEachSetBit(HS.Busy, L.BitWords, [&](uint32_t I) {
      Tail.push_back((static_cast<uint64_t>(I) << 32) |
                     static_cast<uint32_t>(HS.FinishTime[I] - At));
    });
  if (Fingerprint) {
    FpScratch.clear();
    Policy->appendFingerprint(FpScratch);
    Tail.insert(Tail.end(), FpScratch.begin(), FpScratch.end());
  } else if (Policy) {
    Tail.push_back(Summary);
  }
}

const std::vector<TransitionId> &EarliestFiringEngine::candidates() const {
  assert(Prepared && "candidates requested before prepare()");
  if (!OrderedValid) {
    Ordered.clear();
    const uint64_t *Enabled = enabledBits();
    if (Ready)
      Ready->appendOrder(Enabled, L.BitWords, Ordered);
    else
      forEachSetBit(Enabled, L.BitWords,
                    [&](uint32_t I) { Ordered.push_back(TransitionId(I)); });
    OrderedValid = true;
  }
  return Ordered;
}

void EarliestFiringEngine::startFiring(uint32_t I) {
  uint32_t B = L.InOff[I], E = L.InOff[I + 1];
  for (uint32_t K = B; K < E; ++K)
    consumeToken(L.InList[K]);
  if (HS.Readiness[I] == 0)
    clearEnabledIdle(I);
  HS.Readiness[I] += BusyBias;
  HS.Busy[I >> 6] |= 1ull << (I & 63);
  ++BusyCount;
  if (!L.UnitTime) {
    // Unit-time nets complete the whole busy set next step, so the
    // finish bookkeeping below would never be read.
    TimeStep F = Now + L.Exec[I];
    HS.FinishTime[I] = F;
    if (L.UseRing)
      ++HS.RingCount[static_cast<size_t>(F % (L.MaxExec + 1))];
    else
      ++Far[F];
  }
}

/// The firing phase of an engine with a policy: a ReadyListPolicy's
/// list walked in place, or another policy's materialized order.
/// Policies keep exact counts, so only the generic consume path
/// applies here.
void EarliestFiringEngine::firePolicyCandidates(FiringTrace &Rec) {
  if (Ready) {
    // Non-conflicting candidates first, in index order: from the list of
    // those enabled since the last phase, or from the enabled set.
    if (ListFree) {
      std::sort(FreeEnabled.begin(), FreeEnabled.end());
      for (TransitionId T : FreeEnabled) {
        if (!testBit(HS.EnabledIdle, T.index()))
          continue; // An earlier firing consumed a shared token.
        startFiring(T.index());
        Rec.addFired(T);
      }
      FreeEnabled.clear();
    } else {
      const std::vector<uint64_t> &Conflict = Ready->ConflictBits;
      for (size_t W = 0, NW = L.BitWords; W < NW; ++W) {
        uint64_t Word =
            HS.EnabledIdle[W] & ~(W < Conflict.size() ? Conflict[W] : 0);
        while (Word) {
          uint32_t I =
              static_cast<uint32_t>(W * 64 + std::countr_zero(Word));
          Word &= Word - 1;
          if (!testBit(HS.EnabledIdle, I) || gateMasked(I))
            continue; // Consumed by an earlier firing, or gated.
          startFiring(I);
          Rec.addFired(TransitionId(I));
        }
      }
    }
    // Then the ready list in place.  Firings within a step only take
    // tokens, and every enabled conflicting transition is listed, so
    // the walk ends once nothing is left enabled: typically when the
    // step's resource tokens are spent.
    uint64_t Visits = 0;
    for (uint32_t V = Ready->front();
         V != ReadyListPolicy::None && anyEnabled();) {
      uint32_t After = Ready->after(V);
      ++Visits;
      if (testBit(HS.EnabledIdle, V) && !gateMasked(V)) {
        startFiring(V);
        Rec.addFired(TransitionId(V));
        Ready->noteFired(TransitionId(V));
      }
      V = After;
    }
    Ready->Visits += Visits;
  } else {
    for (TransitionId T : Ordered) {
      uint32_t I = T.index();
      if (!testBit(HS.EnabledIdle, I) || gateMasked(I))
        continue; // Consumed by an earlier firing, or gated.
      startFiring(I);
      Rec.addFired(T);
      Policy->noteFired(T);
    }
  }
}

uint32_t EarliestFiringEngine::consumeCounted(uint32_t I) {
  // AllFast layout: I's input slots are [InOff[I], InOff[I + 1]).
  uint32_t Missing = 0;
  for (uint32_t S = L.InOff[I], E = L.InOff[I + 1]; S < E; ++S) {
    assert(testBit(HS.Mark, S) && "consuming from an empty place");
    if (takeExcess(S))
      continue;
    HS.Mark[S >> 6] &= ~(1ull << (S & 63));
    ++Missing;
  }
  return Missing;
}

void EarliestFiringEngine::fireIndexOrder(FiringTrace &Rec) {
  // Candidate order is bitset index order; walk the words the summary
  // marks and collect each word's fast-path firings into one pair of
  // bitset updates.  (Word snapshots make the mid-walk clears from
  // generic consumes and gates safe: a candidate re-checks its live
  // enabled bit.)
  // Pointers and counters live in locals for the same aliasing
  // reason as the completion drain.
  const uint8_t *FastF = L.FastFireTopo.data();
  const uint32_t *InOffP = L.InOff.data();
  const uint32_t *InListP = L.InList.data();
  uint32_t *RdP = HS.Readiness;
  uint64_t *MarkP = HS.Mark;
  uint64_t *EnP = HS.EnabledIdle;
  uint64_t *BusyP = HS.Busy;
  size_t EnCount = EnabledIdleCount;
  size_t BusyCnt = BusyCount;
  // Every firing is a candidate now, so the enabled count bounds the
  // step's firings: write them through a raw pointer and give back
  // the unused room after the walk.
  size_t Room = EnCount;
  TransitionId *Out = Rec.growFired(Room);
  size_t NF = 0;
  forEachMarkedWord(EnabledSummary, EnP, [&](size_t W) {
    uint64_t Word = EnP[W];
    uint64_t FiredW = 0;
    do {
      uint32_t I = static_cast<uint32_t>(W * 64 + std::countr_zero(Word));
      Word &= Word - 1;
      if (!testBit(EnP, I))
        continue; // An earlier firing consumed a shared token.
      uint32_t B = InOffP[I], E = InOffP[I + 1];
      if (FastF[I]) [[likely]] {
        // Every input place's sole consumer is this transition, so
        // consuming cannot touch anyone else's readiness — just take
        // the tokens and account the whole firing in one readiness
        // store.  (Places are their own slots outside AllFast nets.)
        uint32_t Missing = 0;
        for (uint32_t K = B; K < E; ++K) {
          uint32_t P = InListP[K];
          assert(testBit(MarkP, P) && "consuming from an empty place");
          if (NumPlanes != 0 && takeExcess(P))
            continue;
          MarkP[P >> 6] &= ~(1ull << (P & 63));
          ++Missing;
        }
        RdP[I] = Missing + BusyBias;
        FiredW |= 1ull << (I & 63);
      } else {
        if (gateMasked(I))
          continue; // A gated input place is empty.
        EnabledIdleCount = EnCount;
        for (uint32_t K = B; K < E; ++K)
          consumeToken(InListP[K]);
        // Consuming the first emptied input already cleared the
        // enabled-idle bit via the consumer walk; only a firing whose
        // inputs all stay marked (multi-token places or gated places)
        // clears it here.
        if (RdP[I] == 0)
          clearEnabledIdle(I);
        EnCount = EnabledIdleCount;
        RdP[I] += BusyBias;
        BusyP[W] |= 1ull << (I & 63);
        ++BusyCnt;
      }
      if (!L.UnitTime) {
        TimeStep F = Now + L.Exec[I];
        HS.FinishTime[I] = F;
        if (L.UseRing)
          ++HS.RingCount[static_cast<size_t>(F % (L.MaxExec + 1))];
        else
          ++Far[F];
      }
      Out[NF++] = TransitionId(I);
    } while (Word);
    EnP[W] &= ~FiredW;
    EnCount -= static_cast<size_t>(std::popcount(FiredW));
    BusyP[W] |= FiredW;
    BusyCnt += static_cast<size_t>(std::popcount(FiredW));
  });
  EnabledIdleCount = EnCount;
  BusyCount = BusyCnt;
  Rec.shrinkFired(Room - NF);
}

StepRecord EarliestFiringEngine::fireAndAdvance() {
  prepare();
  StepRecord R;
  R.Time = Now;
  std::span<const TransitionId> Done = completions();
  R.Completed.assign(Done.begin(), Done.end());
  // Own keeps one row, this step's: the next step's completions may be
  // read back from it.
  Own.clear();
  fireInto(Own, R.Completed);
  std::span<const TransitionId> Fired = Own.back().Fired;
  R.Fired.assign(Fired.begin(), Fired.end());
  return R;
}

void EarliestFiringEngine::fireAndAdvance(FiringTrace &Rec) {
  prepare();
  std::span<const TransitionId> Done = completions();
  if (CompletedFromRow && LastOut == &Rec && LastRow + 1 != Rec.size()) {
    // Completions read from an earlier row of the trace being appended
    // to: copy them out before the trace can grow under them.
    CompletedThisStep.assign(Done.begin(), Done.end());
    Done = CompletedThisStep;
  }
  fireInto(Rec, Done);
}

void EarliestFiringEngine::fireInto(FiringTrace &Rec,
                                    std::span<const TransitionId> Completed) {
  // The previous row's fired ids are this row's completions in a
  // unit-time net without a policy: the trace then shares them.
  Rec.beginStep(Now, Completed);
  size_t NumCompleted = Completed.size();

  // Greedy maximal firing in policy order.  Consumption happens now;
  // production is deferred to completion, so firings within one step
  // cannot cascade (execution times are >= 1).
  if (AllFast) {
    // Pure marked graph: firing a candidate cannot disable any other
    // (no shared input places), so every enabled-idle transition fires
    // — no readiness re-check, each word retired with two bitset
    // stores, and the fired list written through a raw pointer.  The
    // slot permutation puts transition I's input marks at bits
    // [InOff[I], InOff[I+1]), so consuming is a masked clear with no
    // input-list loads, unless a count plane holds one of those slots.
    const uint32_t *InOffP = L.InOff.data();
    const TimeUnits *ExecP = L.Exec.data();
    uint32_t *RdP = HS.Readiness;
    uint64_t *MarkP = HS.Mark;
    uint64_t *EnP = HS.EnabledIdle;
    uint64_t *BusyP = HS.Busy;
    const uint64_t *PlaneP = Planes.data();
    size_t NP = NumPlanes, MW = L.MarkWords;
    TransitionId *Out = Rec.growFired(EnabledIdleCount);
    size_t NF = 0;
    forEachMarkedWord(EnabledSummary, EnP, [&](size_t W) {
      uint64_t Word = EnP[W];
      EnP[W] = 0;
      BusyP[W] |= Word;
      do {
        uint32_t I = static_cast<uint32_t>(W * 64 + std::countr_zero(Word));
        Word &= Word - 1;
        assert(RdP[I] == 0 && "enabled-idle bit with nonzero word");
        uint32_t B = InOffP[I], E = InOffP[I + 1];
        uint32_t Missing = E - B;
        if (B != E) {
          uint32_t Last = E - 1;
          size_t W0 = B >> 6, W1 = Last >> 6;
          uint64_t MaskLo = ~0ull << (B & 63);
          uint64_t MaskHi = ~0ull >> (63 - (Last & 63));
          if (W0 == W1) [[likely]] {
            uint64_t Mask = MaskLo & MaskHi;
            uint64_t Counted = 0;
            for (size_t P = 0; P < NP; ++P)
              Counted |= PlaneP[P * MW + W0];
            if (Counted & Mask) {
              Missing = consumeCounted(I);
            } else {
              uint64_t OldW = MarkP[W0];
              assert((OldW & Mask) == Mask &&
                     "consuming from an empty place");
              MarkP[W0] = OldW & ~Mask;
            }
          } else if (NP != 0) {
            Missing = consumeCounted(I);
          } else {
            MarkP[W0] &= ~MaskLo;
            for (size_t V = W0 + 1; V < W1; ++V)
              MarkP[V] = 0;
            MarkP[W1] &= ~MaskHi;
          }
        }
        RdP[I] = Missing + BusyBias;
        if (!L.UnitTime) {
          TimeStep F = Now + ExecP[I];
          HS.FinishTime[I] = F;
          if (L.UseRing)
            ++HS.RingCount[static_cast<size_t>(F % (L.MaxExec + 1))];
          else
            ++Far[F];
        }
        Out[NF++] = TransitionId(I);
      } while (Word);
    });
    assert(NF == EnabledIdleCount && "marked-graph candidate was skipped");
    BusyCount += NF;
    EnabledIdleCount = 0;
  } else if (!Policy) {
    fireIndexOrder(Rec);
  } else {
    firePolicyCandidates(Rec);
  }

  size_t NF = Rec.openFired().size();
  Rec.endStep();
  LastOut = &Rec;
  LastRow = Rec.size() - 1;
  Ctrs.Firings += NF;
  Ctrs.Completions += NumCompleted;
  ++Now;
  Prepared = false;
}

std::optional<TimeStep> EarliestFiringEngine::nextFinishTime() const {
  if (BusyCount == 0)
    return std::nullopt;
  if (L.UnitTime) {
    // Busy transitions all finish one step after firing; between steps
    // that instant is the current one.  (Prepared with a non-empty busy
    // set cannot happen: prepare() drains it.)
    assert(!Prepared && "unit-time busy set nonempty after prepare()");
    return Now;
  }
  if (!L.UseRing)
    return Far.begin()->first;
  for (TimeUnits R = Prepared ? 1 : 0; R <= L.MaxExec; ++R) {
    TimeStep F = Now + R;
    if (HS.RingCount[static_cast<size_t>(F % (L.MaxExec + 1))] != 0)
      return F;
  }
  SDSP_UNREACHABLE("busy transitions but no pending finish time");
}

void EarliestFiringEngine::leapTo(TimeStep T) {
  SDSP_CHECK(!Prepared, "leapTo() must run between steps");
  SDSP_CHECK(T >= Now, "leapTo() cannot rewind the clock");
  SDSP_CHECK(!anyEnabled(),
             "leapTo() across an instant where a transition could fire");
  std::optional<TimeStep> F = nextFinishTime();
  SDSP_CHECK(!F || *F >= T, "leapTo() across a pending completion");
  Ctrs.InstantsLeapt += T - Now;
  Now = T;
}
