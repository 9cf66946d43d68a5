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
                         std::span<const uint32_t> Firings) {
  assert(empty() && Completions.size() == Firings.size() &&
         "laying out rows of a nonempty trace");
  size_t Rows = Completions.size();
  Times.resize(Rows);
  CompletedEnd.resize(Rows);
  FiredEnd.resize(Rows);
  uint64_t At = 0;
  for (size_t I = 0; I < Rows; ++I) {
    Times[I] = I;
    At += Completions[I];
    CompletedEnd[I] = At;
    At += Firings[I];
    FiredEnd[I] = At;
  }
  Ids.resize(At);
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
      M(Net.initialMarking()), L(Net), Sweep(readinessSweep()) {
  HS.init(L);

  for (PlaceId P : Net.placeIds()) {
    uint32_t C = M.tokens(P);
    uint32_t S = L.PlaceSlot[P.index()];
    if (C >= 1)
      HS.Mark[S >> 6] |= 1ull << (S & 63);
    if (C >= 2) {
      ++OverflowPlaces;
      setExcess(S, 0, C - 1);
    }
  }
  ExactEnabled = Policy != nullptr;
  if (ExactEnabled)
    ZeroIdle.assign(L.BitWords, 0);
  for (TransitionId T : Net.transitionIds()) {
    uint32_t Missing = 0;
    for (PlaceId P : Net.transition(T).InputPlaces)
      if (M.tokens(P) == 0 && L.GateOf[P.index()] == EngineLayout::NoGate)
        ++Missing;
    HS.Readiness[T.index()] = Missing;
    if (Missing == 0)
      setEnabledIdle(T.index());
  }
  for (uint32_t G = 0; G < L.GatePlace.size(); ++G)
    if (M.tokens(PlaceId(L.GatePlace[G])) == 0)
      closeGate(G);

  // Seed the incremental marking hash: one absolute term per word
  // (zero-valued words contribute too — the per-word term cache keeps
  // the accumulator exact because every word always has a term).
  MarkTerm.resize(L.MarkWords);
  MarkShadow.assign(HS.Mark, HS.Mark + L.MarkWords);
  for (size_t W = 0; W < L.MarkWords; ++W) {
    MarkTerm[W] = PackedState::mixWord(1 + W, HS.Mark[W]);
    MarkHash ^= MarkTerm[W];
  }

  // Policies observe the Marking every step, so keep it eagerly exact
  // for them; otherwise a safe initial marking runs in bit mode.
  UseBitMarking = Policy == nullptr && OverflowPlaces == 0;
  if (!UseBitMarking) {
    std::fill_n(HS.FastFire, L.NumTransitions, uint8_t(0));
    std::fill_n(HS.FastComp, L.NumTransitions, uint8_t(0));
  }
  AllFast = UseBitMarking && L.AllFastTopo;

  if (Policy)
    Policy->reset();
}

bool EarliestFiringEngine::noteZero(uint32_t T) {
  ZeroIdle[T >> 6] |= 1ull << (T & 63);
  return L.GatePlace.empty() || !hasEmptyGatedInput(T);
}

// Inline: the token walks of every engine call these, and the policy
// engines' extra bookkeeping must not push them out of line.
inline void EarliestFiringEngine::setEnabledIdle(uint32_t T) {
  if (ExactEnabled && !noteZero(T))
    return;
  // Callers only reach this on an exact 0-crossing of Readiness[T], so
  // the bit is known clear.
  assert(!(HS.EnabledIdle[T >> 6] & (1ull << (T & 63))) &&
         "transition already in the enabled-idle set");
  HS.EnabledIdle[T >> 6] |= 1ull << (T & 63);
  ++EnabledIdleCount;
}

inline void EarliestFiringEngine::clearEnabledIdle(uint32_t T) {
  uint64_t &Word = HS.EnabledIdle[T >> 6];
  uint64_t Bit = 1ull << (T & 63);
  if (ExactEnabled)
    ZeroIdle[T >> 6] &= ~Bit;
  // Only a closed gate can have cleared the bit of a transition whose
  // readiness word reads zero.
  assert(((Word & Bit) || hasEmptyGatedInput(T)) &&
         "transition not in the enabled-idle set");
  if (Word & Bit) {
    Word &= ~Bit;
    --EnabledIdleCount;
  }
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

void EarliestFiringEngine::closeGate(uint32_t G) {
  const uint64_t *Mask = L.GateMask.data() + G * L.BitWords;
  uint64_t *En = HS.EnabledIdle;
  size_t Removed = 0;
  for (size_t W = L.GateBegin[G], NW = L.GateEnd[G]; W < NW; ++W) {
    uint64_t Off = En[W] & Mask[W];
    Removed += static_cast<size_t>(std::popcount(Off));
    En[W] ^= Off;
  }
  EnabledIdleCount -= Removed;
}

void EarliestFiringEngine::openGate(uint32_t G) {
  const uint64_t *Mask = L.GateMask.data() + G * L.BitWords;
  const uint64_t *Zero = ZeroIdle.data();
  uint64_t *En = HS.EnabledIdle;
  size_t Added = 0;
  if (L.GatePlace.size() == 1) {
    for (size_t W = L.GateBegin[G], NW = L.GateEnd[G]; W < NW; ++W) {
      uint64_t On = Zero[W] & Mask[W] & ~En[W];
      En[W] |= On;
      Added += static_cast<size_t>(std::popcount(On));
    }
  } else {
    for (size_t W = L.GateBegin[G], NW = L.GateEnd[G]; W < NW; ++W) {
      uint64_t On = Zero[W] & Mask[W] & ~En[W];
      // A consumer behind a second gate that is still closed stays out.
      for (uint64_t B = On; B; B &= B - 1)
        if (hasEmptyGatedInput(
                static_cast<uint32_t>(W * 64 + std::countr_zero(B))))
          On &= ~(B & -B);
      En[W] |= On;
      Added += static_cast<size_t>(std::popcount(On));
    }
  }
  EnabledIdleCount += Added;
}

bool EarliestFiringEngine::enabledMatchesSweep() const {
  // Word by word, without allocating: the census tests count this
  // engine's allocations in builds that run the check.
  size_t Count = 0;
  for (size_t W = 0; W < L.BitWords; ++W) {
    uint64_t Want = 0;
    for (size_t B = 0; B < 64; ++B)
      Want |= static_cast<uint64_t>(HS.Readiness[W * 64 + B] == 0) << B;
    for (uint32_t G = 0; G < L.GatePlace.size(); ++G)
      if (!testBit(HS.Mark, L.PlaceSlot[L.GatePlace[G]]))
        Want &= ~L.GateMask[G * L.BitWords + W];
    if (Want != HS.EnabledIdle[W])
      return false;
    Count += static_cast<size_t>(std::popcount(Want));
  }
  return Count == EnabledIdleCount;
}

void EarliestFiringEngine::setExcess(uint32_t S, uint32_t From, uint32_t To) {
  uint32_t Diff = From ^ To;
  size_t Need = static_cast<size_t>(std::bit_width(Diff));
  if (PlanePop.size() < Need) {
    PlanePop.resize(Need, 0);
    Planes.resize(Need * L.MarkWords, 0);
  }
  uint64_t Bit = 1ull << (S & 63);
  uint64_t *Word = Planes.data() + (S >> 6);
  while (Diff) {
    unsigned B = static_cast<unsigned>(std::countr_zero(Diff));
    Diff &= Diff - 1;
    uint64_t &W = Word[B * L.MarkWords];
    W ^= Bit;
    if (W & Bit)
      ++PlanePop[B];
    else
      --PlanePop[B];
  }
}

size_t EarliestFiringEngine::planesInUse() const {
  size_t N = PlanePop.size();
  while (N > 0 && PlanePop[N - 1] == 0)
    --N;
  return N;
}

/// The marking has left the safe regime (or was never in it): rebuild
/// the exact counts from the bits — they agree while every place holds
/// at most one token — and make M authoritative from here on.
void EarliestFiringEngine::leaveBitMarking(uint32_t P) {
  (void)P;
  syncMarking();
  UseBitMarking = false;
  AllFast = false;
  std::fill_n(HS.FastFire, L.NumTransitions, uint8_t(0));
  std::fill_n(HS.FastComp, L.NumTransitions, uint8_t(0));
}

void EarliestFiringEngine::syncMarking() const {
  if (!UseBitMarking)
    return;
  size_t NumP = L.NumPlaces;
  for (size_t P = 0; P < NumP; ++P) {
    uint32_t S = L.PlaceSlot[P];
    M.setTokens(PlaceId(P),
                static_cast<uint32_t>((HS.Mark[S >> 6] >> (S & 63)) & 1));
  }
}

void EarliestFiringEngine::produceToken(uint32_t P) {
  uint32_t S = L.PlaceSlot[P];
  uint64_t Bit = 1ull << (S & 63);
  uint64_t &Word = HS.Mark[S >> 6];
  // A second token on a marked place ends bit mode.
  if (UseBitMarking && (Word & Bit))
    leaveBitMarking(P);
  if (!UseBitMarking) {
    PlaceId Pid(P);
    M.produce(Pid);
    uint32_t C = M.tokens(Pid);
    if (C >= 2) {
      OverflowPlaces += C == 2;
      setExcess(S, C - 2, C - 1);
      return;
    }
  }
  // The place was empty.  A gated place walks no consumers: prepare()'s
  // sweep re-opens its gate, or openGate() does on an ExactEnabled
  // engine.
  Word |= Bit;
  if (uint32_t G = L.GateOf[P]; G != EngineLayout::NoGate) {
    if (ExactEnabled)
      openGate(G);
    return;
  }
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
  if (!UseBitMarking) {
    PlaceId Pid(P);
    M.consume(Pid);
    uint32_t C = M.tokens(Pid);
    if (C >= 1) {
      OverflowPlaces -= C == 1;
      setExcess(S, C, C - 1);
      return;
    }
  }
  // The place is now empty.
  Word &= ~Bit;
  if (uint32_t G = L.GateOf[P]; G != EngineLayout::NoGate) {
    closeGate(G);
    return;
  }
  for (uint32_t K = L.ConsOff[P], E = L.ConsOff[P + 1]; K < E; ++K) {
    uint32_t I = L.ConsList[K];
    if (HS.Readiness[I]++ == 0)
      clearEnabledIdle(I);
  }
}

/// Token production side of completing transition \p I: the fast pair
/// stream when available, the generic per-place walk otherwise.
void EarliestFiringEngine::produceOutputs(uint32_t I) {
  if (HS.FastComp[I]) {
    // Bit-marking fast path: stream the precomputed (slot, consumer)
    // pairs; each produce is one bit set plus one readiness decrement.
    for (uint32_t K = L.CompOff[I], E = L.CompOff[I + 1]; K < E; ++K) {
      uint64_t Pair = L.CompPairs[K];
      uint32_t S = static_cast<uint32_t>(Pair >> 32);
      uint64_t &Word = HS.Mark[S >> 6];
      uint64_t Bit = 1ull << (S & 63);
      if (Word & Bit) [[unlikely]] {
        // Second token on a marked place: abandon bit mode and finish
        // this completion with exact counts.
        leaveBitMarking(L.CompPlace[K]);
        for (; K < E; ++K)
          produceToken(L.CompPlace[K]);
        break;
      }
      Word |= Bit;
      uint32_t C = static_cast<uint32_t>(Pair);
      assert((HS.Readiness[C] & (BusyBias - 1)) > 0 &&
             "missing-input counter underflow");
      // Branchless enable: whether this produce completes the consumer's
      // readiness is data-dependent (~coin-flip in pipelined nets), so an
      // unconditional masked OR beats a mispredicting branch.
      uint32_t R = HS.Readiness[C] - 1;
      HS.Readiness[C] = R;
      bool En = R == 0;
      HS.EnabledIdle[C >> 6] |= static_cast<uint64_t>(En) << (C & 63);
      EnabledIdleCount += En;
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
  CompletedIsLastFired = false;

  // Phase A1: completions.  A transition fired at u with time tau
  // finishes and produces its output tokens at u + tau.  The bucket for
  // the current instant counts the transitions finishing now; their
  // identity is recovered by walking the busy bitset and matching
  // finish times, which visits them in index order — matching the
  // reference engine's finish-time sweep — without a sort.  (Each word
  // is snapshotted before its bits are dispatched, so clearing busy
  // bits mid-walk is safe.)
  if (L.UnitTime) {
    // Every busy transition finishes now; drain the busy set (no
    // finish-time matching, no queue).
    if (BusyCount != 0 && Policy == nullptr) {
      // Without a policy the busy set is exactly LastFired, already
      // materialized in ascending index order by the previous firing
      // phase — iterate it sequentially instead of chasing set bits
      // (the countr_zero / clear-lowest-bit walk is a serial latency
      // chain).  The arena arrays are raw pointers already, so stores
      // through them cannot alias any vector control fields.
      assert(LastFired.size() == BusyCount &&
             "unit busy set diverged from the last firing record");
      const uint8_t *FastC = HS.FastComp;
      const uint32_t *COff = L.CompOff.data();
      const uint64_t *CPairs = L.CompPairs.data();
      uint64_t *MarkP = HS.Mark;
      uint32_t *RdP = HS.Readiness;
      CompletedIsLastFired = true; // LastFired == busy set, index order
      const TransitionId *LF = LastFired.data();
      // No enabled-bit upkeep here: the vectorized readiness rebuild
      // below re-derives the whole bitset from the counters once the
      // drain settles, so every produce is just a mark OR, the hash
      // delta, and a counter decrement.
      for (size_t K0 = 0, NC = LastFired.size(); K0 < NC; ++K0) {
        uint32_t I = LF[K0].index();
        if (FastC[I]) [[likely]] {
          for (uint32_t K = COff[I], E = COff[I + 1]; K < E; ++K) {
            uint64_t Pair = CPairs[K];
            uint32_t S = static_cast<uint32_t>(Pair >> 32);
            uint64_t Bit = 1ull << (S & 63);
            uint64_t OldW = MarkP[S >> 6];
            if (OldW & Bit) [[unlikely]] {
              // Second token on a marked place: abandon bit mode and
              // finish this completion with exact counts.
              leaveBitMarking(L.CompPlace[K]);
              for (; K < E; ++K)
                produceToken(L.CompPlace[K]);
              break;
            }
            MarkP[S >> 6] = OldW | Bit;
            --RdP[static_cast<uint32_t>(Pair)];
          }
        } else {
          produceOutputs(I);
        }
        RdP[I] -= BusyBias;
      }
      std::fill_n(HS.Busy, L.BitWords, uint64_t(0));
      BusyCount = 0;
    } else if (BusyCount != 0) {
      // Policy engines replay completions through the recording path:
      // walk the busy bitset a word at a time, in index order.
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

  // Rebuild the enabled-idle bitset and count from the readiness
  // counters: the fused invariant (enabled and idle iff the word is
  // zero) makes this a sequential compare-to-zero sweep, which lets the
  // unit drain above skip the scattered per-produce bit upkeep
  // entirely.  The incremental updates other paths make are simply
  // overwritten.  The sweep reads whole 64-lane words (the counter
  // array is sentinel-padded) through the per-tier kernel selected at
  // construction (petri/SimdDispatch.h).
  // An ExactEnabled engine kept the set exact as tokens moved.
  if (!ExactEnabled) {
    EnabledIdleCount = Sweep(HS.Readiness, HS.EnabledIdle, L.BitWords);
    // The counters leave gated places out: mask the consumers of the
    // empty ones.
    for (uint32_t G = 0, NG = static_cast<uint32_t>(L.GatePlace.size());
         G < NG; ++G) {
      if (!testBit(HS.Mark, L.PlaceSlot[L.GatePlace[G]]))
        closeGate(G);
    }
  }
  assert((!ExactEnabled || enabledMatchesSweep()) &&
         "event-kept enabled set diverged from the readiness sweep");

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
    Policy->orderEnabled(Net, M, CompletedThisStep, HS.EnabledIdle,
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
  if (OverflowPlaces > 0) {
    // Counts above one: the planes when they are shorter than one
    // sparse word per multi-token place, else the sparse words, found
    // through the union of the planes.  Safe nets (the paper's setting)
    // never enter this branch.
    size_t NP = planesInUse();
    if (OverflowPlaces > NP * L.MarkWords) {
      Out.appendPlanes(Planes.data(), NP, L.MarkWords);
    } else {
      for (size_t W = 0; W < L.MarkWords; ++W) {
        uint64_t Any = 0;
        for (size_t B = 0; B < NP; ++B)
          Any |= Planes[B * L.MarkWords + W];
        while (Any) {
          uint32_t P =
              L.SlotPlace[W * 64 + static_cast<size_t>(std::countr_zero(Any))];
          Any &= Any - 1;
          Out.appendOverflow(P, M.tokens(PlaceId(P)));
        }
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

void EarliestFiringEngine::flushMarkHash() const {
  const uint64_t *Live = HS.Mark;
  uint64_t *Shadow = MarkShadow.data();
  uint64_t *Term = MarkTerm.data();
  uint64_t Acc = MarkHash;
  for (size_t W = 0, E = L.MarkWords; W < E; ++W) {
    if (Shadow[W] == Live[W])
      continue;
    uint64_t T = PackedState::mixWord(1 + W, Live[W]);
    Acc ^= Term[W] ^ T;
    Term[W] = T;
    Shadow[W] = Live[W];
  }
  MarkHash = Acc;
}

uint64_t EarliestFiringEngine::packStateHashed(PackedState &Out) const {
  packState(Out);
  // The marking section's terms come from the shadow-diff accumulator
  // (one mix per word that changed since the last pack, found by a
  // cheap scan-compare); the header and the sections after the marking
  // are mixed fresh, which keeps the whole hash O(mark words compared +
  // changed words mixed + overflow + busy + fingerprint) with zero cost
  // on the token-write hot path.
  flushMarkHash();
  return MarkHash ^ Out.rawTailHash(L.MarkWords);
}

const std::vector<TransitionId> &EarliestFiringEngine::candidates() const {
  assert(Prepared && "candidates requested before prepare()");
  if (!OrderedValid) {
    Ordered.clear();
    if (Ready)
      Ready->appendOrder(HS.EnabledIdle, L.BitWords, Ordered);
    else
      forEachSetBit(HS.EnabledIdle, L.BitWords,
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
/// Policies force exact-count mode, so only the generic consume path
/// applies here (FastFire is zeroed in the constructor).
void EarliestFiringEngine::firePolicyCandidates(FiringTrace &Rec) {
  if (Ready) {
    // Non-conflicting candidates first, in index order.
    const std::vector<uint64_t> &Conflict = Ready->ConflictBits;
    for (size_t W = 0, NW = L.BitWords; W < NW; ++W) {
      uint64_t Word =
          HS.EnabledIdle[W] & ~(W < Conflict.size() ? Conflict[W] : 0);
      while (Word) {
        uint32_t I = static_cast<uint32_t>(W * 64 + std::countr_zero(Word));
        Word &= Word - 1;
        if (!testBit(HS.EnabledIdle, I))
          continue; // An earlier firing consumed a shared token.
        startFiring(I);
        Rec.addFired(TransitionId(I));
      }
    }
    // Then the ready list in place.  Firings within a step only take
    // tokens, and every enabled conflicting transition is listed, so
    // the walk ends once nothing is left enabled: typically when the
    // step's resource tokens are spent.
    uint64_t Visits = 0;
    for (uint32_t V = Ready->front();
         V != ReadyListPolicy::None && EnabledIdleCount != 0;) {
      uint32_t After = Ready->after(V);
      ++Visits;
      if (testBit(HS.EnabledIdle, V)) {
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
      if (!testBit(HS.EnabledIdle, I))
        continue; // An earlier firing consumed a shared token.
      startFiring(I);
      Rec.addFired(T);
      Policy->noteFired(T);
    }
  }
}

StepRecord EarliestFiringEngine::fireAndAdvance() {
  FiringTrace One;
  fireAndAdvance(One);
  StepView S = One.back();
  return StepRecord{S.Time, {S.Completed.begin(), S.Completed.end()},
                    {S.Fired.begin(), S.Fired.end()}};
}

void EarliestFiringEngine::fireAndAdvance(FiringTrace &Rec) {
  prepare();

  // The unit drain already consumed LastFired; it is rebuilt from this
  // step's firings below.
  Rec.beginStep(Now, CompletedIsLastFired ? LastFired : CompletedThisStep);
  size_t NumCompleted = CompletedIsLastFired ? LastFired.size()
                                             : CompletedThisStep.size();

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
    // input-list loads.
    const uint32_t *InOffP = L.InOff.data();
    const TimeUnits *ExecP = L.Exec.data();
    uint32_t *RdP = HS.Readiness;
    uint64_t *MarkP = HS.Mark;
    uint64_t *EnP = HS.EnabledIdle;
    uint64_t *BusyP = HS.Busy;
    TransitionId *Out = Rec.growFired(EnabledIdleCount);
    size_t NF = 0;
    for (size_t W = 0, NW = L.BitWords; W < NW; ++W) {
      uint64_t Word = EnP[W];
      if (!Word)
        continue;
      EnP[W] = 0;
      BusyP[W] |= Word;
      do {
        uint32_t I = static_cast<uint32_t>(W * 64 + std::countr_zero(Word));
        Word &= Word - 1;
        assert(RdP[I] == 0 && "enabled-idle bit with nonzero word");
        uint32_t B = InOffP[I], E = InOffP[I + 1];
        if (B != E) {
          uint32_t Last = E - 1;
          size_t W0 = B >> 6, W1 = Last >> 6;
          uint64_t MaskLo = ~0ull << (B & 63);
          uint64_t MaskHi = ~0ull >> (63 - (Last & 63));
          if (W0 == W1) [[likely]] {
            uint64_t OldW = MarkP[W0];
            assert((OldW & (MaskLo & MaskHi)) == (MaskLo & MaskHi) &&
                   "consuming from an empty place");
            MarkP[W0] = OldW & ~(MaskLo & MaskHi);
          } else {
            uint64_t OldW = MarkP[W0];
            MarkP[W0] = OldW & ~MaskLo;
            for (size_t V = W0 + 1; V < W1; ++V) {
              MarkP[V] = 0;
            }
            OldW = MarkP[W1];
            MarkP[W1] = OldW & ~MaskHi;
          }
        }
        RdP[I] = (E - B) + BusyBias;
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
    }
    assert(NF == EnabledIdleCount && "marked-graph candidate was skipped");
    BusyCount += NF;
    EnabledIdleCount = 0;
  } else if (!Policy) {
    // Candidate order is bitset index order; walk the words directly
    // and collect each word's fast-path firings into one pair of
    // bitset updates.  (Word snapshots make the mid-walk clears from
    // generic consumes and gates safe: a candidate re-checks its live
    // enabled bit.)
    // Pointers and counters live in locals for the same aliasing
    // reason as the completion drain.
    const uint8_t *FastF = HS.FastFire;
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
    for (size_t W = 0, NW = L.BitWords; W < NW; ++W) {
      uint64_t Word = EnP[W];
      if (!Word)
        continue;
      uint64_t FiredW = 0;
      do {
        uint32_t I = static_cast<uint32_t>(W * 64 + std::countr_zero(Word));
        Word &= Word - 1;
        if (!testBit(EnP, I))
          continue; // An earlier firing consumed a shared token.
        uint32_t B = InOffP[I], E = InOffP[I + 1];
        if (FastF[I]) [[likely]] {
          // Bit-marking fast path: every input place's sole consumer
          // is this transition, so consuming cannot touch anyone
          // else's readiness — just clear the input bits and account
          // the whole firing in one readiness store.
          for (uint32_t K = B; K < E; ++K) {
            uint32_t P = InListP[K];
            uint64_t OldW = MarkP[P >> 6];
            assert((OldW & (1ull << (P & 63))) &&
                   "consuming from an empty place");
            MarkP[P >> 6] = OldW & ~(1ull << (P & 63));
          }
          RdP[I] = (E - B) + BusyBias;
          FiredW |= 1ull << (I & 63);
        } else {
          EnabledIdleCount = EnCount;
          for (uint32_t K = B; K < E; ++K)
            consumeToken(InListP[K]);
          // Consuming the first emptied input already cleared the
          // enabled-idle bit via the consumer walk or a gate; only a
          // firing whose inputs all stay marked (multi-token places)
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
    }
    EnabledIdleCount = EnCount;
    BusyCount = BusyCnt;
    Rec.shrinkFired(Room - NF);
  } else {
    firePolicyCandidates(Rec);
  }

  std::span<const TransitionId> Fired = Rec.openFired();
  Rec.endStep();
  if (L.UnitTime && !Policy)
    LastFired.assign(Fired.begin(), Fired.end());
  Ctrs.Firings += Fired.size();
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
  SDSP_CHECK(EnabledIdleCount == 0,
             "leapTo() across an instant where a transition could fire");
  std::optional<TimeStep> F = nextFinishTime();
  SDSP_CHECK(!F || *F >= T, "leapTo() across a pending completion");
  Ctrs.InstantsLeapt += T - Now;
  Now = T;
}
