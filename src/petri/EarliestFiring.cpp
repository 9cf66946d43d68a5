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
// Policies
//===----------------------------------------------------------------------===//

FiringPolicy::~FiringPolicy() = default;

void FiringPolicy::appendFingerprint(std::vector<uint32_t> &Out) const {
  std::vector<uint32_t> Fp = stateFingerprint();
  Out.insert(Out.end(), Fp.begin(), Fp.end());
}

ReadyListPolicy::ReadyListPolicy(std::vector<bool> IsConflicting,
                                 std::vector<PlaceId> ResourcePlaces,
                                 bool NewestFirst)
    : IsConflicting(std::move(IsConflicting)), NewestFirst(NewestFirst) {
  size_t MaxIdx = 0;
  for (PlaceId P : ResourcePlaces)
    MaxIdx = std::max(MaxIdx, static_cast<size_t>(P.index()) + 1);
  IsResourcePlace.assign(MaxIdx, false);
  for (PlaceId P : ResourcePlaces)
    IsResourcePlace[P.index()] = true;
  size_t N = this->IsConflicting.size();
  InList.assign(N, false);
  DirtyFlag.assign(N, false);
  CandidateFlag.assign(N, false);
}

void ReadyListPolicy::reset() {
  List.clear();
  Head = 0;
  NumDead = 0;
  std::fill(InList.begin(), InList.end(), false);
  for (uint32_t I : Dirty)
    DirtyFlag[I] = false;
  Dirty.clear();
  ScanAll = true;
  Checks = 0;
}

void ReadyListPolicy::markDirty(uint32_t I) {
  if (I < IsConflicting.size() && IsConflicting[I] && !InList[I] &&
      !DirtyFlag[I]) {
    DirtyFlag[I] = true;
    Dirty.push_back(I);
  }
}

void ReadyListPolicy::enqueueIfDataReady(const PetriNet &Net,
                                         const Marking &M, uint32_t I) {
  assert(!InList[I] && "transition already waiting in the ready list");
  ++Checks;
  // The shared resource does not gate data readiness.
  for (PlaceId P : Net.transition(TransitionId(I)).InputPlaces)
    if (!isResourcePlace(P) && M.tokens(P) == 0)
      return;
  List.push_back(I);
  InList[I] = true;
}

void ReadyListPolicy::compact() {
  size_t Out = 0;
  for (size_t I = Head; I < List.size(); ++I)
    if (List[I] != Dead)
      List[Out++] = List[I];
  List.resize(Out);
  Head = 0;
  NumDead = 0;
}

void ReadyListPolicy::orderCandidates(
    const PetriNet &Net, const Marking &M,
    const std::vector<TransitionId> &Completed,
    std::vector<TransitionId> &Candidates) {
  // Enqueue newly data-ready conflicting transitions in index order;
  // index order mirrors the adjacency-list tie-break of Section 5.2.
  if (ScanAll) {
    ScanAll = false;
    for (size_t I = 0; I < IsConflicting.size(); ++I)
      if (IsConflicting[I] && !InList[I])
        enqueueIfDataReady(Net, M, static_cast<uint32_t>(I));
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

  // Non-conflicting candidates first (their relative order is
  // irrelevant: they cannot disable each other), then list order.
  Scratch.clear();
  for (TransitionId T : Candidates)
    if (!IsConflicting[T.index()])
      Scratch.push_back(T);
  for (TransitionId T : Candidates)
    CandidateFlag[T.index()] = true;
  auto Take = [&](uint32_t V) {
    if (V != Dead && CandidateFlag[V])
      Scratch.push_back(TransitionId(V));
  };
  if (NewestFirst)
    for (size_t I = List.size(); I-- > Head;)
      Take(List[I]);
  else
    for (size_t I = Head; I < List.size(); ++I)
      Take(List[I]);
  for (TransitionId T : Candidates)
    CandidateFlag[T.index()] = false;
  Candidates.swap(Scratch);
}

void ReadyListPolicy::noteFired(TransitionId T) {
  uint32_t V = T.index();
  if (V >= InList.size() || !InList[V])
    return;
  InList[V] = false;
  // Its inputs may still hold tokens: re-test it at the next call.
  markDirty(V);
  auto It = std::find(List.begin() + static_cast<ptrdiff_t>(Head),
                      List.end(), V);
  assert(It != List.end() && "listed transition missing from the list");
  *It = Dead;
  ++NumDead;
  while (Head < List.size() && List[Head] == Dead) {
    ++Head;
    --NumDead;
  }
  while (List.size() > Head && List.back() == Dead) {
    List.pop_back();
    --NumDead;
  }
  if (NumDead * 2 > List.size() - Head)
    compact();
}

std::vector<uint32_t> ReadyListPolicy::stateFingerprint() const {
  std::vector<uint32_t> Fp;
  appendFingerprint(Fp);
  return Fp;
}

void ReadyListPolicy::appendFingerprint(std::vector<uint32_t> &Out) const {
  for (size_t I = Head; I < List.size(); ++I)
    if (List[I] != Dead)
      Out.push_back(List[I]);
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
                           "transition " + Net.transition(T).Name +
                               " has execution time 0 (must be >= 1)");
  return Status::ok();
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

EarliestFiringEngine::EarliestFiringEngine(const PetriNet &Net,
                                           FiringPolicy *Policy)
    : Net(Net), Policy(Policy), M(Net.initialMarking()), L(Net),
      Sweep(readinessSweep()) {
  HS.init(L);

  for (PlaceId P : Net.placeIds()) {
    uint32_t C = M.tokens(P);
    uint32_t S = L.PlaceSlot[P.index()];
    if (C >= 1)
      HS.Mark[S >> 6] |= 1ull << (S & 63);
    if (C >= 2)
      ++OverflowPlaces;
  }
  for (TransitionId T : Net.transitionIds()) {
    uint32_t Missing = 0;
    for (PlaceId P : Net.transition(T).InputPlaces)
      if (M.tokens(P) == 0)
        ++Missing;
    HS.Readiness[T.index()] = Missing;
    if (Missing == 0)
      setEnabledIdle(T.index());
  }

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

void EarliestFiringEngine::setEnabledIdle(uint32_t T) {
  // Callers only reach this on an exact 0-crossing of Readiness[T], so
  // the bit is known clear.
  assert(!(HS.EnabledIdle[T >> 6] & (1ull << (T & 63))) &&
         "transition already in the enabled-idle set");
  HS.EnabledIdle[T >> 6] |= 1ull << (T & 63);
  ++EnabledIdleCount;
}

void EarliestFiringEngine::clearEnabledIdle(uint32_t T) {
  assert((HS.EnabledIdle[T >> 6] & (1ull << (T & 63))) &&
         "transition not in the enabled-idle set");
  HS.EnabledIdle[T >> 6] &= ~(1ull << (T & 63));
  --EnabledIdleCount;
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
  if (UseBitMarking) {
    uint64_t &Word = HS.Mark[S >> 6];
    if (!(Word & Bit)) {
      Word |= Bit;
      for (uint32_t K = L.ConsOff[P], E = L.ConsOff[P + 1]; K < E; ++K) {
        uint32_t I = L.ConsList[K];
        assert((HS.Readiness[I] & (BusyBias - 1)) > 0 &&
               "missing-input counter underflow");
        if (--HS.Readiness[I] == 0)
          setEnabledIdle(I);
      }
      return;
    }
    // Second token on a marked place: fall back to exact counts.
    leaveBitMarking(P);
  }
  PlaceId Pid(P);
  M.produce(Pid);
  uint32_t C = M.tokens(Pid);
  if (C == 1) {
    HS.Mark[S >> 6] |= Bit;
    for (uint32_t K = L.ConsOff[P], E = L.ConsOff[P + 1]; K < E; ++K) {
      uint32_t I = L.ConsList[K];
      assert((HS.Readiness[I] & (BusyBias - 1)) > 0 &&
             "missing-input counter underflow");
      if (--HS.Readiness[I] == 0)
        setEnabledIdle(I);
    }
  } else if (C == 2) {
    ++OverflowPlaces;
  }
}

void EarliestFiringEngine::consumeToken(uint32_t P) {
  uint32_t S = L.PlaceSlot[P];
  uint64_t Bit = 1ull << (S & 63);
  if (UseBitMarking) {
    uint64_t &Word = HS.Mark[S >> 6];
    assert((Word & Bit) && "consuming from an empty place");
    Word &= ~Bit;
    for (uint32_t K = L.ConsOff[P], E = L.ConsOff[P + 1]; K < E; ++K) {
      uint32_t I = L.ConsList[K];
      if (HS.Readiness[I]++ == 0)
        clearEnabledIdle(I);
    }
    return;
  }
  PlaceId Pid(P);
  M.consume(Pid);
  uint32_t C = M.tokens(Pid);
  if (C == 0) {
    HS.Mark[S >> 6] &= ~Bit;
    for (uint32_t K = L.ConsOff[P], E = L.ConsOff[P + 1]; K < E; ++K) {
      uint32_t I = L.ConsList[K];
      if (HS.Readiness[I]++ == 0)
        clearEnabledIdle(I);
    }
  } else if (C == 1) {
    --OverflowPlaces;
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
  EnabledIdleCount = Sweep(HS.Readiness, HS.EnabledIdle, L.BitWords);

  // Phase A2+A3: candidate set = enabled idle transitions, index order,
  // then the machine observes the state and orders its choices.  With no
  // policy the order IS the bitset's index order, so materializing the
  // list waits until someone asks (candidates()); the firing loop walks
  // the bitset directly.
  OrderedValid = false;
  if (Policy) {
    Ordered.clear();
    forEachSetBit(HS.EnabledIdle, L.BitWords,
                  [&](uint32_t I) { Ordered.push_back(TransitionId(I)); });
    Policy->orderCandidates(Net, M, CompletedThisStep, Ordered);
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
    // Rare non-safe path: walk the marked places for multi-token
    // counts.  Safe nets (the paper's setting) never enter this branch.
    forEachSetBit(HS.Mark, L.MarkWords, [&](uint32_t S) {
      uint32_t P = L.SlotPlace[S];
      uint32_t C = M.tokens(PlaceId(P));
      if (C >= 2)
        Out.appendOverflow(P, C);
    });
  }
  forEachSetBit(HS.Busy, L.BitWords, [&](uint32_t I) {
    Out.appendBusy(I, static_cast<uint32_t>(HS.FinishTime[I] - Now));
  });
  if (Policy) {
    FpScratch.clear();
    Policy->appendFingerprint(FpScratch);
    for (uint32_t V : FpScratch)
      Out.appendFingerprint(V);
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
  // cheap scan-compare); the header and the sparse tail are short, so
  // mixing them fresh keeps the whole hash O(mark words compared +
  // changed words mixed + busy + fingerprint) with zero cost on the
  // token-write hot path.
  flushMarkHash();
  return MarkHash ^ Out.rawTailHash(L.MarkWords);
}

const std::vector<TransitionId> &EarliestFiringEngine::candidates() const {
  assert(Prepared && "candidates requested before prepare()");
  if (!OrderedValid) {
    Ordered.clear();
    forEachSetBit(HS.EnabledIdle, L.BitWords,
                  [&](uint32_t I) { Ordered.push_back(TransitionId(I)); });
    OrderedValid = true;
  }
  return Ordered;
}

StepRecord EarliestFiringEngine::fireAndAdvance() {
  prepare();

  StepRecord Rec;
  Rec.Time = Now;
  // The unit drain already consumed LastFired, and it is rebuilt from
  // Rec.Fired below — hand its buffer to the record instead of copying.
  if (CompletedIsLastFired)
    Rec.Completed = std::move(LastFired);
  else
    Rec.Completed = CompletedThisStep;
  Rec.Fired.reserve(EnabledIdleCount);

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
    Rec.Fired.resize(EnabledIdleCount);
    TransitionId *Out = Rec.Fired.data();
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
    if (L.UnitTime)
      LastFired = Rec.Fired;
  } else if (!Policy) {
    // Candidate order is bitset index order; walk the words directly
    // and collect each word's fast-path firings into one pair of
    // bitset updates.  (Word snapshots make the mid-walk clears from
    // generic consumes safe: a cleared candidate re-checks Readiness.)
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
    for (size_t W = 0, NW = L.BitWords; W < NW; ++W) {
      uint64_t Word = EnP[W];
      if (!Word)
        continue;
      uint64_t FiredW = 0;
      do {
        uint32_t I = static_cast<uint32_t>(W * 64 + std::countr_zero(Word));
        Word &= Word - 1;
        if (RdP[I] != 0)
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
          // enabled-idle bit via the consumer walk; only a firing
          // whose inputs all stay marked (multi-token places) clears
          // it here.
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
        Rec.Fired.push_back(TransitionId(I));
      } while (Word);
      EnP[W] &= ~FiredW;
      EnCount -= static_cast<size_t>(std::popcount(FiredW));
      BusyP[W] |= FiredW;
      BusyCnt += static_cast<size_t>(std::popcount(FiredW));
    }
    EnabledIdleCount = EnCount;
    BusyCount = BusyCnt;
    if (L.UnitTime)
      LastFired = Rec.Fired;
  } else {
    for (TransitionId T : Ordered) {
      uint32_t I = T.index();
      if (HS.Readiness[I] != 0)
        continue; // An earlier firing consumed a shared token.
      uint32_t B = L.InOff[I], E = L.InOff[I + 1];
      // Policies force exact-count mode, so only the generic consume
      // path applies here (FastFire is zeroed in the constructor).
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
      Rec.Fired.push_back(T);
      Policy->noteFired(T);
    }
  }

  Ctrs.Firings += Rec.Fired.size();
  Ctrs.Completions += Rec.Completed.size();
  ++Now;
  Prepared = false;
  return Rec;
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
