//===- petri/PackedState.cpp - Packed instantaneous states -----------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "petri/PackedState.h"

#include <algorithm>
#include <cassert>

using namespace sdsp;

void PackedState::decrementResiduals(size_t MarkWords) {
  size_t Busy = busyCount();
  size_t At = 1 + MarkWords + overflowWords(MarkWords);
  for (size_t I = 0; I < Busy; ++I) {
    SDSP_CHECK((Words[At + I] & 0xffffffffull) >= 2,
               "residual would hit zero inside an idle stretch");
    --Words[At + I];
  }
}

uint64_t PackedState::decrementResiduals(size_t MarkWords, uint64_t RawHash) {
  size_t Busy = busyCount();
  size_t At = 1 + MarkWords + overflowWords(MarkWords);
  for (size_t I = 0; I < Busy; ++I) {
    uint64_t Old = Words[At + I];
    SDSP_CHECK((Old & 0xffffffffull) >= 2,
               "residual would hit zero inside an idle stretch");
    Words[At + I] = Old - 1;
    RawHash ^= mixWord(At + I, Old) ^ mixWord(At + I, Old - 1);
  }
  return RawHash;
}

uint64_t PackedState::mixWord(uint64_t Pos, uint64_t Value) {
  // splitmix64 of the (position, value) pair.  Full per-word avalanche
  // is what lets the raw hash be a plain XOR of terms (commutative, so
  // deltas work) without the XOR degenerating: any single-bit change in
  // either input flips ~half the term.
  uint64_t Z = Value + (Pos + 1) * 0x9e3779b97f4a7c15ull;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

uint64_t PackedState::finalizeHash(uint64_t Raw) {
  // Cheap final scramble; the per-word mixes already avalanche, this
  // just decorrelates the XOR sum from the table's low-bit mask.
  Raw ^= Raw >> 32;
  Raw *= 0xc2b2ae3d27d4eb4full;
  Raw ^= Raw >> 29;
  return Raw;
}

uint64_t PackedState::rawHash() const {
  uint64_t H = mixWord(~0ull, Words.size());
  for (size_t I = 0, N = Words.size(); I < N; ++I)
    H ^= mixWord(I, Words[I]);
  return H;
}

uint64_t PackedState::rawTailHash(size_t MarkWords) const {
  uint64_t H = mixWord(~0ull, Words.size());
  H ^= mixWord(0, Words[0]);
  for (size_t I = 1 + MarkWords, N = Words.size(); I < N; ++I)
    H ^= mixWord(I, Words[I]);
  return H;
}

PackedStateTable::PackedStateTable() : Slots(64) {}

bool PackedStateTable::slotMatches(const Slot &S, uint64_t Hash,
                                   const PackedState &State) const {
  if (S.Hash != Hash)
    return false;
  const std::vector<uint64_t> &W = State.words();
  if (S.Record[0] != W.size())
    return false;
  const uint64_t *Stored = S.Record + 1;
  for (size_t I = 0; I < W.size(); ++I)
    if (Stored[I] != W[I])
      return false;
  return true;
}

void PackedStateTable::grow() {
  std::vector<Slot> Old = std::move(Slots);
  Slots.assign(Old.size() * 2, Slot());
  size_t Mask = Slots.size() - 1;
  for (const Slot &S : Old) {
    if (S.empty())
      continue;
    size_t I = static_cast<size_t>(S.Hash) & Mask;
    while (!Slots[I].empty())
      I = (I + 1) & Mask;
    Slots[I] = S;
  }
}

const uint64_t *PackedStateTable::store(const PackedState &S) {
  const std::vector<uint64_t> &W = S.words();
  size_t Need = 1 + W.size();
  if (ChunkUsed + Need > ChunkWords) {
    ChunkWords = std::max(
        Need, ChunkWords == 0 ? FirstChunkWords
                              : std::min(2 * ChunkWords, MaxChunkWords));
    Chunks.push_back(std::make_unique_for_overwrite<uint64_t[]>(ChunkWords));
    ChunkUsed = 0;
  }
  uint64_t *Record = Chunks.back().get() + ChunkUsed;
  Record[0] = W.size();
  std::copy(W.begin(), W.end(), Record + 1);
  ChunkUsed += Need;
  ArenaWords += Need;
  return Record;
}

std::optional<uint64_t> PackedStateTable::insertOrFind(const PackedState &S,
                                                       uint64_t T) {
  return insertOrFindHashed(S, S.rawHash(), T);
}

uint64_t PackedStateTable::beginProbe(const PackedState &S,
                                      uint64_t RawHash) {
#ifndef NDEBUG
  ++DeltaValidations;
  assert(RawHash == S.rawHash() &&
         "incremental raw hash diverged from full rehash");
#else
  (void)S;
#endif
  if (Count * 10 >= Slots.size() * 7)
    grow();
  ++Probes;
  return PackedState::finalizeHash(RawHash);
}
