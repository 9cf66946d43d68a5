//===- petri/PackedState.cpp - Packed instantaneous states -----------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "petri/PackedState.h"

#include <algorithm>
#include <bit>
#include <cassert>

using namespace sdsp;

uint64_t PackedStateTable::mixWord(uint64_t Pos, uint64_t Value) {
  // splitmix64 of the (position, value) pair.  Full per-word avalanche
  // is what lets the raw hash be a plain XOR of terms (commutative, so
  // deltas work) without the XOR degenerating: any single-bit change in
  // either input flips ~half the term.
  uint64_t Z = Value + (Pos + 1) * 0x9e3779b97f4a7c15ull;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

uint64_t PackedStateTable::finalizeHash(uint64_t Raw) {
  // Cheap final scramble; the per-word mixes already avalanche, this
  // just decorrelates the XOR sum from the table's low-bit mask.
  Raw ^= Raw >> 32;
  Raw *= 0xc2b2ae3d27d4eb4full;
  Raw ^= Raw >> 29;
  return Raw;
}

PackedStateTable::PackedStateTable() : Slots(64) {}

void PackedStateTable::beginState(size_t NewWidth) {
  assert(NewWidth >= Width && "a state narrower than the one before it");
  Changes = 0;
  Pending.clear();
  Tail.clear();
  // Pairs stop once they would outgrow a state, so they never take
  // more than the state plus one pair.
  if (Pending.capacity() < NewWidth + 2)
    Pending.reserve(NewWidth + 2);
  Shadow.resize(NewWidth, 0);
  // Room to rebuild any earlier state, which is never wider than this
  // one, so a commit allocates only what capacityBytesAfterCommit()
  // counts.
  if (Scratch.capacity() < NewWidth)
    Scratch.reserve(NewWidth);
  Width = NewWidth;
}

void PackedStateTable::offerWords(size_t Pos, const uint64_t *Words,
                                  size_t N) {
  uint64_t *Old = Shadow.data() + Pos;
  for (size_t B = 0; B < N; B += 64) {
    size_t E = std::min<size_t>(64, N - B);
    uint64_t Changed = 0;
    for (size_t I = 0; I < E; ++I)
      Changed |= static_cast<uint64_t>(Old[B + I] != Words[B + I]) << I;
    for (; Changed; Changed &= Changed - 1) {
      size_t I = B + static_cast<size_t>(std::countr_zero(Changed));
      WideHash ^= wideTerm(Pos + I, Old[I]) ^ wideTerm(Pos + I, Words[I]);
      Old[I] = Words[I];
      noteChange(Pos + I, Words[I]);
    }
  }
}

uint64_t PackedStateTable::beginProbe() {
#ifndef NDEBUG
  ++DeltaValidations;
  uint64_t Full = 0;
  for (size_t Pos = 0; Pos < Width; ++Pos)
    Full ^= wideTerm(Pos, Shadow[Pos]);
  assert(Full == WideHash && "differenced state hash diverged from a rehash");
#endif
  if (slotsDue())
    grow();
  ++Probes;
  uint64_t Raw = WideHash ^ mixWord(~0ull, Tail.size());
  for (size_t I = 0; I < Tail.size(); ++I)
    Raw ^= mixWord(TailPos + I, Tail[I]);
  return finalizeHash(Raw);
}

bool PackedStateTable::equalsOpen(uint64_t O) {
  const uint64_t *Rec = Log.data() + RecordAt[O];
  size_t TailLen = static_cast<size_t>((Rec[0] & ~KeyFlag) >> 32);
  if (TailLen != Tail.size() || !std::equal(Tail.begin(), Tail.end(), Rec + 1))
    return false;
  // Rebuild the state: its keyframe, then every delta after it.
  uint64_t K = *(std::upper_bound(Keyframes.begin(), Keyframes.end(), O) - 1);
  const uint64_t *Key = Log.data() + RecordAt[K];
  size_t KeyWidth = static_cast<size_t>(Key[0] & CountMask);
  const uint64_t *KeyWords = Key + 1 + ((Key[0] & ~KeyFlag) >> 32);
  Scratch.assign(Width, 0);
  std::copy(KeyWords, KeyWords + KeyWidth, Scratch.begin());
  for (uint64_t D = K + 1; D <= O; ++D) {
    const uint64_t *Delta = Log.data() + RecordAt[D];
    size_t Pairs = static_cast<size_t>(Delta[0] & CountMask);
    const uint64_t *P = Delta + 1 + ((Delta[0] & ~KeyFlag) >> 32);
    for (size_t J = 0; J < Pairs; ++J, P += 2)
      Scratch[P[0]] = P[1];
  }
  return Scratch == Shadow;
}

void PackedStateTable::logOpen(uint64_t T) {
  bool Key = keyframeDue();
  size_t Words = recordWords();
  size_t N = Key ? Width : Pending.size() / 2;
  SDSP_CHECK(Tail.size() < (1ull << 31) && N <= CountMask,
             "state too wide for a log record");
  makeRoom(Log, Words);
  makeRoom(RecordAt, 1);
  makeRoom(Times, 1);
  if (Key)
    makeRoom(Keyframes, 1);
  uint64_t Ordinal = RecordAt.size();
  RecordAt.push_back(Log.size());
  Times.push_back(T);
  Log.push_back((Key ? KeyFlag : 0) |
                (static_cast<uint64_t>(Tail.size()) << 32) | N);
  Log.insert(Log.end(), Tail.begin(), Tail.end());
  if (Key) {
    Keyframes.push_back(Ordinal);
    Log.insert(Log.end(), Shadow.begin(), Shadow.begin() + Width);
    SinceKey = 0;
  } else {
    Log.insert(Log.end(), Pending.begin(), Pending.end());
    SinceKey += Pending.size();
  }
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

size_t PackedStateTable::capacityBytes() const {
  return Slots.capacity() * sizeof(Slot) +
         (Log.capacity() + RecordAt.capacity() + Times.capacity() +
          Keyframes.capacity() + Shadow.capacity() + Pending.capacity() +
          Tail.capacity() + Scratch.capacity()) *
             sizeof(uint64_t);
}

size_t PackedStateTable::capacityBytesAfterCommit() const {
  size_t Words = (grownCapacity(Log, recordWords()) - Log.capacity()) +
                 (grownCapacity(RecordAt, 1) - RecordAt.capacity()) +
                 (grownCapacity(Times, 1) - Times.capacity());
  if (keyframeDue())
    Words += grownCapacity(Keyframes, 1) - Keyframes.capacity();
  size_t Bytes = capacityBytes() + Words * sizeof(uint64_t);
  if (slotsDue())
    Bytes += Slots.size() * sizeof(Slot);
  return Bytes;
}
