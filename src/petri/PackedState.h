//===- petri/PackedState.h - Packed instantaneous states --------*- C++ -*-===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compact, canonical word-packed encoding of an instantaneous state
/// (marking + residual firing times + machine condition), built for the
/// frustum detector's hot loop.  The marking costs one bit per place;
/// the counts above one, the busy transitions and the policy
/// fingerprint follow as their own sections.
///
/// Layout (64-bit words):
///   [0]                 header: dense flag (bit 63) | overflow field |
///                       busy count | fingerprint length
///   [1 .. W]            marking bits, 1 bit per place slot (set iff the
///                       place holds >= 1 token)
///   [...overflow...]    the places holding >= 2 tokens, in one of two
///                       forms (the header's dense flag says which):
///                         sparse: (place << 32 | tokens) per place,
///                                 ascending slot order; the overflow
///                                 field counts the entries;
///                         dense:  count planes of W words each; bit s
///                                 of plane b is bit b of (tokens - 1)
///                                 for the place in slot s (0 for a
///                                 place with at most one token); the
///                                 overflow field counts the planes
///   [...busy...]        (transition << 32 | residual) for busy
///                       transitions, ascending transition index
///   [...fingerprint...] policy fingerprint values, one per word, or
///                       the policy's one-word summary
///                       (FiringPolicy::conditionSummary)
///
/// The engine emits whichever overflow form is shorter, the sparse one
/// on a tie: K words for K multi-token places against P * W words for
/// P planes (P is the bit width of the largest count minus one).  So a
/// state costs 1 + W + min(K, P * W) + busy + |fingerprint| words, and
/// a net whose only multi-token place is a run place packs one sparse
/// word for it.
///
/// Two packed states compare equal iff the underlying instantaneous
/// states are equal: the header pins the section boundaries and the
/// overflow form, the bit section pins zero/nonzero token counts, the
/// form depends on the state alone, and every section is emitted in a
/// canonical order.
///
/// PackedStateTable is the matching open-addressing hash table mapping
/// packed states to the time step of their first occurrence.  States are
/// stored contiguously in a single arena, so detection memory is
/// O(steps) packed words rather than O(steps * n) state copies.
///
//===----------------------------------------------------------------------===//

#ifndef SDSP_PETRI_PACKEDSTATE_H
#define SDSP_PETRI_PACKEDSTATE_H

#include "support/Status.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

namespace sdsp {

/// One packed instantaneous state.  The engine writes it via the
/// builder methods below; the detector mutates residuals in place when
/// synthesizing the states of leapt-over idle instants.
class PackedState {
public:
  /// Each header field gets 21 bits; nets beyond two million places or
  /// transitions are outside every budget this project resolves.  The
  /// top bit flags a dense overflow section.
  static constexpr uint64_t FieldBits = 21;
  static constexpr uint64_t FieldMax = (1ull << FieldBits) - 1;
  static constexpr uint64_t DenseFlag = 1ull << 63;

  void clear() { Words.clear(); }
  bool empty() const { return Words.empty(); }
  size_t sizeWords() const { return Words.size(); }
  const std::vector<uint64_t> &words() const { return Words; }

  /// Starts a state: header plus \p MarkWords zeroed marking words.
  void beginState(size_t MarkWords) {
    Words.assign(1 + MarkWords, 0);
  }
  void setMarkBit(uint32_t Place) {
    Words[1 + (Place >> 6)] |= 1ull << (Place & 63);
  }
  /// Copies prebuilt marking words (the engine maintains them
  /// incrementally, so encoding is a memcpy, not a place scan).
  void setMarkWords(const std::vector<uint64_t> &MarkWords) {
    setMarkWords(MarkWords.data(), MarkWords.size());
  }
  void setMarkWords(const uint64_t *MarkWords, size_t N) {
    for (size_t I = 0; I < N; ++I)
      Words[1 + I] = MarkWords[I];
  }
  void appendOverflow(uint32_t Place, uint32_t Tokens) {
    Words.push_back((static_cast<uint64_t>(Place) << 32) | Tokens);
    ++NumOverflow;
  }
  /// The dense overflow form, in place of appendOverflow() calls:
  /// \p NumPlanes count planes of \p MarkWords words each, plane after
  /// plane.
  void appendPlanes(const uint64_t *Planes, size_t NumPlanes,
                    size_t MarkWords) {
    Words.insert(Words.end(), Planes, Planes + NumPlanes * MarkWords);
    NumOverflow = NumPlanes;
    Dense = true;
  }
  void appendBusy(uint32_t Transition, uint32_t Residual) {
    Words.push_back((static_cast<uint64_t>(Transition) << 32) | Residual);
    ++NumBusy;
  }
  void appendFingerprint(const std::vector<uint32_t> &Values) {
    Words.insert(Words.end(), Values.begin(), Values.end());
    NumFp += Values.size();
  }
  /// A policy's one-word summary, in place of its fingerprint.
  void appendSummary(uint64_t Summary) {
    Words.push_back(Summary);
    ++NumFp;
  }
  /// Seals the header; must be the last builder call.
  void finishState() {
    SDSP_CHECK(NumOverflow <= FieldMax && NumBusy <= FieldMax &&
                   NumFp <= FieldMax,
               "packed state section overflows header field");
    Words[0] = (Dense ? DenseFlag : 0) |
               (static_cast<uint64_t>(NumOverflow) << (2 * FieldBits)) |
               (static_cast<uint64_t>(NumBusy) << FieldBits) | NumFp;
    NumOverflow = NumBusy = NumFp = 0;
    Dense = false;
  }

  bool denseOverflow() const { return (Words[0] & DenseFlag) != 0; }
  /// Sparse entries, or planes when denseOverflow().
  uint64_t overflowCount() const {
    return (Words[0] >> (2 * FieldBits)) & FieldMax;
  }
  /// Words of the overflow section; \p MarkWords is the marking width.
  size_t overflowWords(size_t MarkWords) const {
    return denseOverflow() ? overflowCount() * MarkWords : overflowCount();
  }
  uint64_t busyCount() const { return (Words[0] >> FieldBits) & FieldMax; }
  uint64_t fingerprintLength() const { return Words[0] & FieldMax; }

  /// Decrements every busy residual by one: the state one idle time
  /// step later, provided no completion happens in between (every
  /// residual must stay >= 1).  \p MarkWords is the marking section
  /// width (the caller knows it from the net's place count).
  void decrementResiduals(size_t MarkWords);

  /// decrementResiduals() that also maintains \p RawHash incrementally:
  /// each touched busy word retires its old mixWord term and mixes in
  /// the new one, so the hash update is O(busy) regardless of the
  /// state's width.  Returns the updated raw hash.
  uint64_t decrementResiduals(size_t MarkWords, uint64_t RawHash);

  /// The incremental hash scheme (docs/PERF.md).  The raw hash of a
  /// packed state is the XOR of one position-keyed mix per word,
  ///
  ///   rawHash = lengthMix(size) ^ XOR_i mixWord(i, Words[i]),
  ///
  /// which makes any single-word change a two-term XOR delta:
  /// H ^= mixWord(i, Old) ^ mixWord(i, New).  The engine maintains the
  /// marking section's XOR as tokens move and rawTailHash() supplies the
  /// header and the sections after the marking fresh (their
  /// min(K, P * W) + busy + fp words, in the notation of the layout).
  /// hashValue() == finalizeHash(rawHash()) always; the table's
  /// insertOrFindHashed() asserts that in debug builds.
  static uint64_t mixWord(uint64_t Pos, uint64_t Value);
  /// Final avalanche applied to a raw hash before it keys the table.
  static uint64_t finalizeHash(uint64_t Raw);
  /// Full recompute of the raw hash (the debug-validation oracle).
  uint64_t rawHash() const;
  /// The raw-hash contribution of everything EXCEPT the marking words:
  /// the length mix, the header word, and the overflow, busy and
  /// fingerprint sections starting at word 1 + \p MarkWords.
  uint64_t rawTailHash(size_t MarkWords) const;

  size_t hashValue() const { return finalizeHash(rawHash()); }

  friend bool operator==(const PackedState &A, const PackedState &B) {
    return A.Words == B.Words;
  }

private:
  std::vector<uint64_t> Words;
  uint64_t NumOverflow = 0;
  uint64_t NumBusy = 0;
  uint64_t NumFp = 0;
  bool Dense = false;
};

/// Number of 64-bit marking words for \p NumPlaces places.
inline size_t packedMarkWords(size_t NumPlaces) {
  return (NumPlaces + 63) / 64;
}

/// Open-addressing (linear probing) map from packed state to the time
/// step of its first occurrence.  State words live in an arena of
/// chunks that never move; slots hold only hash, record pointer, and
/// time.
class PackedStateTable {
public:
  PackedStateTable();

  /// If an equal state is present, returns its recorded time.
  /// Otherwise inserts \p S at time \p T and returns std::nullopt.
  std::optional<uint64_t> insertOrFind(const PackedState &S, uint64_t T);

  /// insertOrFind() with the caller-supplied raw hash (see
  /// PackedState::rawHash()) instead of an O(words) rehash — the O(n)
  /// -> O(touched) step of the incremental interning path.  Debug
  /// builds validate \p RawHash against a full recompute and count the
  /// validations (deltaValidations()).
  std::optional<uint64_t> insertOrFindHashed(const PackedState &S,
                                             uint64_t RawHash, uint64_t T) {
    return insertOrFindHashed(S, RawHash, T, [](uint64_t) { return true; });
  }

  /// insertOrFindHashed() for packed states that summarize part of the
  /// state: a stored state with equal words counts as found only if
  /// \p Exact(its time) confirms it.  A rejected one is stepped over
  /// like any other occupied slot, so equal words may be stored more
  /// than once, each confirmed on its own.
  template <typename ExactFn>
  std::optional<uint64_t> insertOrFindHashed(const PackedState &S,
                                             uint64_t RawHash, uint64_t T,
                                             ExactFn &&Exact) {
    uint64_t Hash = beginProbe(S, RawHash);
    size_t Mask = Slots.size() - 1;
    size_t I = static_cast<size_t>(Hash) & Mask;
    for (; !Slots[I].empty(); I = (I + 1) & Mask) {
      if (slotMatches(Slots[I], Hash, S) && Exact(Slots[I].Time))
        return Slots[I].Time;
      ++Collisions;
    }
    Slots[I].Hash = Hash;
    Slots[I].Record = store(S);
    Slots[I].Time = T;
    ++Count;
    return std::nullopt;
  }

  size_t size() const { return Count; }
  /// Words of the stored records, one length word plus the packed words
  /// per state (exact; flushed as packedstate.arena_words).
  size_t arenaWords() const { return ArenaWords; }

  /// Lookup statistics, flushed to the metrics registry by the frustum
  /// detector (docs/OBSERVABILITY.md): insertOrFind calls, and occupied
  /// slots stepped over while linear-probing.  A rising
  /// collisions-per-probe ratio is the early signal that the hash or
  /// the load factor needs attention.
  uint64_t probes() const { return Probes; }
  uint64_t collisions() const { return Collisions; }
  /// Incremental-hash validations performed (nonzero only in debug
  /// builds, where every insertOrFindHashed() cross-checks its delta
  /// hash against a full rehash).
  uint64_t deltaValidations() const { return DeltaValidations; }

private:
  struct Slot {
    uint64_t Hash = 0;
    const uint64_t *Record = nullptr; // [length, words...] in the arena
    uint64_t Time = 0;
    bool empty() const { return Record == nullptr; }
  };

  /// The arena grows by chunks, each twice the last up to MaxChunkWords
  /// (or one record, if larger), so storing a state never copies the
  /// earlier ones and a growing arena never holds two copies of itself.
  static constexpr size_t FirstChunkWords = size_t(1) << 8;
  static constexpr size_t MaxChunkWords = size_t(1) << 16;

  std::vector<Slot> Slots;
  std::vector<std::unique_ptr<uint64_t[]>> Chunks;
  size_t ChunkWords = 0;
  size_t ChunkUsed = 0;
  size_t ArenaWords = 0;
  size_t Count = 0;
  uint64_t Probes = 0;
  uint64_t Collisions = 0;
  uint64_t DeltaValidations = 0;

  bool slotMatches(const Slot &S, uint64_t Hash,
                   const PackedState &State) const;
  /// The probe's preamble: validates \p RawHash (debug builds), grows
  /// the slots if due, counts the probe and returns the final hash.
  uint64_t beginProbe(const PackedState &S, uint64_t RawHash);
  void grow();
  const uint64_t *store(const PackedState &S);
};

} // namespace sdsp

#endif // SDSP_PETRI_PACKEDSTATE_H
