//===- petri/PackedState.h - Packed instantaneous states --------*- C++ -*-===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The layout of an instantaneous state (marking + residual firing
/// times + machine condition) as the frustum detector logs it, and the
/// table it is logged into.  A state is two parts:
///
///   wide words  the marking bits, one bit per place slot (set iff the
///               place holds a token), then the count planes, as many
///               words each: bit s of plane b is bit b of the tokens
///               above one of the place in slot s;
///   tail        the busy transitions as (transition << 32 | residual),
///               ascending transition index, then the policy's
///               one-word summary (FiringPolicy::conditionSummary); a
///               policy without a summary puts the busy count in front
///               and its fingerprint values (stateFingerprint()) last.
///
/// EarliestFiringEngine::logState() writes it; only the words an
/// instant's events touched are offered, so an instant costs what it
/// changed.
///
//===----------------------------------------------------------------------===//

#ifndef SDSP_PETRI_PACKEDSTATE_H
#define SDSP_PETRI_PACKEDSTATE_H

#include "support/Status.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

namespace sdsp {

/// Open-addressing (linear probing) map from state to the time of its
/// first occurrence, over a delta log of the states in the order they
/// were committed.
///
/// A state is Width *wide* words (the engine's marking words, then its
/// count planes) and a short *tail* (the engine's busy entries and
/// machine condition).  The caller opens each state with beginState(),
/// offers the wide words that may have changed since the previous state
/// (offerWord(); the others keep their values), appends the tail, and
/// commits.  The log keeps, per state, a header, the tail in full, and
/// either the wide words that changed as (position, value) pairs, or,
/// as a keyframe, all Width of them: a state is a keyframe when it is
/// the first, or when the pairs logged since the last keyframe would
/// outgrow one.  A state's hash is an XOR of position-keyed word mixes
/// (mixWord()) over its nonzero wide words, kept by
/// differencing as words change, and over its tail, mixed fresh; a
/// hash match is confirmed exactly by rebuilding the earlier state from
/// its keyframe and deltas — O(Width) words — and comparing.  So a
/// commit costs O(changed words + tail), and the log holds at most
/// about three words per changed word plus one state.
///
/// A state is never narrower than the one before it (the engine's
/// planes never shrink); positions beyond an earlier state's width read
/// as zero.
class PackedStateTable {
public:
  PackedStateTable();

  /// Opens the next state, \p Width wide words wide.
  void beginState(size_t Width);
  /// Offers wide word \p Pos of the open state; it is logged if it
  /// differs from the previous state's.
  void offerWord(size_t Pos, uint64_t Value) {
    uint64_t &Old = Shadow[Pos];
    if (Old == Value)
      return;
    WideHash ^= wideTerm(Pos, Old) ^ wideTerm(Pos, Value);
    Old = Value;
    noteChange(Pos, Value);
  }
  /// offerWord() for wide words \p Pos .. \p Pos + \p N - 1 at once:
  /// the changed ones are found 64 at a time without a branch per word.
  void offerWords(size_t Pos, const uint64_t *Words, size_t N);
  /// The open state's tail, appended to by the caller.
  std::vector<uint64_t> &tail() { return Tail; }
  /// Wide words of the open state that changed so far.
  size_t pendingChanges() const { return Changes; }

  /// Commits the open state at time \p T.  If an equal state was
  /// committed earlier and \p Exact(its time) confirms it (for states
  /// that summarize part of the real state), returns that time;
  /// otherwise the state becomes findable.  A rejected match is stepped
  /// over like any other occupied slot, so equal states may be stored
  /// more than once, each confirmed on its own.  Either way the state is
  /// logged, so the next one can be told apart from it.
  template <typename ExactFn>
  std::optional<uint64_t> commit(uint64_t T, ExactFn &&Exact);
  std::optional<uint64_t> commit(uint64_t T) {
    return commit(T, [](uint64_t) { return true; });
  }

  /// Bytes the table holds allocated, and the bytes it would hold once
  /// the open state is committed: what the growth the commit causes
  /// would allocate, known before it does.
  size_t capacityBytes() const;
  size_t capacityBytesAfterCommit() const;

  /// States findable (committed without a match).
  size_t size() const { return Count; }
  /// Words of the log: per committed state a header, its tail and its
  /// changed words' pairs or its keyframe (exact; flushed as
  /// packedstate.arena_words).
  size_t arenaWords() const { return Log.size(); }
  /// Keyframes logged (exact).
  size_t keyframes() const { return Keyframes.size(); }

  /// Lookup statistics, flushed to the metrics registry by the frustum
  /// detector (docs/OBSERVABILITY.md): commits, and occupied slots
  /// stepped over while linear-probing.  A rising collisions-per-probe
  /// ratio is the early signal that the hash or the load factor needs
  /// attention.
  uint64_t probes() const { return Probes; }
  uint64_t collisions() const { return Collisions; }
  /// Incremental-hash validations performed (nonzero only in debug
  /// builds, where every commit cross-checks the differenced hash of
  /// the wide words against a full recompute).
  uint64_t deltaValidations() const { return DeltaValidations; }

  /// The word hash the table keys on: a state's hash is an XOR of one
  /// position-keyed mix per word, so a single-word change is a two-term
  /// XOR delta, H ^= mixWord(i, Old) ^ mixWord(i, New), and
  /// finalizeHash() scrambles the sum before it keys the table.
  static uint64_t mixWord(uint64_t Pos, uint64_t Value);
  static uint64_t finalizeHash(uint64_t Raw);

private:
  struct Slot {
    uint64_t Hash = 0;
    uint64_t Ordinal = ~0ull; // index of the state in commit order
    bool empty() const { return Ordinal == ~0ull; }
  };

  /// Log record header: keyframe flag, tail length, then the count of
  /// pairs or, in a keyframe, of wide words.
  static constexpr uint64_t KeyFlag = 1ull << 63;
  static constexpr uint64_t CountMask = (1ull << 32) - 1;
  /// Hash positions of the tail words, apart from every wide position.
  static constexpr uint64_t TailPos = 1ull << 62;

  std::vector<Slot> Slots;
  /// The records, back to back, and per committed state its record's
  /// offset and its time; the ordinals of the keyframes, ascending.
  std::vector<uint64_t> Log;
  std::vector<uint64_t> RecordAt;
  std::vector<uint64_t> Times;
  std::vector<uint64_t> Keyframes;
  /// The open state's wide words (zero beyond Width) and their hash
  /// terms' XOR; how many changed since the previous state, and their
  /// pairs while the state is not due as a keyframe (a keyframe logs
  /// the shadow itself); its tail.
  std::vector<uint64_t> Shadow;
  size_t Width = 0;
  uint64_t WideHash = 0;
  size_t Changes = 0;
  std::vector<uint64_t> Pending;
  std::vector<uint64_t> Tail;
  /// Pair words logged since the last keyframe.
  size_t SinceKey = 0;
  /// An earlier state, rebuilt to confirm a match.
  std::vector<uint64_t> Scratch;
  size_t Count = 0;
  uint64_t Probes = 0;
  uint64_t Collisions = 0;
  uint64_t DeltaValidations = 0;

  static uint64_t wideTerm(uint64_t Pos, uint64_t Value) {
    return Value ? mixWord(Pos, Value) : 0;
  }
  /// Whether the open state logs as a keyframe: it is the first, or its
  /// pairs would take the pair words since the last keyframe past a
  /// full state.  Once due, a state stays due until it is committed:
  /// changes only accumulate in between.
  bool keyframeDue() const {
    return RecordAt.empty() || SinceKey + 2 * Changes > Width;
  }
  void noteChange(size_t Pos, uint64_t Value) {
    ++Changes;
    if (keyframeDue())
      return;
    Pending.push_back(Pos);
    Pending.push_back(Value);
  }
  size_t recordWords() const {
    return 1 + Tail.size() + (keyframeDue() ? Width : Pending.size());
  }
  bool slotsDue() const { return Count * 10 >= Slots.size() * 7; }
  /// The open state's hash; validates the differenced part (debug
  /// builds), grows the slots if due and counts the probe.
  uint64_t beginProbe();
  /// Whether the state of ordinal \p O equals the open one.
  bool equalsOpen(uint64_t O);
  void logOpen(uint64_t T);
  void grow();

  /// Doubling growth from 64 elements, made explicit so
  /// capacityBytesAfterCommit() can tell what it will allocate; a short
  /// search then allocates each array once or twice.
  template <typename T>
  static size_t grownCapacity(const std::vector<T> &V, size_t Extra) {
    if (V.capacity() - V.size() >= Extra)
      return V.capacity();
    return std::max({V.size() + Extra, 2 * V.capacity(), size_t(64)});
  }
  template <typename T>
  static void makeRoom(std::vector<T> &V, size_t Extra) {
    if (V.capacity() - V.size() < Extra)
      V.reserve(grownCapacity(V, Extra));
  }
};

template <typename ExactFn>
std::optional<uint64_t> PackedStateTable::commit(uint64_t T,
                                                 ExactFn &&Exact) {
  uint64_t Hash = beginProbe();
  size_t Mask = Slots.size() - 1;
  size_t I = static_cast<size_t>(Hash) & Mask;
  std::optional<uint64_t> Found;
  for (; !Slots[I].empty(); I = (I + 1) & Mask) {
    if (Slots[I].Hash == Hash && equalsOpen(Slots[I].Ordinal) &&
        Exact(Times[Slots[I].Ordinal])) {
      Found = Times[Slots[I].Ordinal];
      break;
    }
    ++Collisions;
  }
  uint64_t Ordinal = RecordAt.size();
  logOpen(T);
  if (!Found) {
    Slots[I].Hash = Hash;
    Slots[I].Ordinal = Ordinal;
    ++Count;
  }
  return Found;
}

} // namespace sdsp

#endif // SDSP_PETRI_PACKEDSTATE_H
