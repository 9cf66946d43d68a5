//===- petri/EngineLayout.h - SoA net layout & hot-state arena --*- C++ -*-===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structure-of-arrays layout for the earliest-firing engine
/// (docs/PERF.md).  Two pieces:
///
///  - EngineLayout: the *static* shape of a timed net, flattened once at
///    construction — CSR adjacency, execution times, marked-graph
///    fast-path metadata, the packed-marking slot permutation, and the
///    derived timing flags.  Everything here is immutable for the life
///    of the engine, so it can be shared by const reference and never
///    touches the allocator on the hot path.
///
///  - EngineHotState: the *dynamic* per-instant state — readiness
///    counters (with busy biases), the enabled-idle/busy bitsets, the
///    packed marking, per-transition finish times, and the bucketed
///    finish-time ring — carved out of ONE contiguous allocation with a
///    shared index space (transition t is lane t everywhere, packed slot
///    s is bit s everywhere).  The per-instant scan is then a linear
///    sweep over adjacent arrays instead of pointer chasing through
///    separately allocated vectors; the readiness counters are padded to
///    a 64-lane boundary with nonzero sentinels so the SIMD sweep
///    (petri/SimdDispatch.h) reads whole words unconditionally.
///
//===----------------------------------------------------------------------===//

#ifndef SDSP_PETRI_ENGINELAYOUT_H
#define SDSP_PETRI_ENGINELAYOUT_H

#include "petri/PetriNet.h"

#include <cstdint>
#include <vector>

namespace sdsp {

/// Discrete simulation time.
using TimeStep = uint64_t;

/// The static SoA image of a timed net: flat CSR mirrors of the net's
/// adjacency plus the fast-path metadata of petri/EarliestFiring.h.
/// The hot loop moves ~O(firings * arcs) tokens per step; walking
/// contiguous uint32 ranges here instead of the per-place/per-transition
/// std::vectors inside PetriNet (each a separate heap block behind a
/// checked accessor) is the single largest win of the incremental
/// engine (docs/PERF.md).
struct EngineLayout {
  /// Flattens \p Net.  All execution times must be >= 1
  /// (validateTimedNet).
  explicit EngineLayout(const PetriNet &Net);

  size_t NumTransitions = 0;
  size_t NumPlaces = 0;
  /// 64-lane transition groups: the word count of the enabled-idle and
  /// busy bitsets, and the group count of the readiness sweep.
  size_t BitWords = 0;
  /// 64-bit words of the packed marking.
  size_t MarkWords = 0;

  std::vector<uint32_t> InOff, InList;     // transition -> input places
  std::vector<uint32_t> OutOff, OutList;   // transition -> output places
  std::vector<uint32_t> ConsOff, ConsList; // place -> consuming transitions
  std::vector<TimeUnits> Exec;             // transition -> execution time

  /// Marked-graph fast-path topology (see petri/EarliestFiring.h):
  /// FastFireTopo[t] — every input place of t has t as its sole
  /// consumer; FastCompTopo[t] — every output place of t has exactly one
  /// consumer.  These are the *topological* facts; the engine keeps
  /// mutable working copies in the hot-state arena because leaving
  /// bit-marking mode turns the fast paths off.
  std::vector<uint8_t> FastFireTopo, FastCompTopo;
  std::vector<uint32_t> CompOff;
  std::vector<uint64_t> CompPairs; // (packed slot << 32 | consumer)
  std::vector<uint32_t> CompPlace; // producing place per CompPairs entry

  /// Packed-marking bit layout: in a pure marked graph every place feeds
  /// at most one transition, so places are renumbered by their position
  /// in the flattened input list — transition t's input places occupy
  /// the consecutive bit range [InOff[t], InOff[t+1]).  Consumerless
  /// places take the tail slots.  The renumbering is a per-net bijection
  /// (state identity, and hence frustum detection, is unaffected); for
  /// every other net the maps are the identity.
  std::vector<uint32_t> PlaceSlot; // place -> packed bit position
  std::vector<uint32_t> SlotPlace; // packed bit position -> place

  /// Every transition is FastFireTopo and no input arc repeats: the
  /// whole enabled set can fire each step with masked stores.
  bool AllFastTopo = false;

  /// Gated places: a place with more consumers than the enabled set has
  /// words (the run place of an SCP machine) is left out of its
  /// consumers' readiness counters, so moving its tokens walks no
  /// consumer list.  While it is empty, its consumers are masked out of
  /// the enabled-idle set by one AND-NOT with GateMask — O(BitWords)
  /// instead of O(consumers).  GateOf[p] is p's gate index or NoGate;
  /// gate g guards place GatePlace[g], and its consumer bits are
  /// GateMask[g * BitWords, (g + 1) * BitWords).
  static constexpr uint32_t NoGate = ~0u;
  std::vector<uint32_t> GateOf;
  std::vector<uint32_t> GatePlace;
  std::vector<uint64_t> GateMask;
  /// Gate g's mask words outside [GateBegin[g], GateEnd[g]) are zero,
  /// so the mask passes walk only that span (an SCP run place's
  /// consumers are the SDSP transitions, numbered first).
  std::vector<uint32_t> GateBegin;
  std::vector<uint32_t> GateEnd;

  TimeUnits MaxExec = 1;
  /// Every execution time is 1 (the paper's unit-time setting).
  bool UnitTime = false;
  /// Finish times fit the collision-free ring of MaxExec + 1 buckets.
  bool UseRing = true;
};

/// The engine's dynamic hot state, one contiguous arena.  init() lays
/// the arrays out back to back (8-byte aligned each) and zero-fills
/// them; the readiness padding lanes get their nonzero sentinel.
class EngineHotState {
public:
  /// Missing-input counters fused with the busy bias, one lane per
  /// transition, padded to BitWords * 64 lanes with nonzero sentinels.
  uint32_t *Readiness = nullptr;
  /// Enabled-idle / busy bitsets, BitWords words each.
  uint64_t *EnabledIdle = nullptr;
  uint64_t *Busy = nullptr;
  /// Packed marking, MarkWords words: bit s set iff the place in slot s
  /// holds >= 1 token.
  uint64_t *Mark = nullptr;
  /// Absolute completion time per busy transition; ~0 when idle.
  TimeStep *FinishTime = nullptr;
  /// Bucketed finish-time ring (MaxExec + 1 counters); null for
  /// unit-time nets and map-fallback nets.
  uint32_t *RingCount = nullptr;
  /// Mutable working copies of the layout's fast-path flags (zeroed
  /// when bit-marking mode ends).
  uint8_t *FastFire = nullptr;
  uint8_t *FastComp = nullptr;

  /// Carves the arena for \p L: one allocation, arrays in scan order.
  void init(const EngineLayout &L);

private:
  std::vector<uint64_t> Arena;
};

} // namespace sdsp

#endif // SDSP_PETRI_ENGINELAYOUT_H
