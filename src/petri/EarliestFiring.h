//===- petri/EarliestFiring.h - Earliest-firing-rule engine -----*- C++ -*-===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Discrete-time execution of a timed Petri net under the earliest
/// firing rule (Assumption A.6.2): every enabled transition fires as
/// soon as it is enabled.  Time advances in unit steps; a transition
/// fired at time u with execution time tau produces its output tokens at
/// time u + tau.  Assumption A.6.1 (non-reentrant transitions) is
/// enforced by keeping a residual firing time per transition.
///
/// Nets with structural conflicts (the run place of the SDSP-SCP-PN)
/// need a choice mechanism.  Assumption 5.2.1 requires only that the
/// machine never idles while something is enabled and that its choices
/// are a deterministic function of the instantaneous state; the
/// FiringPolicy interface captures exactly that, and the policy's own
/// state (e.g. the FIFO queue) is folded into the instantaneous state so
/// frustum detection stays sound.
///
/// Each step has two phases:
///   prepare()        completions at the current instant, then the
///                    policy observes the marking; the instantaneous
///                    state (Definition in A.6: marking + residual
///                    firing time vector, plus machine condition) is
///                    sampled here;
///   fireAndAdvance() fires the candidates greedily in policy order
///                    (re-checking enablement after each consumption)
///                    and advances the clock by one unit.
///
/// The engine is incremental (docs/PERF.md): per-transition
/// missing-input-token counters are updated as tokens move, so the
/// candidate set falls out of a bitset walk instead of a full transition
/// rescan; completions come from a bucketed finish-time queue instead of
/// a finish-time sweep; and quiescence is two counter reads.  A step
/// where nothing completes and nothing can fire costs O(1), and
/// nextFinishTime()/leapTo() let callers jump the clock over such idle
/// stretches (event-driven time leaping).  petri/ReferenceEngine.h
/// retains the naive engine as the behavioral oracle; the
/// golden-equivalence suite pins both to identical behavior graphs.
///
/// The hot state lives in the structure-of-arrays arena of
/// petri/EngineLayout.h: readiness counters, the enabled-idle/busy
/// bitsets, the packed marking, finish times, and the finish ring share
/// one contiguous allocation and one index space, and the per-instant
/// enabled-set rebuild is the runtime-dispatched SIMD sweep of
/// petri/SimdDispatch.h.  The engine also maintains the packed-marking
/// section of the state hash incrementally (an XOR of position-keyed
/// word mixes, updated at every marking-word write), so interning a
/// state in the frustum detector's PackedStateTable costs
/// O(touched words + busy), not a rehash of the whole packed state —
/// see packStateHashed().
///
//===----------------------------------------------------------------------===//

#ifndef SDSP_PETRI_EARLIESTFIRING_H
#define SDSP_PETRI_EARLIESTFIRING_H

#include "petri/EngineLayout.h"
#include "petri/PackedState.h"
#include "petri/PetriNet.h"
#include "petri/SimdDispatch.h"
#include "support/Status.h"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace sdsp {

/// Checks that \p Net satisfies the timed-execution preconditions:
/// at least one transition, and every execution time >= 1 (a zero
/// execution time breaks the non-reentrancy bookkeeping of Assumption
/// A.6.1).  Returns InvalidNet with the offending transition otherwise.
Status validateTimedNet(const PetriNet &Net);

/// The state of a timed net at an instant: the marking plus the residual
/// firing time vector R (remaining execution time per busy transition),
/// plus an opaque fingerprint of the choice mechanism's state.
struct InstantaneousState {
  Marking M;
  std::vector<TimeUnits> Residual;
  std::vector<uint32_t> PolicyFingerprint;

  size_t hashValue() const;
  std::string str() const;

  friend bool operator==(const InstantaneousState &A,
                         const InstantaneousState &B) {
    return A.M == B.M && A.Residual == B.Residual &&
           A.PolicyFingerprint == B.PolicyFingerprint;
  }
};

/// Resolves structural conflicts.  The default policy (nullptr) fires
/// candidates in transition-index order, which is the unique maximal
/// step for persistent nets.
class FiringPolicy {
public:
  virtual ~FiringPolicy();

  /// Returns to the initial machine condition.
  virtual void reset() = 0;

  /// Called once per step after completions.  \p Completed holds the
  /// transitions whose firing completed at this instant (in index
  /// order), \p Candidates the enabled idle transitions in index order;
  /// the policy reorders \p Candidates into its preferred firing order.
  virtual void orderCandidates(const PetriNet &Net, const Marking &M,
                               const std::vector<TransitionId> &Completed,
                               std::vector<TransitionId> &Candidates) = 0;

  /// Notifies the policy that \p T actually fired this step.
  virtual void noteFired(TransitionId T) = 0;

  /// Serializes the machine condition for state equality.
  virtual std::vector<uint32_t> stateFingerprint() const = 0;

  /// Appends the machine condition to \p Out without allocating a fresh
  /// vector; must emit exactly the stateFingerprint() values.  The
  /// default forwards to stateFingerprint(); hot policies override.
  virtual void appendFingerprint(std::vector<uint32_t> &Out) const;

  /// Data-readiness tests made since the last reset().  Exact (a
  /// function of the net and the policy alone); the frustum detector
  /// flushes it once per search as policy.readiness_checks.
  virtual uint64_t readinessChecks() const { return 0; }
};

/// The queue machinery shared by the FIFO and LIFO decision mechanisms
/// of Section 5.2.  A conflicting transition joins the ready list when
/// it first becomes data-ready (every non-resource input place marked;
/// ties broken by index, mirroring the paper's adjacency-list order)
/// and leaves it when it fires.  Non-conflicting candidates (the dummy
/// transitions of the series expansion) fire ahead of the list; the
/// conflicting ones fire in list order, oldest first (FIFO) or newest
/// first (LIFO).
///
/// Readiness is driven by events rather than rescanned: between two
/// orderCandidates() calls the marking loses tokens to firings and
/// gains them only from this instant's completions, so a transition
/// outside the list can newly become data-ready only if it fired since
/// the last call (its inputs may hold further tokens) or a completion
/// just marked one of its non-resource inputs.  Only those are
/// re-tested, in index order, which yields exactly the list a full
/// rescan would.  The first call after reset() scans every transition.
class ReadyListPolicy : public FiringPolicy {
public:
  void reset() override;
  void orderCandidates(const PetriNet &Net, const Marking &M,
                       const std::vector<TransitionId> &Completed,
                       std::vector<TransitionId> &Candidates) override;
  void noteFired(TransitionId T) override;
  std::vector<uint32_t> stateFingerprint() const override;
  void appendFingerprint(std::vector<uint32_t> &Out) const override;
  uint64_t readinessChecks() const override { return Checks; }

protected:
  /// \p IsConflicting flags, per transition index, whether the
  /// transition competes for the shared resource place.
  /// \p ResourcePlaces lists the shared places to ignore when deciding
  /// data-readiness.  \p NewestFirst selects LIFO order.
  ReadyListPolicy(std::vector<bool> IsConflicting,
                  std::vector<PlaceId> ResourcePlaces, bool NewestFirst);

private:
  /// List entries equal to Dead are tombstones: noteFired marks in
  /// O(1)-amortized instead of erasing from the middle, and iteration
  /// skips them.  Entries in [Head, List.size()) are in arrival order.
  static constexpr uint32_t Dead = ~0u;

  std::vector<bool> IsConflicting;
  std::vector<bool> IsResourcePlace;
  bool NewestFirst;
  std::vector<uint32_t> List;
  size_t Head = 0;
  size_t NumDead = 0;
  std::vector<bool> InList;
  /// Transitions to re-test at the next call, each once (DirtyFlag).
  std::vector<uint32_t> Dirty;
  std::vector<bool> DirtyFlag;
  bool ScanAll = true;
  uint64_t Checks = 0;
  /// Per-step scratch (member so steps allocate nothing at steady
  /// state).
  std::vector<TransitionId> Scratch;
  std::vector<bool> CandidateFlag;

  bool isResourcePlace(PlaceId P) const {
    return P.index() < IsResourcePlace.size() && IsResourcePlace[P.index()];
  }
  void markDirty(uint32_t I);
  void enqueueIfDataReady(const PetriNet &Net, const Marking &M, uint32_t I);
  void compact();
};

/// The FIFO decision mechanism of Section 5.2: the longest-waiting
/// data-ready transition wins the shared resource.
class FifoPolicy : public ReadyListPolicy {
public:
  FifoPolicy(std::vector<bool> IsConflicting,
             std::vector<PlaceId> ResourcePlaces)
      : ReadyListPolicy(std::move(IsConflicting), std::move(ResourcePlaces),
                        /*NewestFirst=*/false) {}
};

/// A LIFO variant used by the choice-policy ablation: newest data-ready
/// transition wins.  Everything else matches FifoPolicy.
class LifoPolicy : public ReadyListPolicy {
public:
  LifoPolicy(std::vector<bool> IsConflicting,
             std::vector<PlaceId> ResourcePlaces)
      : ReadyListPolicy(std::move(IsConflicting), std::move(ResourcePlaces),
                        /*NewestFirst=*/true) {}
};

/// What happened during one clock step.
struct StepRecord {
  TimeStep Time = 0;
  /// Transitions whose firing completed (produced tokens) at this step.
  std::vector<TransitionId> Completed;
  /// Transitions that started firing (consumed tokens) at this step.
  std::vector<TransitionId> Fired;
};

/// The execution engine.  Maintains, incrementally:
///   - Readiness[t]: input places of t currently empty, plus a busy
///     bias while t is in flight (t is enabled and idle iff the word
///     reads zero);
///   - enabled-idle and busy transition bitsets plus their population
///     counts (isQuiescent() is O(1));
///   - the packed marking bits consumed by packState(), and the running
///     hash of the marking section consumed by packStateHashed();
///   - a bucketed queue of pending finish times (completions are a
///     bucket drain, not a transition sweep).
class EarliestFiringEngine {
public:
  /// \p Policy may be null (index-order maximal steps); it is borrowed,
  /// not owned, and is reset() on construction.  All execution times in
  /// \p Net must be >= 1.
  explicit EarliestFiringEngine(const PetriNet &Net,
                                FiringPolicy *Policy = nullptr);

  /// Phase A of the current step; idempotent until fireAndAdvance().
  void prepare();

  /// The instantaneous state at the current instant.  prepare() must
  /// have run.
  InstantaneousState state() const;

  /// Packs the instantaneous state into \p Out in
  /// O(places/64 + busy + fingerprint) — no per-place or per-transition
  /// scan.  prepare() must have run.
  void packState(PackedState &Out) const;

  /// packState() plus the raw (pre-finalization) hash of the packed
  /// words, for PackedStateTable::insertOrFindHashed().  The marking
  /// section's contribution comes from the incrementally maintained
  /// accumulator — only the header and the short sparse tail are mixed
  /// fresh — so hashing costs O(busy + fingerprint) instead of
  /// O(places/64) on top of the pack itself.  Debug builds validate the
  /// delta against a full rehash at every interning.
  uint64_t packStateHashed(PackedState &Out) const;

  /// The enabled idle transitions, in the policy's firing order.
  /// prepare() must have run.
  const std::vector<TransitionId> &candidates() const;

  /// Phase B: fires and advances the clock.  Returns the step record
  /// (completions observed during prepare + firings performed here).
  StepRecord fireAndAdvance();

  TimeStep now() const { return Now; }
  const Marking &marking() const {
    syncMarking();
    return M;
  }
  const PetriNet &net() const { return Net; }

  /// True if nothing is in flight and nothing can fire: the net is dead
  /// from this state.  O(1).
  bool isQuiescent() const {
    return BusyCount == 0 && EnabledIdleCount == 0;
  }

  /// True if the prepared step observed no completions and has no
  /// candidates: nothing will change before the next pending finish
  /// time.  prepare() must have run.
  bool idleStep() const {
    assert(Prepared && "idleStep queried before prepare()");
    return (CompletedIsLastFired ? LastFired.empty()
                                 : CompletedThisStep.empty()) &&
           EnabledIdleCount == 0;
  }

  /// Earliest pending completion time, or nullopt when nothing is in
  /// flight.
  std::optional<TimeStep> nextFinishTime() const;

  /// Event-driven time leap: sets the clock to \p T without simulating
  /// the intermediate instants.  Only legal between steps (after
  /// fireAndAdvance) while no transition is enabled and no completion is
  /// pending before \p T — i.e. the skipped instants are provably idle.
  void leapTo(TimeStep T);

  /// Busy (in-flight) transitions right now.
  size_t numBusy() const { return BusyCount; }

  /// Cumulative event counts since construction.  Kept as plain struct
  /// fields so the hot loop pays an integer add, never a registry call;
  /// the frustum detector flushes them into MetricsRegistry::global()
  /// once per detection (docs/OBSERVABILITY.md).  All four are
  /// deterministic functions of the net and policy — they never depend
  /// on wall time or thread count.
  struct Counters {
    /// Enabled-set rebuilds: one per non-idempotent prepare(), i.e. one
    /// per simulated (non-leapt) instant.
    uint64_t Rebuilds = 0;
    /// Transitions fired / completions observed, summed over steps.
    uint64_t Firings = 0;
    uint64_t Completions = 0;
    /// Instants skipped by event-driven leapTo() calls.
    uint64_t InstantsLeapt = 0;
  };
  const Counters &counters() const { return Ctrs; }

private:
  const PetriNet &Net;
  FiringPolicy *Policy;
  /// Mutable: in bit-marking mode (below) the counts are synchronized
  /// from the packed marking only when a caller asks for them.
  mutable Marking M;

  /// The static SoA image of the net (CSR adjacency, fast-path
  /// topology, slot permutation) and the contiguous hot-state arena it
  /// shapes; see petri/EngineLayout.h for the layout.
  EngineLayout L;
  EngineHotState HS;
  /// The readiness-sweep kernel for the active SIMD tier, resolved once
  /// at construction (petri/SimdDispatch.h).
  ReadinessSweepFn Sweep;

  TimeStep Now = 0;
  bool Prepared = false;
  Counters Ctrs;
  /// Candidate list in firing order.  With a policy it is built every
  /// prepare() (the policy must observe and reorder it); without one it
  /// is just the enabled-idle bitset expanded in index order, so it is
  /// materialized lazily in candidates() — the firing loop walks the
  /// bitset directly.
  mutable std::vector<TransitionId> Ordered;
  mutable bool OrderedValid = false;
  std::vector<TransitionId> CompletedThisStep;
  /// Fired set of the previous step.  In unit-time nets with no policy
  /// it doubles as the completion list of the next step (everything
  /// fired at u finishes at u+1, and both lists are in index order), so
  /// prepare() just flags it as the completion list instead of
  /// re-recording completions one at a time.
  std::vector<TransitionId> LastFired;
  bool CompletedIsLastFired = false;

  /// Incremental enabledness, fused into one word per transition: the
  /// low bits count the transition's currently empty input places, and
  /// BusyBias is added while it is in flight.  A transition is enabled
  /// and idle iff its word reads zero, so the token-movement walks
  /// touch a single counter, and every enabled-idle bitset update rides
  /// an exact 0-crossing (no membership test needed).
  static constexpr uint32_t BusyBias = 1u << 24;
  size_t EnabledIdleCount = 0;
  size_t BusyCount = 0;

  /// Places holding >= 2 tokens (the packed marking bit only records
  /// zero/nonzero).
  size_t OverflowPlaces = 0;

  /// While the marking is safe (every place <= 1 token) and no policy
  /// observes M each step, the marking lives entirely in HS.Mark and
  /// the Marking counts are rebuilt on demand — the hot loop then moves
  /// one bit per token instead of maintaining two representations.  The
  /// first produce onto an already-marked place abandons bit mode and
  /// makes M authoritative again (exact counts, OverflowPlaces).
  bool UseBitMarking = false;

  /// Bit-marking mode with FastFire on every transition: the net is a
  /// pure marked graph (no place has two consumers), so no firing can
  /// disable another candidate — the whole enabled-idle set fires every
  /// step, letting the firing loop skip the per-candidate readiness
  /// re-check and retire each word with two bitset stores.  Cleared
  /// together with the fast paths when bit mode ends.
  bool AllFast = false;

  /// Ordered-map fallback of the bucketed finish queue, for nets whose
  /// execution times exceed the ring (L.UseRing == false).
  std::map<TimeStep, uint32_t> Far;

  /// Running XOR of PackedState::mixWord(1 + w, HS.Mark[w]) over every
  /// marking word — the marking section's contribution to the packed
  /// state's raw hash.  Maintained by differencing, not by write
  /// tracking: MarkShadow holds each word's value as of the last
  /// flush, and packStateHashed() scan-compares shadow vs live (a
  /// branch-free vectorizable pass) and re-mixes only words that
  /// actually changed.  The token-write hot path pays nothing; both a
  /// per-write eager mix and a per-write dirty bit measured slower
  /// than the full rehash they replaced, because a dense-firing
  /// instant moves far more tokens than there are marking words.
  mutable uint64_t MarkHash = 0;
  /// Cached mixWord(1 + w, value) term per marking word, valid for the
  /// value last folded into MarkHash.
  mutable std::vector<uint64_t> MarkTerm;
  /// Marking-word values as of the last flushMarkHash().
  mutable std::vector<uint64_t> MarkShadow;

  /// Reusable fingerprint scratch for packState().
  mutable std::vector<uint32_t> FpScratch;

  void produceToken(uint32_t P);
  void consumeToken(uint32_t P);
  void produceOutputs(uint32_t I);
  void completeTransition(uint32_t I);
  void leaveBitMarking(uint32_t P);
  void syncMarking() const;
  void setEnabledIdle(uint32_t T);
  void clearEnabledIdle(uint32_t T);

  /// Folds every changed marking word's new value into MarkHash by
  /// comparing against MarkShadow.
  void flushMarkHash() const;
};

} // namespace sdsp

namespace std {
template <> struct hash<sdsp::InstantaneousState> {
  size_t operator()(const sdsp::InstantaneousState &S) const {
    return S.hashValue();
  }
};
} // namespace std

#endif // SDSP_PETRI_EARLIESTFIRING_H
