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
/// petri/SimdDispatch.h (engines with a policy skip it: they keep the
/// set exact as tokens move, see ExactEnabled).  The engine also
/// maintains the packed-marking section of the state hash incrementally (an XOR of position-keyed
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

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
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

  /// The engine's form of orderCandidates(): the candidates are the set
  /// bits of \p Enabled (\p NumWords words, bit t for transition t) and
  /// the firing order goes to \p Out.  The default materializes the
  /// candidates in index order and calls orderCandidates().
  virtual void orderEnabled(const PetriNet &Net, const Marking &M,
                            const std::vector<TransitionId> &Completed,
                            const uint64_t *Enabled, size_t NumWords,
                            std::vector<TransitionId> &Out);

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

  /// Candidates the engine's firing walk examined since the last
  /// reset() (policy.list_visits).  Exact.
  virtual uint64_t listVisits() const { return 0; }

  /// A one-word summary of the machine condition, or nullopt (the
  /// default) for a policy that has none.  With a summary,
  /// EarliestFiringEngine::packState() stores it in place of the
  /// fingerprint, and the frustum detector confirms every packed-state
  /// match with sameConditionAt() before taking it as a repeat.
  virtual std::optional<uint64_t> conditionSummary() const {
    return std::nullopt;
  }

  /// Whether the machine condition sampled at the earlier instant
  /// \p Then equals the current one.  Only asked of policies with a
  /// summary, and only for instants of the current run.
  virtual bool sameConditionAt(TimeStep Then) const;
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
/// Candidacy is a bit test against the engine's enabled set.
///
/// The list is intrusive and doubly linked through per-transition
/// links, so a firing leaves it in O(1), and the engine's firing walk
/// (EarliestFiringEngine) stops as soon as nothing is left enabled.
/// The machine condition is summarized by a rolling hash over adjacent
/// list pairs (the pairs determine the list, since no transition is
/// listed twice), updated in O(1) per join and leave.  Every join and
/// leave is also logged with its instant, which is what
/// sameConditionAt() rebuilds an earlier list from.  The links and the
/// log are sized on the first call after construction, so building a
/// policy costs what it did before either existed.
class ReadyListPolicy : public FiringPolicy {
public:
  void reset() override;
  void orderCandidates(const PetriNet &Net, const Marking &M,
                       const std::vector<TransitionId> &Completed,
                       std::vector<TransitionId> &Candidates) override;
  void orderEnabled(const PetriNet &Net, const Marking &M,
                    const std::vector<TransitionId> &Completed,
                    const uint64_t *Enabled, size_t NumWords,
                    std::vector<TransitionId> &Out) override;
  void noteFired(TransitionId T) override;
  std::vector<uint32_t> stateFingerprint() const override;
  void appendFingerprint(std::vector<uint32_t> &Out) const override;
  uint64_t readinessChecks() const override { return Checks; }
  uint64_t listVisits() const override { return Visits; }
  std::optional<uint64_t> conditionSummary() const override {
    return ListHash & SummaryMask;
  }
  bool sameConditionAt(TimeStep Then) const override;

  /// Test seam: keeps only the low \p Bits bits of the summary, so
  /// distinct lists collide and the exact check has to reject them.
  void truncateSummaryForTesting(unsigned Bits) {
    SummaryMask = Bits >= 64 ? ~0ull : (1ull << Bits) - 1;
  }

protected:
  /// \p IsConflicting flags, per transition index, whether the
  /// transition competes for the shared resource place.
  /// \p ResourcePlaces lists the shared places to ignore when deciding
  /// data-readiness.  \p NewestFirst selects LIFO order.
  ReadyListPolicy(std::vector<bool> IsConflicting,
                  std::vector<PlaceId> ResourcePlaces, bool NewestFirst);

private:
  friend class EarliestFiringEngine;

  /// Link value of "no transition": the list's ends, and the Next link
  /// of a transition that is not listed.  Tail is the Next link of the
  /// last entry, so a listed transition never links to None; it and
  /// HeadMark also stand for the list's ends in the hash's pairs.
  static constexpr uint32_t None = ~0u;
  static constexpr uint32_t Tail = ~0u - 1;
  static constexpr uint32_t HeadMark = ~0u - 2;
  static constexpr TimeStep Never = ~static_cast<TimeStep>(0);

  /// Bit t set iff transition t competes for a resource place.
  std::vector<uint64_t> ConflictBits;
  std::vector<bool> IsResourcePlace;
  bool NewestFirst;
  /// The list, oldest first, linked through Prev/Next (None-terminated).
  /// Sized lazily: empty until the first call after construction.
  std::vector<uint32_t> Prev;
  std::vector<uint32_t> Next;
  uint32_t First = None;
  uint32_t Last = None;
  /// XOR of pairMix over the adjacent pairs of HeadMark, the list,
  /// Tail.
  uint64_t ListHash = 0;
  uint64_t SummaryMask = ~0ull;
  /// The join log: who joined, when, and when they left (Never while
  /// listed); JoinOf[t] is t's current entry.  Instants are those the
  /// caller passed to observe().
  std::vector<uint32_t> Joined;
  std::vector<TimeStep> JoinedAt;
  std::vector<TimeStep> LeftAt;
  std::vector<uint32_t> JoinOf;
  TimeStep Clock = 0;
  /// Transitions to re-test at the next call, each once (DirtyFlag).
  std::vector<uint32_t> Dirty;
  std::vector<bool> DirtyFlag;
  bool ScanAll = true;
  uint64_t Checks = 0;
  uint64_t Visits = 0;
  /// Scratch of the vector-form orderCandidates() (member so steps
  /// allocate nothing at steady state).
  std::vector<TransitionId> Scratch;
  std::vector<uint64_t> CandidateBits;

  bool isConflicting(size_t I) const {
    return (I >> 6) < ConflictBits.size() &&
           ((ConflictBits[I >> 6] >> (I & 63)) & 1);
  }
  bool isResourcePlace(PlaceId P) const {
    return P.index() < IsResourcePlace.size() && IsResourcePlace[P.index()];
  }
  bool isListed(uint32_t I) const {
    return I < Next.size() && Next[I] != None;
  }
  /// First entry in firing order, and the entry after \p V.
  uint32_t front() const { return NewestFirst ? Last : First; }
  uint32_t after(uint32_t V) const {
    return NewestFirst ? Prev[V] : (Next[V] == Tail ? None : Next[V]);
  }
  /// Enqueues newly data-ready conflicting transitions at instant
  /// \p Now: the readiness half of orderEnabled().
  void observe(TimeStep Now, const PetriNet &Net, const Marking &M,
               const std::vector<TransitionId> &Completed);
  /// The firing order over the enabled set \p Enabled: the
  /// non-conflicting candidates in index order, then the list.
  void appendOrder(const uint64_t *Enabled, size_t NumWords,
                   std::vector<TransitionId> &Out) const;
  void markDirty(uint32_t I);
  void enqueueIfDataReady(const PetriNet &Net, const Marking &M, uint32_t I);
  static uint64_t pairMix(uint32_t A, uint32_t B);
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

/// One step of a trace, viewed in place (a StepRecord or a FiringTrace
/// row).
struct StepView {
  TimeStep Time = 0;
  std::span<const TransitionId> Completed;
  std::span<const TransitionId> Fired;

  StepView() = default;
  StepView(TimeStep Time, std::span<const TransitionId> Completed,
           std::span<const TransitionId> Fired)
      : Time(Time), Completed(Completed), Fired(Fired) {}
  StepView(const StepRecord &R)
      : Time(R.Time), Completed(R.Completed), Fired(R.Fired) {}
};

/// An earliest-firing trace, one row per step in time order, stored
/// flat: the rows' times, where each row's completed and fired ids end,
/// and one id array that holds every row's completed ids followed by
/// its fired ids.  Appending a row allocates nothing once the arrays
/// have grown, and copying a trace copies four arrays.
class FiringTrace {
public:
  size_t size() const { return Times.size(); }
  bool empty() const { return Times.empty(); }
  StepView operator[](size_t I) const {
    const TransitionId *D = Ids.data();
    size_t B = I ? FiredEnd[I - 1] : 0;
    return StepView(Times[I], {D + B, D + CompletedEnd[I]},
                    {D + CompletedEnd[I], D + FiredEnd[I]});
  }
  StepView back() const { return (*this)[size() - 1]; }
  /// Bytes of the four arrays.
  size_t sizeBytes() const {
    return Times.size() * (sizeof(TimeStep) + 2 * sizeof(uint64_t)) +
           Ids.size() * sizeof(TransitionId);
  }

  /// Row iteration, for range-for over a trace.
  class Iterator {
  public:
    Iterator(const FiringTrace *T, size_t I) : T(T), I(I) {}
    StepView operator*() const { return (*T)[I]; }
    Iterator &operator++() {
      ++I;
      return *this;
    }
    friend bool operator==(const Iterator &A, const Iterator &B) {
      return A.I == B.I;
    }

  private:
    const FiringTrace *T;
    size_t I;
  };
  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, size()); }

  /// Opens the row of step \p Time with its completions; the firings
  /// follow through addFired() or growFired(), then endStep().
  void beginStep(TimeStep Time, std::span<const TransitionId> Completed) {
    makeRoom(Times, 1);
    makeRoom(CompletedEnd, 1);
    makeRoom(FiredEnd, 1);
    makeRoom(Ids, Completed.size());
    Times.push_back(Time);
    Ids.insert(Ids.end(), Completed.begin(), Completed.end());
    CompletedEnd.push_back(Ids.size());
  }
  void addFired(TransitionId T) {
    makeRoom(Ids, 1);
    Ids.push_back(T);
  }
  /// Room for \p N firings of the open row, written through the
  /// returned pointer; shrinkFired() gives back what went unused.
  TransitionId *growFired(size_t N) {
    makeRoom(Ids, N);
    Ids.resize(Ids.size() + N);
    return Ids.data() + (Ids.size() - N);
  }
  void shrinkFired(size_t Unused) { Ids.resize(Ids.size() - Unused); }
  void endStep() { FiredEnd.push_back(Ids.size()); }
  /// The firings of the open row so far.
  std::span<const TransitionId> openFired() const {
    return {Ids.data() + CompletedEnd.back(), Ids.data() + Ids.size()};
  }
  void reserveRows(size_t Rows) {
    Times.reserve(Rows);
    CompletedEnd.reserve(Rows);
    FiredEnd.reserve(Rows);
  }
  void append(StepView S) {
    beginStep(S.Time, S.Completed);
    Ids.insert(Ids.end(), S.Fired.begin(), S.Fired.end());
    endStep();
  }

  /// Lays out rows for steps 0 .. Completions.size() - 1 with room for
  /// the given numbers of completions and firings, which the caller
  /// then writes through completedAt() and firedAt() in any order.  The
  /// trace must be empty.
  void layOut(std::span<const uint32_t> Completions,
              std::span<const uint32_t> Firings);
  TransitionId *completedAt(size_t I) {
    return Ids.data() + (I ? FiredEnd[I - 1] : 0);
  }
  TransitionId *firedAt(size_t I) { return Ids.data() + CompletedEnd[I]; }

private:
  std::vector<TimeStep> Times;
  std::vector<uint64_t> CompletedEnd;
  std::vector<uint64_t> FiredEnd;
  std::vector<TransitionId> Ids;

  /// Grows \p V eightfold, not the usual twofold, when \p Extra more
  /// elements would not fit.  A trace is written once, front to back,
  /// so fewer reallocations mean fewer copies and fewer freshly touched
  /// pages in a search that runs once per process, and capacity that is
  /// never written is never touched.
  template <typename T>
  static void makeRoom(std::vector<T> &V, size_t Extra) {
    if (V.capacity() - V.size() < Extra)
      V.reserve(std::max(V.size() + Extra, 8 * V.capacity()));
  }
};

/// The execution engine.  Maintains, incrementally:
///   - Readiness[t]: input places of t currently empty, gated places
///     (petri/EngineLayout.h) aside, plus a busy bias while t is in
///     flight (t is enabled and idle iff the word reads zero and every
///     gated input place of t is marked);
///   - enabled-idle and busy transition bitsets plus their population
///     counts (isQuiescent() is O(1));
///   - the packed marking bits and the count planes consumed by
///     packState(), and the running hash of the marking section
///     consumed by packStateHashed();
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
  /// O(planes * places/64 + busy + fingerprint) — no per-place or
  /// per-transition scan.  The counts above one go out in the shorter
  /// of the two overflow forms of petri/PackedState.h.  prepare() must
  /// have run.
  void packState(PackedState &Out) const;

  /// packState() plus the raw (pre-finalization) hash of the packed
  /// words, for PackedStateTable::insertOrFindHashed().  The marking
  /// section's contribution comes from the incrementally maintained
  /// accumulator — only the header and the sections after the marking
  /// are mixed fresh — so hashing costs O(overflow + busy +
  /// fingerprint) instead of O(places/64) on top of the pack itself.
  /// Debug builds validate the delta against a full rehash at every
  /// interning.
  uint64_t packStateHashed(PackedState &Out) const;

  /// The enabled idle transitions, in the policy's firing order.
  /// prepare() must have run.
  const std::vector<TransitionId> &candidates() const;

  /// Phase B: fires and advances the clock, appending the step's row
  /// (completions observed during prepare + firings performed here) to
  /// \p Out.
  void fireAndAdvance(FiringTrace &Out);
  /// fireAndAdvance() into a StepRecord of its own.
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
  /// Policy, when it is a ReadyListPolicy: the engine then walks its
  /// list in place instead of asking for a materialized order.
  ReadyListPolicy *Ready = nullptr;
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
  /// low bits count the transition's currently empty input places
  /// (gated places aside), and BusyBias is added while it is in flight.
  /// A transition is enabled and idle iff its word reads zero and no
  /// gate of an empty place masks it, so the token-movement walks touch
  /// a single counter, and every enabled-idle bitset update rides an
  /// exact 0-crossing or a gate closing.
  static constexpr uint32_t BusyBias = 1u << 24;
  size_t EnabledIdleCount = 0;
  size_t BusyCount = 0;

  /// Places holding >= 2 tokens (the packed marking bit only records
  /// zero/nonzero).
  size_t OverflowPlaces = 0;

  /// The counts above one as dense bit-planes over the marking slots:
  /// bit s of plane b is bit b of (tokens - 1) for the place in slot s
  /// (0 while it holds at most one token).  Plane b occupies
  /// Planes[b * MarkWords, (b + 1) * MarkWords), and PlanePop[b] counts
  /// its set bits, so the planes in use are those up to the highest
  /// nonzero count.  Exact-count mode keeps them on the count crossings
  /// produceToken() and consumeToken() see; bit mode has no
  /// multi-token place, so they stay zero there.
  std::vector<uint64_t> Planes;
  std::vector<uint32_t> PlanePop;

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

  /// Policy engines keep the enabled-idle set exact by events instead
  /// of re-deriving it in every prepare(): ZeroIdle has bit t set iff
  /// t's readiness word reads zero, a 0-crossing enables t unless a
  /// closed gate masks it, and a gate that opens ORs its zero consumers
  /// back in.  prepare() then runs neither the readiness sweep nor the
  /// gate pass, each a walk over the whole net per instant.
  bool ExactEnabled = false;
  std::vector<uint64_t> ZeroIdle;

  void produceToken(uint32_t P);
  void consumeToken(uint32_t P);
  /// Moves slot \p S's plane bits from excess \p From to \p To.
  void setExcess(uint32_t S, uint32_t From, uint32_t To);
  /// Planes up to the highest one in use.
  size_t planesInUse() const;
  /// Masks gate \p G's consumers out of the enabled-idle set.
  void closeGate(uint32_t G);
  /// Lets gate \p G's consumers whose readiness word reads zero back
  /// into the enabled-idle set (ExactEnabled engines).
  void openGate(uint32_t G);
  /// Whether some gated input place of \p T is empty, i.e. a closed
  /// gate masks \p T.
  bool hasEmptyGatedInput(uint32_t T) const;
  /// Whether the enabled-idle set and count equal what the readiness
  /// sweep and the gate pass would derive (assertions only).
  bool enabledMatchesSweep() const;
  void produceOutputs(uint32_t I);
  void completeTransition(uint32_t I);
  /// Starts firing \p I through the generic consume path.
  void startFiring(uint32_t I);
  /// fireAndAdvance()'s firing phase on an engine with a policy.
  void firePolicyCandidates(FiringTrace &Rec);
  void leaveBitMarking(uint32_t P);
  void syncMarking() const;
  void setEnabledIdle(uint32_t T);
  /// ExactEnabled engines: records that \p T's readiness word reached
  /// zero, and returns whether \p T is enabled, i.e. no closed gate
  /// masks it.  Kept out of setEnabledIdle() so that stays small on the
  /// engines without a policy.
  bool noteZero(uint32_t T);
  /// Clears \p T's enabled-idle bit unless a closed gate already did.
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
