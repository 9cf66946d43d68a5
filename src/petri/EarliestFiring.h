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
/// a finish-time sweep; and quiescence is a few counter reads.  A step
/// where nothing completes and nothing can fire costs O(1), and
/// nextFinishTime()/leapTo() let callers jump the clock over such idle
/// stretches (event-driven time leaping).  petri/ReferenceEngine.h
/// retains the naive engine as the behavioral oracle; the
/// golden-equivalence suite pins both to identical behavior graphs.
///
/// The hot state lives in the structure-of-arrays arena of
/// petri/EngineLayout.h: readiness counters, the enabled-idle/busy
/// bitsets, the packed marking, finish times, and the finish ring share
/// one contiguous allocation and one index space.  The enabled set is
/// exact at every instant because every token event that crosses a
/// readiness word through zero updates it, and a closed gate masks its
/// consumers where the set is read; only an instant that completes at
/// least one transition per 64 re-derives it from the readiness words,
/// which then costs no more than the instant's completions.  Counts above
/// one live in count planes beside the packed marking bits, so an
/// engine without a policy moves bits, never a per-place count array,
/// whatever its capacities.  logState() hands the frustum detector's
/// PackedStateTable only the marking words an instant's events touched,
/// so an instant costs what it changed.
///
//===----------------------------------------------------------------------===//

#ifndef SDSP_PETRI_EARLIESTFIRING_H
#define SDSP_PETRI_EARLIESTFIRING_H

#include "petri/EngineLayout.h"
#include "petri/PackedState.h"
#include "petri/PetriNet.h"
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
/// and one id array.  A row's fired ids follow its completed ids, except
/// that a row whose completions are exactly the previous row's firings
/// (every row of a unit-time net: what fires at u completes at u + 1)
/// stores no copy of them: its completed range is the previous row's
/// fired ids, which a flag on its completed end records.  Every way of
/// building a trace shares by that rule — beginStep() and append()
/// compare the completions with the previous row's firings, and
/// layOut() rows are shared by the layout when unit-time, else by
/// shareCompletions() once written — so two traces with the same rows
/// have the same arrays and sizeBytes().  Appending a row allocates
/// nothing once the arrays have grown.
class FiringTrace {
public:
  size_t size() const { return Times.size(); }
  bool empty() const { return Times.empty(); }
  StepView operator[](size_t I) const {
    const TransitionId *D = Ids.data();
    uint64_t End = CompletedEnd[I] & ~SharedRow;
    uint64_t Begin = (CompletedEnd[I] & SharedRow)
                         ? CompletedEnd[I - 1] & ~SharedRow
                         : (I ? FiredEnd[I - 1] : 0);
    return StepView(Times[I], {D + Begin, D + End},
                    {D + End, D + FiredEnd[I]});
  }
  StepView back() const { return (*this)[size() - 1]; }
  /// Bytes of the three arrays' elements.
  size_t sizeBytes() const {
    return Times.size() * RowBytes + Ids.size() * sizeof(TransitionId);
  }
  /// Bytes the arrays hold allocated.
  size_t capacityBytes() const {
    return Times.capacity() * sizeof(TimeStep) +
           (CompletedEnd.capacity() + FiredEnd.capacity()) *
               sizeof(uint64_t) +
           Ids.capacity() * sizeof(TransitionId);
  }
  /// capacityBytes() after reserveStep(\p NumIds): what the growth it
  /// causes would allocate.
  size_t capacityBytesAfterStep(size_t NumIds) const {
    return grownCapacity(Times, 1) * RowBytes +
           grownCapacity(Ids, NumIds) * sizeof(TransitionId);
  }
  /// Room for one more row holding up to \p NumIds ids, so that writing
  /// it allocates nothing.
  void reserveStep(size_t NumIds) {
    makeRoom(Times, 1);
    makeRoom(CompletedEnd, 1);
    makeRoom(FiredEnd, 1);
    makeRoom(Ids, NumIds);
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
  /// \p Completed may be the previous row's fired ids.
  void beginStep(TimeStep Time, std::span<const TransitionId> Completed) {
    makeRoom(Times, 1);
    makeRoom(CompletedEnd, 1);
    makeRoom(FiredEnd, 1);
    if (sharesPrevious(Completed)) {
      CompletedEnd.push_back(FiredEnd.back() | SharedRow);
    } else {
      makeRoom(Ids, Completed.size());
      Ids.insert(Ids.end(), Completed.begin(), Completed.end());
      CompletedEnd.push_back(Ids.size());
    }
    Times.push_back(Time);
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
    return {Ids.data() + (CompletedEnd.back() & ~SharedRow),
            Ids.data() + Ids.size()};
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
  void clear() {
    Times.clear();
    CompletedEnd.clear();
    FiredEnd.clear();
    Ids.clear();
  }

  /// Lays out rows for steps 0 .. Firings.size() - 1 with room for the
  /// given numbers of completions and firings, which the caller then
  /// writes through completedAt() and firedAt() in any order.  With
  /// \p Unit (a unit-time net: every row's completions are the previous
  /// row's firings, in the same order), \p Completions is ignored and
  /// the rows share, so only firedAt() is written.  Without it the rows
  /// share nothing until shareCompletions() runs.  The trace must be
  /// empty.
  void layOut(std::span<const uint32_t> Completions,
              std::span<const uint32_t> Firings, bool Unit);
  /// Shares every row of a trace laid out without \p Unit whose
  /// completions equal the previous row's firings, closing up the ids:
  /// the arrays beginStep() would have built from the same rows.
  void shareCompletions();
  TransitionId *completedAt(size_t I) {
    return Ids.data() + (I ? FiredEnd[I - 1] : 0);
  }
  TransitionId *firedAt(size_t I) {
    return Ids.data() + (CompletedEnd[I] & ~SharedRow);
  }

private:
  /// Flag on a row's completed end: its completions are the previous
  /// row's fired ids.
  static constexpr uint64_t SharedRow = uint64_t(1) << 63;
  /// Bytes of one row's time and two ends.
  static constexpr size_t RowBytes = sizeof(TimeStep) + 2 * sizeof(uint64_t);

  std::vector<TimeStep> Times;
  std::vector<uint64_t> CompletedEnd;
  std::vector<uint64_t> FiredEnd;
  std::vector<TransitionId> Ids;

  /// Whether \p Completed, for the row being opened, equals the last
  /// row's fired ids.
  bool sharesPrevious(std::span<const TransitionId> Completed) const {
    if (empty())
      return false;
    StepView Prev = back();
    return Completed.size() == Prev.Fired.size() &&
           (Completed.data() == Prev.Fired.data() ||
            std::equal(Completed.begin(), Completed.end(),
                       Prev.Fired.begin()));
  }

  /// Grows \p V eightfold, not the usual twofold, when \p Extra more
  /// elements would not fit.  A trace is written once, front to back,
  /// so fewer reallocations mean fewer copies and fewer freshly touched
  /// pages in a search that runs once per process, and capacity that is
  /// never written is never touched.
  template <typename T>
  static size_t grownCapacity(const std::vector<T> &V, size_t Extra) {
    if (V.capacity() - V.size() >= Extra)
      return V.capacity();
    return std::max(V.size() + Extra, 8 * V.capacity());
  }
  template <typename T>
  static void makeRoom(std::vector<T> &V, size_t Extra) {
    if (V.capacity() - V.size() < Extra)
      V.reserve(grownCapacity(V, Extra));
  }
};

/// The execution engine.  Maintains, incrementally:
///   - Readiness[t]: input places of t currently empty, gated places
///     (petri/EngineLayout.h) aside, plus a busy bias while t is in
///     flight (t is enabled and idle iff the word reads zero and every
///     gated input place of t is marked);
///   - enabled-idle and busy transition bitsets plus their population
///     counts, the enabled set kept exact by the token events
///     themselves (a closed gate masks its consumers where the set is
///     read, so isQuiescent() is O(gates));
///   - the marking as packed bits (a place is marked) and count planes
///     (its tokens above one), consumed by packState() and logState();
///   - a bucketed queue of pending finish times (completions are a
///     bucket drain, not a transition sweep).
class EarliestFiringEngine {
public:
  /// \p Policy may be null (index-order maximal steps); it is borrowed,
  /// not owned, and is reset() on construction.  All execution times in
  /// \p Net must be >= 1.
  explicit EarliestFiringEngine(const PetriNet &Net,
                                FiringPolicy *Policy = nullptr);
  /// The engine points into the trace its last step wrote (possibly
  /// its own), so it is neither copied nor moved.
  EarliestFiringEngine(const EarliestFiringEngine &) = delete;
  EarliestFiringEngine &operator=(const EarliestFiringEngine &) = delete;

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

  /// Opens the current instant's state in \p Seen (the frustum
  /// detector's state table): the marking words and count planes as
  /// its wide words, offering only those an event of the instant could
  /// have changed — the input words of the previous step's firings and
  /// the output words of this instant's completions, or every word when
  /// that is fewer — and the busy residuals and machine condition as its
  /// tail.  Must run at every simulated instant from the first, after
  /// prepare().
  void logState(PackedStateTable &Seen);
  /// The state of the leapt, idle instant \p At (between steps, before
  /// the next pending finish time): the wide words are the last logged
  /// ones, and every residual is measured from \p At.
  void logLeaptState(PackedStateTable &Seen, TimeStep At) const;

  /// The enabled idle transitions, in the policy's firing order.
  /// prepare() must have run.
  const std::vector<TransitionId> &candidates() const;

  /// Phase B: fires and advances the clock, appending the step's row
  /// (completions observed during prepare + firings performed here) to
  /// \p Out.  A unit-time engine without a policy reads its next
  /// completions back from that row, so \p Out must outlive the next
  /// step.
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
  /// from this state.  O(gates).
  bool isQuiescent() const { return BusyCount == 0 && !anyEnabled(); }

  /// True if the prepared step observed no completions and has no
  /// candidates: nothing will change before the next pending finish
  /// time.  prepare() must have run.
  bool idleStep() const {
    assert(Prepared && "idleStep queried before prepare()");
    return completions().empty() && !anyEnabled();
  }

  /// Completions observed and enabled idle transitions (gates aside) at
  /// the prepared instant: their sum bounds the ids the step's trace
  /// row holds.
  size_t numCompleted() const { return completions().size(); }
  size_t numEnabled() const { return EnabledIdleCount; }

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
  /// once per detection (docs/OBSERVABILITY.md).  All are deterministic
  /// functions of the net and policy — they never depend on wall time
  /// or thread count.
  struct Counters {
    /// Enabled-set derivations: one per non-idempotent prepare(), i.e.
    /// one per simulated (non-leapt) instant.
    uint64_t Rebuilds = 0;
    /// Transitions fired / completions observed, summed over steps.
    uint64_t Firings = 0;
    uint64_t Completions = 0;
    /// Instants skipped by event-driven leapTo() calls.
    uint64_t InstantsLeapt = 0;
    /// Enabled-idle bits set; enabledBitUpdates() adds the clears.
    uint64_t EnabledSets = 0;
    /// Enabled-idle words re-derived from the readiness counters: every
    /// word, at each dense unit-time instant (rederiveEnabled()).
    uint64_t WordsSwept = 0;
  };
  const Counters &counters() const { return Ctrs; }
  /// Enabled-idle bits set or cleared since construction.  Every bit
  /// set is either cleared again or still set, so this is
  /// 2 * EnabledSets - (bits set now).
  uint64_t enabledBitUpdates() const {
    return 2 * Ctrs.EnabledSets - EnabledIdleCount;
  }

private:
  const PetriNet &Net;
  FiringPolicy *Policy;
  /// Policy, when it is a ReadyListPolicy: the engine then walks its
  /// list in place instead of asking for a materialized order.
  ReadyListPolicy *Ready = nullptr;
  /// The token counts.  A policy observes them every step, so an
  /// engine with one keeps them exact as tokens move; an engine without
  /// one keeps the marking only in the packed bits and count planes and
  /// rebuilds these on demand (syncMarking()).
  mutable Marking M;

  /// The static SoA image of the net (CSR adjacency, fast-path
  /// topology, slot permutation) and the contiguous hot-state arena it
  /// shapes; see petri/EngineLayout.h for the layout.
  EngineLayout L;
  EngineHotState HS;

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
  /// Completions of the prepared instant, in index order.  A unit-time
  /// engine without a policy records none: they are the last step's
  /// fired ids, read where that step's trace row holds them
  /// (CompletedFromRow; everything fired at u finishes at u + 1, and
  /// both lists are in index order).
  std::vector<TransitionId> CompletedThisStep;
  bool CompletedFromRow = false;
  /// The trace and row the last fireAndAdvance() wrote, and the trace
  /// fireAndAdvance() without one writes into (kept one row long).
  const FiringTrace *LastOut = nullptr;
  size_t LastRow = 0;
  FiringTrace Own;
  /// Whether logState() has run: the first call offers every word.
  bool Logged = false;

  /// Incremental enabledness, fused into one word per transition: the
  /// low bits count the transition's currently empty input places
  /// (gated places aside), and BusyBias is added while it is in flight.
  /// A transition is enabled and idle iff its word reads zero and every
  /// gated input place of it is marked, so the token-movement walks
  /// touch a single counter, and every enabled-idle bitset update rides
  /// an exact 0-crossing.  The bitset and EnabledIdleCount hold the
  /// zero words, gates aside; GatedZero counts those of gated
  /// transitions, and GateZero[g] those whose one gate is g.
  static constexpr uint32_t BusyBias = 1u << 24;
  size_t EnabledIdleCount = 0;
  size_t BusyCount = 0;
  bool Gated = false;
  size_t GatedZero = 0;
  std::vector<uint32_t> GateZero;
  /// One bit per enabled-idle word, set whenever a bit of the word is
  /// (so a superset of the nonzero words): the firing walks visit only
  /// those words, and an instant that fires k transitions costs O(k +
  /// N/4096), not O(N/64).
  std::vector<uint64_t> EnabledSummary;
  void noteSetWord(uint32_t T, bool Set) {
    EnabledSummary[T >> 12] |= static_cast<uint64_t>(Set) << ((T >> 6) & 63);
  }

  /// The counts above one as dense bit-planes over the marking slots:
  /// bit s of plane b is bit b of (tokens - 1) for the place in slot s
  /// (0 while it holds at most one token).  Plane b occupies
  /// Planes[b * MarkWords, (b + 1) * MarkWords); NumPlanes planes are
  /// allocated (they never shrink), and PlanePop[b] counts plane b's set
  /// bits, so the planes in use are those up to the highest nonzero
  /// count.  A produce onto a marked place adds one to its count here
  /// and a consume from a place with a count takes one, with carry and
  /// borrow across planes; neither touches a readiness word, since the
  /// place stays marked.
  std::vector<uint64_t> Planes;
  std::vector<uint32_t> PlanePop;
  size_t NumPlanes = 0;

  /// No policy and FastFireTopo on every transition: the net is a pure
  /// marked graph (no place has two consumers), so no firing can
  /// disable another candidate — the whole enabled-idle set fires every
  /// step, letting the firing loop skip the per-candidate readiness
  /// re-check and retire each word with two bitset stores.
  bool AllFast = false;

  /// Ordered-map fallback of the bucketed finish queue, for nets whose
  /// execution times exceed the ring (L.UseRing == false).
  std::map<TimeStep, uint32_t> Far;

  /// Reusable fingerprint scratch for the tail of a state.
  mutable std::vector<uint32_t> FpScratch;

  /// A FIFO/LIFO engine whose free (non-conflicting) transitions have
  /// no gated input: those enabled since the last firing phase are
  /// listed as their bits set (FreeEnabled), so the phase fires them
  /// from the list instead of walking the enabled set.  A free
  /// transition fires, or loses its bit to a firing, in the phase after
  /// it is enabled, so the list holds every enabled one.
  bool ListFree = false;
  std::vector<TransitionId> FreeEnabled;

  void produceToken(uint32_t P);
  void consumeToken(uint32_t P);
  /// Adds one to the count above one of slot \p S.
  void addExcess(uint32_t S);
  /// Takes one from the count above one of slot \p S if it has one,
  /// and returns whether it had.
  bool takeExcess(uint32_t S);
  /// The count above one of slot \p S.
  uint32_t excessAt(uint32_t S) const;
  /// Planes up to the highest one in use.
  size_t planesInUse() const;
  /// Whether some gated input place of \p T is empty, i.e. a closed
  /// gate masks \p T.
  bool hasEmptyGatedInput(uint32_t T) const;
  bool gateMasked(uint32_t T) const {
    uint32_t G = L.TransitionGate[T];
    if (G == EngineLayout::NoGate)
      return false;
    if (G != EngineLayout::MultiGate)
      return !((HS.Mark[L.GateSlot[G] >> 6] >> (L.GateSlot[G] & 63)) & 1);
    return hasEmptyGatedInput(T);
  }
  /// Whether some transition is enabled and idle, gates applied.
  bool anyEnabled() const {
    return EnabledIdleCount > GatedZero ||
           (GatedZero != 0 && anyGatedEnabled());
  }
  /// Whether some transition behind a gate is enabled, all its gates
  /// open.
  bool anyGatedEnabled() const;
  /// Counts \p T's readiness word reaching (\p Delta 1) or leaving
  /// (-1) zero in the gate counters.
  void noteGatedZero(uint32_t T, int Delta);
  /// The enabled-idle set with the gates applied: the bitset itself in a
  /// net without gates, else a masked copy.
  const uint64_t *enabledBits() const;
  mutable std::vector<uint64_t> GateApplied;
  /// Whether the enabled-idle set and counts equal what a sweep of the
  /// readiness words would derive (assertions only).
  bool enabledMatchesSweep() const;
  void produceOutputs(uint32_t I);
  void completeTransition(uint32_t I);
  /// Starts firing \p I through the generic consume path.
  void startFiring(uint32_t I);
  /// The completions of the prepared instant: CompletedThisStep, or the
  /// fired ids of the last row written (CompletedFromRow).
  std::span<const TransitionId> completions() const {
    return CompletedFromRow ? (*LastOut)[LastRow].Fired
                            : std::span<const TransitionId>(CompletedThisStep);
  }
  /// fireAndAdvance() with the row's completions given.
  void fireInto(FiringTrace &Rec, std::span<const TransitionId> Completed);
  /// fireAndAdvance()'s firing phase on an engine without a policy
  /// whose net is not a pure marked graph, and on one with a policy.
  void fireIndexOrder(FiringTrace &Rec);
  void firePolicyCandidates(FiringTrace &Rec);
  /// Re-derives the whole enabled-idle set, its count and its summary
  /// from the readiness counters (a net without gates).
  void rederiveEnabled();
  /// produceOutputs() for a dense unit drain: marks, counts and
  /// readiness words only.
  void produceCounted(uint32_t I);
  /// AllFast firing of \p I whose input slots hold counts above one.
  uint32_t consumeCounted(uint32_t I);
  void syncMarking() const;
  void setEnabledIdle(uint32_t T);
  void clearEnabledIdle(uint32_t T);
  /// Appends the tail of the state at instant \p At to \p Tail: the
  /// busy entries, then the machine condition.
  void appendTail(std::vector<uint64_t> &Tail, TimeStep At) const;
  /// Offers slot word \p W of the marking and of every plane.
  void offerSlotWord(PackedStateTable &Seen, size_t W) const;
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
