//===- core/Schedule.h - Software-pipelined loop schedules ------*- C++ -*-===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scheduling pattern of Figure 1(g): a software-pipelined loop
/// schedule with a prologue (the start-up transient before the frustum)
/// and a kernel of p time slots executing k loop iterations, repeated
/// forever.  The achieved computation rate is k/p iterations per cycle.
///
/// startTime() extends the pattern to any iteration number, giving a
/// closed-form infinite schedule: iteration m of operation t runs at
///   prologue time                       (m among t's prologue firings)
///   Start + q*p + slot(t, r)            (m = prologue count + q*k + r).
///
/// Layout.  The schedule is its start-time index and nothing else: each
/// transition's prologue times, by iteration, as one compressed-sparse-
/// row list (PrologueStart, PrologueTimes), and its k kernel slots, by
/// iteration, as one row of an N x k array (KernelSlots).  A Builder
/// fills the arrays in place.  Building, copying and freeing a schedule
/// therefore cost a constant number of allocations, whatever its size.
///
/// Canonical order.  The content hash, the codec and print() see the
/// schedule as a stream of firings: the prologue's by (time, transition
/// id), then the kernel's by (slot, transition id), each with its
/// iteration.  That is the order in which a trace whose rows list their
/// fired ids ascending (every engine without a firing policy) meets
/// them, so deriving a schedule reads it in this order.
/// forEachPrologueOp() and forEachKernelOp() regenerate it from the
/// index with a counting sort, the time of each firing coming from its
/// bucket rather than from a second read of the index.
///
//===----------------------------------------------------------------------===//

#ifndef SDSP_CORE_SCHEDULE_H
#define SDSP_CORE_SCHEDULE_H

#include "petri/EarliestFiring.h"
#include "support/Rational.h"

#include <cassert>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace sdsp {

/// A periodic (software-pipelined) schedule over the transitions of an
/// SDSP-PN.
class SoftwarePipelineSchedule {
public:
  class Builder;
  class StartCursor;

  TimeStep prologueEnd() const { return Start; }
  TimeStep kernelLength() const { return Period; }
  uint32_t iterationsPerKernel() const { return K; }
  size_t numTransitions() const { return NumTransitions; }

  /// Iterations per cycle in steady state: k / p.
  Rational rate() const {
    return Rational(K, static_cast<int64_t>(Period));
  }

  /// Steady-state initiation interval per iteration, p / k (the cycle
  /// time alpha of the paper).
  Rational initiationInterval() const { return rate().reciprocal(); }

  /// Number of prologue firings of \p T.  From this iteration on, T's
  /// start times are periodic: startTime(T, m + k) = startTime(T, m) + p
  /// for every m >= prologueCount(T).
  uint64_t prologueCount(TransitionId T) const {
    return PrologueStart[T.index() + 1] - PrologueStart[T.index()];
  }

  /// The start times of \p T's prologue firings, in iteration order.
  std::span<const TimeStep> prologueTimes(TransitionId T) const {
    return {PrologueTimes.data() + PrologueStart[T.index()],
            static_cast<size_t>(prologueCount(T))};
  }

  /// The kernel slots of \p T's k kernel firings, in iteration order.
  std::span<const uint32_t> kernelSlots(TransitionId T) const {
    return {KernelSlots.data() + static_cast<size_t>(T.index()) * K, K};
  }

  /// Firings in the prologue and in the kernel.
  size_t numPrologueOps() const { return PrologueTimes.size(); }
  size_t numKernelOps() const { return KernelSlots.size(); }

  /// Bytes of the index's elements.
  size_t sizeBytes() const {
    return PrologueStart.size() * sizeof(uint32_t) +
           PrologueTimes.size() * sizeof(TimeStep) +
           KernelSlots.size() * sizeof(uint32_t);
  }

  /// Start time of iteration \p Iteration of transition \p T under the
  /// infinite unrolling of this schedule.
  TimeStep startTime(TransitionId T, uint64_t Iteration) const;

  /// A cursor over \p T's start times from iteration \p From on.
  StartCursor cursor(TransitionId T, uint64_t From) const;

  /// Calls \p F(Time, T, Iteration) for every prologue firing, in
  /// canonical order: by time, then by transition id (then iteration).
  template <typename Fn> void forEachPrologueOp(Fn &&F) const {
    Runs R = prologueRuns();
    R.forEach([&](TimeStep Time, uint32_t T, uint32_t J) {
      F(Time, TransitionId(T), uint64_t{J});
    });
  }

  /// Calls \p F(Slot, T, FirstIteration) for every kernel firing, in
  /// canonical order: by slot, then by transition id (then iteration).
  /// FirstIteration is the iteration the firing runs in the first
  /// kernel period.
  template <typename Fn> void forEachKernelOp(Fn &&F) const {
    Runs R = kernelRuns();
    R.forEach([&](TimeStep Slot, uint32_t T, uint32_t J) {
      F(static_cast<uint32_t>(Slot), TransitionId(T),
        prologueCount(TransitionId(T)) + J);
    });
  }

  /// Renders the kernel as a slot table ("A(i+1) D(i) | ..."), the
  /// paper's Figure 1(g) form, using \p Names for the transitions.
  void print(std::ostream &OS, const std::vector<std::string> &Names) const;

  /// Renders an ASCII Gantt view of the first \p Cycles cycles: one row
  /// per transition, each firing drawn as its iteration number (mod 10)
  /// repeated for its execution time.  Visualizes the prologue filling
  /// and the kernel's iteration overlap.
  void printTimeline(std::ostream &OS,
                     const std::vector<std::string> &Names,
                     const std::vector<uint32_t> &ExecTimes,
                     TimeStep Cycles) const;

private:
  SoftwarePipelineSchedule(size_t NumTransitions, TimeStep Start,
                           TimeStep Period, uint32_t IterationsPerKernel);

  /// One part of the schedule sorted into canonical order: runs of
  /// firings of equal key (time or slot), each firing packed as
  /// transition << 32 | iteration within the part.
  struct Runs {
    std::vector<TimeStep> Keys;
    std::vector<uint32_t> Ends;
    std::unique_ptr<uint64_t[]> Firings;
    template <typename Fn> void forEach(Fn &&F) const {
      size_t I = 0;
      for (size_t R = 0; R < Keys.size(); ++R)
        for (; I < Ends[R]; ++I)
          F(Keys[R], static_cast<uint32_t>(Firings[I] >> 32),
            static_cast<uint32_t>(Firings[I]));
    }
  };
  Runs prologueRuns() const;
  Runs kernelRuns() const;

  size_t NumTransitions;
  TimeStep Start;
  TimeStep Period;
  uint32_t K;
  /// Transition T's prologue firing times, by iteration:
  /// PrologueTimes[PrologueStart[T] .. PrologueStart[T + 1]).
  std::vector<uint32_t> PrologueStart;
  std::vector<TimeStep> PrologueTimes;
  /// Transition T's kernel slots, by iteration: KernelSlots[T*k .. T*k+k).
  std::vector<uint32_t> KernelSlots;
};

/// Reads one transition's start times in iteration order, without
/// division: its remaining prologue times, then its kernel slots offset
/// by the start of their kernel period.
class SoftwarePipelineSchedule::StartCursor {
public:
  /// The start time of the current iteration; advances to the next.
  TimeStep next() {
    if (Pro != ProEnd)
      return *Pro++;
    TimeStep T = Base + Slots[R];
    if (++R == K) {
      R = 0;
      Base += Period;
    }
    return T;
  }

private:
  friend class SoftwarePipelineSchedule;
  const TimeStep *Pro;
  const TimeStep *ProEnd;
  const uint32_t *Slots;
  uint32_t K;
  uint32_t R;
  TimeStep Base;
  TimeStep Period;
};

inline SoftwarePipelineSchedule::StartCursor
SoftwarePipelineSchedule::cursor(TransitionId T, uint64_t From) const {
  StartCursor C;
  std::span<const TimeStep> Row = prologueTimes(T);
  C.ProEnd = Row.data() + Row.size();
  C.Pro = From < Row.size() ? Row.data() + From : C.ProEnd;
  C.Slots = kernelSlots(T).data();
  C.K = K;
  C.Base = Start;
  C.Period = Period;
  // Past the prologue: step over whole kernel periods, (From - count) / k
  // of them, then into the period.
  uint64_t J = From < Row.size() ? 0 : From - Row.size();
  for (; J >= K; J -= K)
    C.Base += Period;
  C.R = static_cast<uint32_t>(J);
  return C;
}

/// Fills a schedule's index in two passes over its firings.  First,
/// countPrologue() once per prologue firing; then, after startFill(),
/// each transition's firings in iteration order, its prologue times
/// through addPrologue() and then its k kernel slots through
/// addKernel(), transitions interleaved in any way.  The add calls
/// return false, writing nothing, for a firing the schedule has no room
/// for: past the transition's row, a time at or past the prologue end,
/// or a slot at or past the kernel length.
class SoftwarePipelineSchedule::Builder {
public:
  Builder(size_t NumTransitions, TimeStep Start, TimeStep Period,
          uint32_t IterationsPerKernel);

  void countPrologue(TransitionId T) { ++S.PrologueStart[T.index() + 1]; }
  /// Prologue firings of \p T counted so far (before startFill()).
  uint32_t counted(TransitionId T) const {
    return S.PrologueStart[T.index() + 1];
  }
  /// Ends the counting pass.
  void startFill();

  bool addPrologue(TransitionId T, TimeStep Time) {
    uint32_t &N = Filled[T.index()];
    if (N >= S.prologueCount(T) || Time >= S.Start)
      return false;
    S.PrologueTimes[S.PrologueStart[T.index()] + N++] = Time;
    return true;
  }
  bool addKernel(TransitionId T, uint32_t Slot) {
    uint32_t &N = Filled[T.index()];
    uint64_t J = N - S.prologueCount(T);
    if (N < S.prologueCount(T) || J >= S.K || Slot >= S.Period)
      return false;
    S.KernelSlots[static_cast<size_t>(T.index()) * S.K + J] = Slot;
    ++N;
    return true;
  }

  /// Firings of \p T added so far (after startFill()).
  uint32_t filled(TransitionId T) const { return Filled[T.index()]; }
  /// True once every transition's prologue and kernel rows are full.
  bool complete() const;
  /// The schedule; must be complete().
  SoftwarePipelineSchedule finish();

private:
  SoftwarePipelineSchedule S;
  std::vector<uint32_t> Filled;
};

} // namespace sdsp

#endif // SDSP_CORE_SCHEDULE_H
