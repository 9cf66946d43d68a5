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
/// Layout.  The op lists are what the schedule hashes and encodes.  Once
/// every op is added, finish() builds the start-time index from them in
/// two flat arrays: each transition's prologue times as one
/// compressed-sparse-row list, and the kernel slots as an N x k array.
/// Building, copying and freeing a schedule therefore cost a constant
/// number of allocations, whatever its size.
///
//===----------------------------------------------------------------------===//

#ifndef SDSP_CORE_SCHEDULE_H
#define SDSP_CORE_SCHEDULE_H

#include "petri/EarliestFiring.h"
#include "support/Rational.h"

#include <cassert>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

namespace sdsp {

/// A periodic (software-pipelined) schedule over the transitions of an
/// SDSP-PN.
class SoftwarePipelineSchedule {
public:
  /// One firing in the start-up transient.
  struct PrologueOp {
    TimeStep Time;
    TransitionId T;
    /// Absolute loop iteration executed by this firing.
    uint64_t Iteration;
  };

  /// One firing inside the kernel.
  struct KernelOp {
    uint32_t Slot;
    TransitionId T;
    /// Absolute iteration executed in the first kernel period.
    uint64_t FirstIteration;
  };

  SoftwarePipelineSchedule(size_t NumTransitions, TimeStep Start,
                           TimeStep Period, uint32_t IterationsPerKernel);

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

  /// Makes room for the given numbers of ops.
  void reserve(size_t PrologueOps, size_t KernelOps) {
    Prologue.reserve(PrologueOps);
    Kernel.reserve(KernelOps);
  }

  /// Adds one firing.  Each transition's ops must arrive in iteration
  /// order, its prologue ops first, and it must end with exactly k
  /// kernel ops.
  void addPrologueOp(TimeStep Time, TransitionId T, uint64_t Iteration);
  void addKernelOp(uint32_t Slot, TransitionId T, uint64_t FirstIteration);

  /// Builds the start-time index once the last op is added; the queries
  /// below read it.
  void finish();

  const std::vector<PrologueOp> &prologue() const { return Prologue; }
  const std::vector<KernelOp> &kernel() const { return Kernel; }

  /// Number of prologue firings of \p T.  From this iteration on, T's
  /// start times are periodic: startTime(T, m + k) = startTime(T, m) + p
  /// for every m >= prologueCount(T).
  uint64_t prologueCount(TransitionId T) const {
    assert(Finished && "schedule queried before finish()");
    return PrologueStart[T.index() + 1] - PrologueStart[T.index()];
  }

  /// The kernel slots of \p T's k kernel ops, in iteration order.
  std::span<const uint32_t> kernelSlots(TransitionId T) const {
    assert(Finished && "schedule queried before finish()");
    return {KernelSlots.data() + static_cast<size_t>(T.index()) * K, K};
  }

  /// Start time of iteration \p Iteration of transition \p T under the
  /// infinite unrolling of this schedule.
  TimeStep startTime(TransitionId T, uint64_t Iteration) const;

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
  size_t NumTransitions;
  TimeStep Start;
  TimeStep Period;
  uint32_t K;
  std::vector<PrologueOp> Prologue;
  std::vector<KernelOp> Kernel;
  /// Transition T's prologue firing times, by iteration:
  /// PrologueTimes[PrologueStart[T] .. PrologueStart[T + 1]).
  std::vector<uint32_t> PrologueStart;
  std::vector<TimeStep> PrologueTimes;
  /// Transition T's kernel slots, by iteration: KernelSlots[T*k .. T*k+k).
  std::vector<uint32_t> KernelSlots;
  bool Finished = false;
};

} // namespace sdsp

#endif // SDSP_CORE_SCHEDULE_H
