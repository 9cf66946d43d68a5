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
//===----------------------------------------------------------------------===//

#ifndef SDSP_CORE_SCHEDULE_H
#define SDSP_CORE_SCHEDULE_H

#include "petri/EarliestFiring.h"
#include "support/Rational.h"

#include <iosfwd>
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

  void addPrologueOp(TimeStep Time, TransitionId T, uint64_t Iteration);
  void addKernelOp(uint32_t Slot, TransitionId T, uint64_t FirstIteration);

  const std::vector<PrologueOp> &prologue() const { return Prologue; }
  const std::vector<KernelOp> &kernel() const { return Kernel; }

  /// Number of prologue firings of \p T.  From this iteration on, T's
  /// start times are periodic: startTime(T, m + k) = startTime(T, m) + p
  /// for every m >= prologueCount(T).
  uint64_t prologueCount(TransitionId T) const {
    return PrologueTimes[T.index()].size();
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
  /// Per transition: prologue firing times (by iteration order).
  std::vector<std::vector<TimeStep>> PrologueTimes;
  /// Per transition: kernel slots in occurrence order.
  std::vector<std::vector<uint32_t>> KernelSlots;
};

} // namespace sdsp

#endif // SDSP_CORE_SCHEDULE_H
