//===- core/Schedule.cpp - Software-pipelined loop schedules ---------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "core/Schedule.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <ostream>

using namespace sdsp;

SoftwarePipelineSchedule::SoftwarePipelineSchedule(size_t NumTransitions,
                                                   TimeStep Start,
                                                   TimeStep Period,
                                                   uint32_t IterationsPerKernel)
    : NumTransitions(NumTransitions), Start(Start), Period(Period),
      K(IterationsPerKernel) {
  assert(Period >= 1 && "kernel must have positive length");
  assert(K >= 1 && "kernel must execute at least one iteration");
}

void SoftwarePipelineSchedule::addPrologueOp(TimeStep Time, TransitionId T,
                                             uint64_t Iteration) {
  assert(!Finished && "op added after finish()");
  assert(Time < Start && "prologue op at or past kernel start");
  Prologue.push_back(PrologueOp{Time, T, Iteration});
}

void SoftwarePipelineSchedule::addKernelOp(uint32_t Slot, TransitionId T,
                                           uint64_t FirstIteration) {
  assert(!Finished && "op added after finish()");
  assert(Slot < Period && "kernel slot out of range");
  Kernel.push_back(KernelOp{Slot, T, FirstIteration});
}

void SoftwarePipelineSchedule::finish() {
  assert(!Finished && "finish() called twice");
  // Prologue times: count per transition, prefix-sum into row starts,
  // then place each time at its iteration within its row.
  PrologueStart.assign(NumTransitions + 1, 0);
  for (const PrologueOp &Op : Prologue)
    ++PrologueStart[Op.T.index() + 1];
  for (size_t T = 0; T < NumTransitions; ++T)
    PrologueStart[T + 1] += PrologueStart[T];
  PrologueTimes.assign(Prologue.size(), 0);
  for (const PrologueOp &Op : Prologue) {
    size_t At = PrologueStart[Op.T.index()] + Op.Iteration;
    assert(At < PrologueStart[Op.T.index() + 1] &&
           "prologue ops must cover iterations 0.. of their transition");
    PrologueTimes[At] = Op.Time;
  }
  // Kernel slots: row T holds iterations prologueCount(T) .. + k.
  assert(Kernel.size() == NumTransitions * K &&
         "every transition needs exactly k kernel ops");
  KernelSlots.assign(NumTransitions * K, 0);
  Finished = true;
  for (const KernelOp &Op : Kernel) {
    uint64_t J = Op.FirstIteration - prologueCount(Op.T);
    assert(J < K && "kernel op outside its transition's k iterations");
    KernelSlots[static_cast<size_t>(Op.T.index()) * K + J] = Op.Slot;
  }
}

TimeStep SoftwarePipelineSchedule::startTime(TransitionId T,
                                             uint64_t Iteration) const {
  uint64_t Count = prologueCount(T);
  if (Iteration < Count)
    return PrologueTimes[PrologueStart[T.index()] + Iteration];
  uint64_t J = Iteration - Count;
  return Start + (J / K) * Period + kernelSlots(T)[J % K];
}

void SoftwarePipelineSchedule::printTimeline(
    std::ostream &OS, const std::vector<std::string> &Names,
    const std::vector<uint32_t> &ExecTimes, TimeStep Cycles) const {
  assert(Names.size() == NumTransitions &&
         ExecTimes.size() == NumTransitions && "dimension mismatch");
  size_t NameWidth = 0;
  for (const std::string &Name : Names)
    NameWidth = std::max(NameWidth, Name.size());

  // Ruler marking the kernel start and each period boundary.
  OS << std::string(NameWidth + 2, ' ');
  for (TimeStep T = 0; T < Cycles; ++T) {
    bool Boundary = T >= Start && (T - Start) % Period == 0;
    OS << (Boundary ? '|' : (T % 10 == 0 ? '+' : '-'));
  }
  OS << "\n";

  for (size_t I = 0; I < NumTransitions; ++I) {
    std::string Row(static_cast<size_t>(Cycles), '.');
    for (uint64_t M = 0;; ++M) {
      TimeStep At = startTime(TransitionId(I), M);
      if (At >= Cycles)
        break;
      for (TimeStep T = At;
           T < std::min<TimeStep>(At + ExecTimes[I], Cycles); ++T)
        Row[static_cast<size_t>(T)] =
            static_cast<char>('0' + static_cast<char>(M % 10));
    }
    OS << Names[I] << std::string(NameWidth - Names[I].size() + 2, ' ')
       << Row << "\n";
  }
}

void SoftwarePipelineSchedule::print(
    std::ostream &OS, const std::vector<std::string> &Names) const {
  // Iteration labels are relative to the least first-iteration in the
  // kernel, rendered i, i+1, ...
  uint64_t Base = ~0ull;
  for (const KernelOp &Op : Kernel)
    Base = std::min(Base, Op.FirstIteration);

  std::map<uint32_t, std::vector<const KernelOp *>> BySlot;
  for (const KernelOp &Op : Kernel)
    BySlot[Op.Slot].push_back(&Op);

  OS << "kernel (p=" << Period << ", k=" << K << ", rate=" << rate().str()
     << " iters/cycle):\n";
  for (uint32_t Slot = 0; Slot < Period; ++Slot) {
    OS << "  t+" << Slot << ": ";
    auto It = BySlot.find(Slot);
    if (It != BySlot.end()) {
      bool First = true;
      for (const KernelOp *Op : It->second) {
        if (!First)
          OS << "  ";
        First = false;
        OS << Names[Op->T.index()];
        uint64_t Delta = Op->FirstIteration - Base;
        OS << "(i" << (Delta ? "+" + std::to_string(Delta) : "") << ")";
      }
    }
    OS << "\n";
  }
}
