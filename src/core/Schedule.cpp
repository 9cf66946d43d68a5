//===- core/Schedule.cpp - Software-pipelined loop schedules ---------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "core/Schedule.h"

#include "core/ArtifactHash.h"
#include "support/Status.h"

#include <algorithm>
#include <cassert>
#include <ostream>
#include <utility>

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

SoftwarePipelineSchedule::Builder::Builder(size_t NumTransitions,
                                           TimeStep Start, TimeStep Period,
                                           uint32_t IterationsPerKernel)
    : S(NumTransitions, Start, Period, IterationsPerKernel),
      HS(ScheduleHashSeed) {
  S.PrologueStart.assign(NumTransitions + 1, 0);
}

void SoftwarePipelineSchedule::Builder::startFill() {
  size_t N = S.NumTransitions;
  for (size_t T = 0; T < N; ++T)
    S.PrologueStart[T + 1] += S.PrologueStart[T];
  S.PrologueTimes.assign(S.PrologueStart[N], 0);
  S.KernelSlots.assign(N * S.K, 0);
  Filled.assign(N, 0);
  // The stream of artifactHash (core/ArtifactHash.cpp) up to the first
  // prologue firing.
  HS.u64(N).u64(S.Start).u64(S.Period).u64(S.K).u64(S.numPrologueOps());
  InOrder = true;
}

void SoftwarePipelineSchedule::Builder::startKernel() {
  InKernel = true;
  if (Fed != S.numPrologueOps()) {
    InOrder = false; // A prologue firing is missing from the stream.
    return;
  }
  HS.u64(S.numKernelOps());
  Fed = 0;
}

bool SoftwarePipelineSchedule::Builder::complete() const {
  for (size_t T = 0; T < S.NumTransitions; ++T)
    if (Filled[T] != S.prologueCount(TransitionId(T)) + S.K)
      return false;
  return true;
}

SoftwarePipelineSchedule SoftwarePipelineSchedule::Builder::finish() {
  SDSP_CHECK(Filled.size() == S.NumTransitions && complete(),
             "schedule finished with an unfilled row");
  Filled = {};
  if (InOrder && !InKernel)
    startKernel(); // No kernel firings: N is 0.
  S.Hash = InOrder ? HS.hash() : artifactHash(S);
  return std::move(S);
}

TimeStep SoftwarePipelineSchedule::startTime(TransitionId T,
                                             uint64_t Iteration) const {
  uint64_t Count = prologueCount(T);
  if (Iteration < Count)
    return PrologueTimes[PrologueStart[T.index()] + Iteration];
  uint64_t J = Iteration - Count;
  return Start + (J / K) * Period + kernelSlots(T)[J % K];
}

namespace {

/// The firings of one part of a schedule, row T holding flat positions
/// [RowBegin(T), RowBegin(T + 1)) of \p Values, sorted by (value, row,
/// position): a counting sort over the values, which are below
/// \p Limit, when the buckets are no more than the firings; else a
/// comparison sort, so an index with a huge prologue end or kernel
/// length costs no more than its size.
template <typename V, typename RowBeginFn>
void sortByValue(size_t NumRows, RowBeginFn RowBegin,
                 const std::vector<V> &Values, uint64_t Limit,
                 std::vector<TimeStep> &Keys, std::vector<uint32_t> &Ends,
                 std::unique_ptr<uint64_t[]> &Out) {
  size_t N = Values.size();
  // Every entry is written below.
  Out.reset(new uint64_t[N]);
  uint64_t *Firings = Out.get();
  auto Pack = [](size_t Row, size_t J) {
    return static_cast<uint64_t>(Row) << 32 | static_cast<uint32_t>(J);
  };
  if (Limit <= N + NumRows + 64) {
    // Bucket starts, then each firing at its bucket's next position,
    // rows and iterations in order.
    std::vector<uint32_t> Next(static_cast<size_t>(Limit), 0);
    for (V Value : Values)
      ++Next[static_cast<size_t>(Value)];
    size_t Sum = 0;
    for (size_t B = 0; B < Next.size(); ++B) {
      uint32_t Count = Next[B];
      Next[B] = static_cast<uint32_t>(Sum);
      if (Count) {
        Sum += Count;
        Keys.push_back(B);
        Ends.push_back(static_cast<uint32_t>(Sum));
      }
    }
    for (size_t Row = 0; Row < NumRows; ++Row) {
      size_t Begin = RowBegin(Row), End = RowBegin(Row + 1);
      for (size_t I = Begin; I < End; ++I)
        Firings[Next[static_cast<size_t>(Values[I])]++] = Pack(Row, I - Begin);
    }
    return;
  }
  std::vector<std::pair<TimeStep, uint64_t>> Sorted;
  Sorted.reserve(N);
  for (size_t Row = 0; Row < NumRows; ++Row) {
    size_t Begin = RowBegin(Row), End = RowBegin(Row + 1);
    for (size_t I = Begin; I < End; ++I)
      Sorted.emplace_back(Values[I], Pack(Row, I - Begin));
  }
  std::sort(Sorted.begin(), Sorted.end());
  for (size_t I = 0; I < N; ++I) {
    if (I == 0 || Sorted[I].first != Keys.back()) {
      if (I)
        Ends.push_back(static_cast<uint32_t>(I));
      Keys.push_back(Sorted[I].first);
    }
    Firings[I] = Sorted[I].second;
  }
  if (N)
    Ends.push_back(static_cast<uint32_t>(N));
}

} // namespace

SoftwarePipelineSchedule::Runs SoftwarePipelineSchedule::prologueRuns() const {
  Runs R;
  sortByValue(
      NumTransitions, [&](size_t T) { return size_t{PrologueStart[T]}; },
      PrologueTimes, Start, R.Keys, R.Ends, R.Firings);
  return R;
}

SoftwarePipelineSchedule::Runs SoftwarePipelineSchedule::kernelRuns() const {
  Runs R;
  sortByValue(
      NumTransitions, [&](size_t T) { return T * K; }, KernelSlots, Period,
      R.Keys, R.Ends, R.Firings);
  return R;
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
    StartCursor C = cursor(TransitionId(I), 0);
    for (uint64_t M = 0;; ++M) {
      TimeStep At = C.next();
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
  // kernel, rendered i, i+1, ...: each transition's least is its
  // prologue count.
  uint64_t Base = ~0ull;
  for (size_t T = 0; T < NumTransitions; ++T)
    Base = std::min(Base, prologueCount(TransitionId(T)));

  OS << "kernel (p=" << Period << ", k=" << K << ", rate=" << rate().str()
     << " iters/cycle):\n";
  // One line per slot; a slot's firings follow its line's head.
  uint64_t Opened = 0;
  bool First = true;
  auto OpenThrough = [&](uint64_t Slot) {
    for (; Opened <= Slot; ++Opened)
      OS << (Opened ? "\n" : "") << "  t+" << Opened << ": ";
    First = true;
  };
  forEachKernelOp([&](uint32_t Slot, TransitionId T, uint64_t FirstIteration) {
    if (Slot >= Opened)
      OpenThrough(Slot);
    if (!First)
      OS << "  ";
    First = false;
    OS << Names[T.index()];
    uint64_t Delta = FirstIteration - Base;
    OS << "(i" << (Delta ? "+" + std::to_string(Delta) : "") << ")";
  });
  OpenThrough(Period - 1);
  OS << "\n";
}
