//===- core/ScheduleDerivation.cpp - Frustum -> schedule -------------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "core/ScheduleDerivation.h"

#include "support/Metrics.h"

#include <algorithm>
#include <cassert>

using namespace sdsp;

Expected<SoftwarePipelineSchedule>
sdsp::deriveScheduleChecked(const SdspPn &Pn, const FrustumInfo &Frustum) {
  size_t N = Pn.Net.numTransitions();
  if (Frustum.FiringCounts.size() != N)
    return Status::error(ErrorCode::InvalidInput, "schedule",
                         "frustum was detected on a different net (" +
                             std::to_string(Frustum.FiringCounts.size()) +
                             " transitions vs " + std::to_string(N) + ")");
  uint32_t K = 0;
  for (TransitionId T : Pn.Net.transitionIds()) {
    uint32_t C = Frustum.transitionCount(T);
    if (C < 1)
      return Status::error(ErrorCode::InvalidNet, "schedule",
                           "transition " + Pn.Net.transition(T).Name +
                               " never fires in the frustum");
    if (K == 0)
      K = C;
    if (C != K)
      return Status::error(ErrorCode::InvalidNet, "schedule",
                           "non-uniform firing counts in the frustum (" +
                               Pn.Net.transition(T).Name + " fires " +
                               std::to_string(C) + "x vs " +
                               std::to_string(K) +
                               "x); net is not a marked graph?");
  }

  SoftwarePipelineSchedule Sched(N, Frustum.StartTime, Frustum.length(), K);
  std::vector<uint64_t> Occurrence(N, 0);
  for (const StepRecord &Rec : Frustum.Trace) {
    for (TransitionId T : Rec.Fired) {
      uint64_t Iter = Occurrence[T.index()]++;
      if (Rec.Time < Frustum.StartTime)
        Sched.addPrologueOp(Rec.Time, T, Iter);
      else
        Sched.addKernelOp(static_cast<uint32_t>(Rec.Time - Frustum.StartTime),
                          T, Iter);
    }
  }
  return Sched;
}

SoftwarePipelineSchedule sdsp::deriveSchedule(const SdspPn &Pn,
                                              const FrustumInfo &Frustum) {
  return SDSP_EXPECT_OK(deriveScheduleChecked(Pn, Frustum));
}

bool sdsp::validateSchedule(const Sdsp &S, const SdspPn &Pn,
                            const SoftwarePipelineSchedule &Sched,
                            uint64_t CheckIterations, std::string *Error) {
  const DataflowGraph &G = S.graph();
  auto Fail = [&](const std::string &Msg) {
    if (Error)
      *Error = Msg;
    return false;
  };

  // Constraint instances evaluated, flushed once per call on every exit
  // path.  A function of the schedule alone, so exact and
  // thread-count-invariant.
  struct ValidateMetrics {
    uint64_t Checks = 0;
    ~ValidateMetrics() {
      MetricsRegistry::global().add("schedule.validate.checks", Checks);
    }
  } Metrics;

  // First iteration m in [Lag, CheckIterations) at which Later starts
  // before iteration m - Lag of Earlier finishes, or CheckIterations if
  // none.  Past H0 both start times advance by p every k iterations, so
  // the replay stops at the horizon H0 + k (ScheduleDerivation.h).
  uint64_t K = Sched.iterationsPerKernel();
  auto FirstViolation = [&](TransitionId Later, TransitionId Earlier,
                            uint64_t Lag) -> uint64_t {
    uint64_t H0 = std::max(Sched.prologueCount(Later),
                           Sched.prologueCount(Earlier) + Lag);
    uint64_t End = std::min(CheckIterations, H0 + K);
    uint64_t Tau = Pn.Net.transition(Earlier).ExecTime;
    for (uint64_t M = Lag; M < End; ++M) {
      ++Metrics.Checks;
      if (Sched.startTime(Later, M) < Sched.startTime(Earlier, M - Lag) + Tau)
        return M;
    }
    return CheckIterations;
  };

  // Non-reentrancy: firings of one transition are serialized.
  for (TransitionId T : Pn.Net.transitionIds()) {
    uint64_t M = FirstViolation(T, T, 1);
    if (M < CheckIterations)
      return Fail("transition " + Pn.Net.transition(T).Name +
                  " iterations " + std::to_string(M - 1) + "/" +
                  std::to_string(M) + " overlap");
  }

  // Data dependences.
  for (ArcId A : G.arcIds()) {
    if (!S.isInteriorArc(A))
      continue;
    const DataflowGraph::Arc &Arc = G.arc(A);
    TransitionId U = Pn.NodeToTransition[Arc.From.index()];
    TransitionId V = Pn.NodeToTransition[Arc.To.index()];
    uint64_t M = FirstViolation(V, U, Arc.Distance);
    if (M < CheckIterations)
      return Fail("dependence violated on arc " + G.node(Arc.From).Name +
                  " -> " + G.node(Arc.To).Name + " at iteration " +
                  std::to_string(M));
  }

  // Buffer capacities: the producer at the head of each ack chain must
  // wait for the chain consumer's acknowledgement.
  for (const Sdsp::Ack &Ack : S.acks()) {
    const DataflowGraph::Arc &Head = G.arc(Ack.Path.front());
    const DataflowGraph::Arc &Tail = G.arc(Ack.Path.back());
    TransitionId U = Pn.NodeToTransition[Head.From.index()];
    TransitionId V = Pn.NodeToTransition[Tail.To.index()];
    uint64_t M = FirstViolation(U, V, Ack.Slots);
    if (M < CheckIterations)
      return Fail("capacity violated on ack " + G.node(Tail.To).Name +
                  " -> " + G.node(Head.From).Name + " at iteration " +
                  std::to_string(M));
  }

  return true;
}
