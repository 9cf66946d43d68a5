//===- core/ScheduleDerivation.cpp - Frustum -> schedule -------------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "core/ScheduleDerivation.h"

#include "support/FaultInjection.h"
#include "support/Metrics.h"

#include <algorithm>
#include <cassert>

using namespace sdsp;

Expected<SoftwarePipelineSchedule>
sdsp::deriveScheduleChecked(const SdspPn &Pn, const FrustumInfo &Frustum,
                            const CancelToken &Cancel, FaultContext *Faults) {
  size_t N = Pn.Net.numTransitions();
  if (Frustum.FiringCounts.size() != N)
    return Status::error(ErrorCode::InvalidInput, "schedule",
                         "frustum was detected on a different net (" +
                             std::to_string(Frustum.FiringCounts.size()) +
                             " transitions vs " + std::to_string(N) + ")");
  uint32_t K = 0;
  for (TransitionId T : Pn.Net.transitionIds()) {
    uint32_t C = Frustum.transitionCount(T);
    std::string_view Name = Pn.Net.transition(T).Name;
    if (C < 1)
      return Status::error(ErrorCode::InvalidNet, "schedule",
                           "transition " + std::string(Name) +
                               " never fires in the frustum");
    if (K == 0)
      K = C;
    if (C != K)
      return Status::error(ErrorCode::InvalidNet, "schedule",
                           "non-uniform firing counts in the frustum (" +
                               std::string(Name) + " fires " +
                               std::to_string(C) + "x vs " +
                               std::to_string(K) +
                               "x); net is not a marked graph?");
  }

  // Before each batch of rows: the fault site, then the token.
  const FiringTrace &Trace = Frustum.Trace;
  Status Stop;
  auto Stopped = [&](size_t Row, const char *Pass) {
    if (Row % ScheduleBatch)
      return false;
    if (Faults)
      Stop = Faults->checkpoint("schedule:batch");
    if (Stop && Cancel.cancelled())
      Stop = Cancel.status("schedule", std::string("while ") + Pass +
                                           ", before trace row " +
                                           std::to_string(Row) + " of " +
                                           std::to_string(Trace.size()));
    return !Stop;
  };

  // Rows before the frustum start are the prologue.
  const TimeStep Start = Frustum.StartTime;
  SoftwarePipelineSchedule::Builder B(N, Start, Frustum.length(), K);
  for (size_t Row = 0; Row < Trace.size(); ++Row) {
    if (Stopped(Row, "counting the prologue"))
      return Stop;
    StepView Rec = Trace[Row];
    if (Rec.Time >= Start)
      break;
    for (TransitionId T : Rec.Fired)
      B.countPrologue(T);
  }
  B.startFill();
  for (size_t Row = 0; Row < Trace.size(); ++Row) {
    if (Stopped(Row, "filling the schedule"))
      return Stop;
    StepView Rec = Trace[Row];
    for (size_t I = 0; I < Rec.Fired.size(); ++I) {
      TransitionId T = Rec.Fired[I];
      if (I && Rec.Fired[I - 1].index() >= T.index())
        return Status::error(ErrorCode::InvalidInput, "schedule",
                             "trace row at t=" + std::to_string(Rec.Time) +
                                 " lists its fired ids out of ascending "
                                 "order");
      bool Placed = Rec.Time < Start
                        ? B.addPrologue(T, Rec.Time)
                        : B.addKernel(T, static_cast<uint32_t>(Rec.Time - Start));
      if (!Placed)
        return Status::error(ErrorCode::InvalidInput, "schedule",
                             "transition " +
                                 std::string(Pn.Net.transition(T).Name) +
                                 " fires at t=" + std::to_string(Rec.Time) +
                                 " past its place in the schedule");
    }
  }
  if (!B.complete())
    return Status::error(ErrorCode::InvalidInput, "schedule",
                         "the trace does not cover the frustum's firings");
  return B.finish();
}

SoftwarePipelineSchedule sdsp::deriveSchedule(const SdspPn &Pn,
                                              const FrustumInfo &Frustum) {
  return SDSP_EXPECT_OK(deriveScheduleChecked(Pn, Frustum));
}

bool sdsp::validateSchedule(const Sdsp &S, const SdspPn &Pn,
                            const SoftwarePipelineSchedule &Sched,
                            uint64_t CheckIterations, std::string *Error) {
  return SDSP_EXPECT_OK(validateScheduleChecked(
      S, Pn, Sched, CheckIterations, Error, CancelToken(), nullptr,
      "schedule"));
}

Expected<bool> sdsp::validateScheduleChecked(
    const Sdsp &S, const SdspPn &Pn, const SoftwarePipelineSchedule &Sched,
    uint64_t CheckIterations, std::string *Error, const CancelToken &Cancel,
    FaultContext *Faults, std::string_view Stage) {
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

  // Before each batch of constraints (transitions, arcs and acks, in
  // checking order): the fault site, then the token.
  const size_t Batches =
      (Pn.Net.numTransitions() + G.numArcs() + S.acks().size() +
       ScheduleBatch - 1) /
      ScheduleBatch;
  size_t Constraint = 0;
  Status Stop;
  auto Stopped = [&]() {
    if (Constraint++ % ScheduleBatch)
      return false;
    if (Faults)
      Stop = Faults->checkpoint("schedule:batch");
    if (Stop && Cancel.cancelled())
      Stop = Cancel.status(Stage, "in the schedule replay, before batch " +
                                      std::to_string(Constraint /
                                                         ScheduleBatch +
                                                     1) +
                                      " of " + std::to_string(Batches));
    return !Stop;
  };

  // First iteration m in [Lag, CheckIterations) at which Later starts
  // before iteration m - Lag of Earlier finishes, or CheckIterations if
  // none.  Past H0 both start times advance by p every k iterations, so
  // the replay stops at the horizon H0 + k (ScheduleDerivation.h).
  // While both iterations are prologue firings the two rows are compared
  // in place; from there on two cursors step through the kernel slots.
  uint64_t K = Sched.iterationsPerKernel();
  auto FirstViolation = [&](TransitionId Later, TransitionId Earlier,
                            uint64_t Lag) -> uint64_t {
    std::span<const TimeStep> LaterPro = Sched.prologueTimes(Later);
    std::span<const TimeStep> EarlierPro = Sched.prologueTimes(Earlier);
    uint64_t H0 = std::max<uint64_t>(LaterPro.size(), EarlierPro.size() + Lag);
    uint64_t End = std::min(CheckIterations, H0 + K);
    if (End <= Lag)
      return CheckIterations;
    uint64_t Tau = Pn.Net.transition(Earlier).ExecTime;
    uint64_t M = Lag;
    uint64_t InPrologue = std::min<uint64_t>(
        {End, LaterPro.size(), EarlierPro.size() + Lag});
    for (; M < InPrologue; ++M)
      if (LaterPro[M] < EarlierPro[M - Lag] + Tau) {
        Metrics.Checks += M - Lag + 1;
        return M;
      }
    SoftwarePipelineSchedule::StartCursor L = Sched.cursor(Later, M);
    SoftwarePipelineSchedule::StartCursor E = Sched.cursor(Earlier, M - Lag);
    for (; M < End; ++M) {
      TimeStep LaterStart = L.next();
      if (LaterStart < E.next() + Tau) {
        Metrics.Checks += M - Lag + 1;
        return M;
      }
    }
    Metrics.Checks += End - Lag;
    return CheckIterations;
  };

  // Non-reentrancy: firings of one transition are serialized.
  for (size_t I = 0; I < Pn.Net.numTransitions(); ++I) {
    if (Stopped())
      return Stop;
    const TransitionId T(I);
    uint64_t M = FirstViolation(T, T, 1);
    if (M < CheckIterations)
      return Fail("transition " + std::string(Pn.Net.transition(T).Name) +
                  " iterations " + std::to_string(M - 1) + "/" +
                  std::to_string(M) + " overlap");
  }

  // Data dependences.
  for (ArcId A : G.arcIds()) {
    if (Stopped())
      return Stop;
    if (!S.isInteriorArc(A))
      continue;
    const DataflowGraph::Arc &Arc = G.arc(A);
    TransitionId U = Pn.NodeToTransition[Arc.From.index()];
    TransitionId V = Pn.NodeToTransition[Arc.To.index()];
    uint64_t M = FirstViolation(V, U, Arc.Distance);
    if (M < CheckIterations)
      return Fail("dependence violated on arc " +
                  std::string(G.node(Arc.From).Name) + " -> " +
                  std::string(G.node(Arc.To).Name) + " at iteration " +
                  std::to_string(M));
  }

  // Buffer capacities: the producer at the head of each ack chain must
  // wait for the chain consumer's acknowledgement.
  for (Sdsp::AckView Ack : S.acks()) {
    if (Stopped())
      return Stop;
    const DataflowGraph::Arc &Head = G.arc(Ack.Path.front());
    const DataflowGraph::Arc &Tail = G.arc(Ack.Path.back());
    TransitionId U = Pn.NodeToTransition[Head.From.index()];
    TransitionId V = Pn.NodeToTransition[Tail.To.index()];
    uint64_t M = FirstViolation(U, V, Ack.Slots);
    if (M < CheckIterations)
      return Fail("capacity violated on ack " +
                  std::string(G.node(Tail.To).Name) + " -> " +
                  std::string(G.node(Head.From).Name) + " at iteration " +
                  std::to_string(M));
  }

  return true;
}
