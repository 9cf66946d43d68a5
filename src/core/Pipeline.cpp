//===- core/Pipeline.cpp - Guarded end-to-end compilation ------------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"

#include "core/ScheduleDerivation.h"
#include "core/Session.h"
#include "petri/Invariants.h"
#include "petri/MarkedGraph.h"
#include "support/FaultInjection.h"

#include <algorithm>

using namespace sdsp;

// The stage orchestration lives in core/Session.cpp since the
// compilation-session refactor; runPipeline() is the retained one-call
// form.  A throwaway session means no caching across calls — drivers
// that sweep options should hold a CompilationSession instead.

Expected<CompiledLoop> sdsp::runPipeline(const std::string &Source,
                                         const PipelineOptions &Opts,
                                         DiagnosticEngine *Diags) {
  CompilationSession Session;
  return Session.compile(Source, Opts, Diags);
}

Expected<CompiledLoop> sdsp::runPipeline(DataflowGraph G,
                                         const PipelineOptions &Opts) {
  CompilationSession Session;
  return Session.compile(std::move(G), Opts);
}

Status sdsp::verifyCompiledLoop(const CompiledLoop &CL,
                                const PipelineOptions &Opts,
                                const CancelToken &Cancel,
                                FaultContext *Faults) {
  auto Fail = [](const std::string &Msg) {
    return Status::error(ErrorCode::InternalInvariant, "verify", Msg);
  };
  // Before each check: the verify:check fault site, then the token, so
  // a deadline overshoots by at most one check.
  auto Enter = [&](const char *Check) {
    if (Faults)
      if (Status St = Faults->checkpoint("verify:check"); !St)
        return St;
    if (Cancel.cancelled())
      return Cancel.status("verify",
                           std::string("before check '") + Check + "'");
    return Status::ok();
  };

  if (!CL.Pn)
    return Status::ok(); // Nothing net-level to check before Petri.
  const PetriNet &Net = CL.Pn->Net;
  const size_t N = Net.numTransitions();

  // Structure: Section 3.2 claims the translation yields a live marked
  // graph; marked graphs are structurally persistent and consistent
  // (all-ones T-invariant, Thm A.5.3).
  if (Status St = Enter("marked graph"); !St)
    return St;
  if (!isMarkedGraph(Net))
    return Fail("SDSP-PN is not a marked graph");
  if (Status St = Enter("live"); !St)
    return St;
  if (!isLiveMarkedGraph(Net))
    return Fail("SDSP-PN initial marking is not live "
                "(some simple cycle is token-free)");
  if (Status St = Enter("persistent"); !St)
    return St;
  if (!isStructurallyPersistent(Net))
    return Fail("SDSP-PN is not structurally persistent");
  if (Status St = Enter("t-invariant"); !St)
    return St;
  if (!hasUniformTInvariant(Net))
    return Fail("all-ones firing vector is not a T-invariant "
                "(the net is not consistent)");

  // Safeness (Thm A.5.2) is promised for one-slot buffers; feedback
  // windows deeper than one iteration legitimately hold several tokens,
  // so only check when no place starts with more than one.  The cycles
  // of the SDSP's chained acks are offered as witnesses: with the
  // reverse partners they prove every place of a capacity-1 SDSP-PN,
  // storage-minimized chains included.
  if (Opts.Capacity == 1) {
    bool SingleTokens = true;
    for (size_t I = 0; I < Net.numPlaces() && SingleTokens; ++I)
      SingleTokens = Net.place(PlaceId(I)).InitialTokens <= 1;
    if (SingleTokens) {
      if (Status St = Enter("safe"); !St)
        return St;
      AckCycles Acks;
      if (CL.S)
        Acks = ackCycles(*CL.S, *CL.Pn);
      SafetyCheckOptions SO;
      SO.Witnesses = {Acks.Start, Acks.Places};
      SO.Cancel = &Cancel;
      SO.Stage = "verify";
      Expected<bool> Safe = checkSafeMarkedGraph(Net, SO);
      if (!Safe)
        return Safe.status();
      if (!*Safe)
        return Fail("capacity-1 SDSP-PN is not safe");
    }
  }

  if (CL.Frustum && CL.Rate) {
    if (Status St = Enter("rate"); !St)
      return St;
    const FrustumInfo &F = *CL.Frustum;
    if (CL.Scp) {
      // SCP machine.  Token balance over one frustum period forces
      // uniform firing counts within each marked-graph-connected
      // component; the run place couples components only through the
      // shared issue slot, so independent components (e.g. unrolled
      // copies of a recurrence-free body) may legitimately round-robin
      // unevenly within a single period.  One scratch array: a
      // union-find parent per SDSP transition, then each root's count.
      const size_t M = CL.Scp->numSdspTransitions();
      constexpr uint32_t NoCount = UINT32_MAX;
      std::vector<uint32_t> Scratch(2 * M);
      uint32_t *Parent = Scratch.data(), *ComponentCount = Parent + M;
      for (uint32_t I = 0; I < M; ++I) {
        Parent[I] = I;
        ComponentCount[I] = NoCount;
      }
      auto Find = [&](uint32_t I) {
        while (Parent[I] != I)
          I = Parent[I] = Parent[Parent[I]];
        return I;
      };
      for (size_t I = 0; I < Net.numPlaces(); ++I) {
        const PetriNet::Place Pl = Net.place(PlaceId(I));
        // SDSP-PN places have exactly one producer and one consumer.
        Parent[Find(Pl.Producers.front().index())] =
            Find(Pl.Consumers.front().index());
      }
      bool SingleComponent = true;
      uint64_t TotalFirings = 0;
      for (uint32_t I = 0; I < M; ++I) {
        uint32_t C = F.transitionCount(CL.Scp->SdspTransitions[I]);
        TotalFirings += C;
        uint32_t Root = Find(I);
        if (Root != Find(0))
          SingleComponent = false;
        if (ComponentCount[Root] == NoCount)
          ComponentCount[Root] = C;
        else if (ComponentCount[Root] != C)
          return Fail("SCP frustum has non-uniform firing counts within "
                      "one connected component");
      }
      // The run place can issue at most Pipelines instructions per time
      // step, bounding the aggregate throughput.
      if (TotalFirings >
          static_cast<uint64_t>(Opts.Pipelines) * F.length())
        return Fail("SCP frustum issues " + std::to_string(TotalFirings) +
                    " instructions in " + std::to_string(F.length()) +
                    " cycles, above the run-place capacity");
      if (SingleComponent && M > 0) {
        // Thm 5.2.2 (stated for one coupled net): the achieved rate
        // respects both the data bound alpha* and the issue bound
        // pipelines/n.
        Rational ScpRate =
            F.computationRate(CL.Scp->SdspTransitions.front());
        if (CL.Rate->OptimalRate < ScpRate)
          return Fail("SCP frustum rate " + ScpRate.str() +
                      " exceeds the analytic optimal rate " +
                      CL.Rate->OptimalRate.str());
        Rational IssueBound(static_cast<int64_t>(Opts.Pipelines),
                            static_cast<int64_t>(M));
        if (IssueBound < ScpRate)
          return Fail("SCP frustum rate " + ScpRate.str() +
                      " violates the Thm 5.2.2 issue bound " +
                      IssueBound.str());
      }
    } else {
      // Ideal machine: the frustum-derived rate must EQUAL the analytic
      // critical-cycle rate gamma = 1/alpha* (Thm 4.1.1 optimality).
      if (!F.hasUniformCount(N))
        return Fail("frustum has non-uniform firing counts on a marked "
                    "graph (contradicts Thm A.5.3)");
      Rational FrustumRate = F.computationRate(TransitionId(0u));
      if (FrustumRate != CL.Rate->OptimalRate)
        return Fail("frustum-derived rate " + FrustumRate.str() +
                    " != analytic critical-cycle rate " +
                    CL.Rate->OptimalRate.str());
    }
  }

  // Replay the derived schedule further than the pipeline itself did.
  if (CL.Schedule && CL.S) {
    if (Status St = Enter("schedule replay"); !St)
      return St;
    std::string Err;
    uint64_t Iters = std::max<uint64_t>(2 * Opts.ValidateIterations, 16);
    if (!validateSchedule(*CL.S, *CL.Pn, *CL.Schedule, Iters, &Err))
      return Fail("schedule revalidation failed: " + Err);
  }

  return Status::ok();
}

int sdsp::exitCodeFor(const Status &S) {
  switch (S.code()) {
  case ErrorCode::Ok:
    return 0;
  case ErrorCode::InvalidInput:
  case ErrorCode::InvalidGraph:
  case ErrorCode::InvalidNet:
    return 1;
  case ErrorCode::BudgetExceeded:
  case ErrorCode::ResourceConflict:
  case ErrorCode::Cancelled:
  case ErrorCode::DeadlineExceeded:
  case ErrorCode::TransientFault:
    return 2;
  case ErrorCode::InternalInvariant:
    return 3;
  }
  SDSP_UNREACHABLE("unknown error code");
}
