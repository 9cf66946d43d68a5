//===- core/RateAnalysis.h - Optimal computation rates ----------*- C++ -*-===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Rate-level analysis of SDSP-PNs (Appendix A.7 and Section 6).  The
/// optimal computation rate gamma = min over simple cycles of
/// M(C)/Omega(C) is achieved by the earliest firing rule on an ideal
/// machine; a cycle's M(C)/Omega(C) is its *balancing ratio*, and the
/// critical cycles are those attaining the minimum.  Also home to the
/// empirical "BD" bounds reported next to Tables 1 and 2 (frustum found
/// within ~2n steps for the SDSP-PN; ~2nl with an l-stage pipeline) and
/// the processor-usage metric of Table 2.
///
//===----------------------------------------------------------------------===//

#ifndef SDSP_CORE_RATEANALYSIS_H
#define SDSP_CORE_RATEANALYSIS_H

#include "core/Frustum.h"
#include "core/ScpModel.h"
#include "core/SdspPn.h"
#include "petri/CycleRatio.h"
#include "support/CancelToken.h"
#include "support/FaultInjection.h"

#include <optional>

namespace sdsp {

/// Summary of an SDSP-PN's rate structure.
struct RateReport {
  /// alpha* = max Omega(C)/M(C); infinite-resources initiation interval
  /// per iteration.
  Rational CycleTime;
  /// gamma = 1/alpha*, the time-optimal computation rate.
  Rational OptimalRate;
  /// Transitions on some critical cycle.
  std::vector<TransitionId> CriticalTransitions;
  /// Distinct critical simple cycles (when computed by enumeration).
  size_t NumCriticalCycles = 0;
  /// Whether more than one critical cycle exists (the Section 4.2
  /// regime where only critical-cycle transitions have a proven bound).
  bool MultipleCriticalCycles() const { return NumCriticalCycles > 1; }
};

/// Which max-cycle-ratio algorithm backs analyzeRate.
///   Auto      — enumeration up to the dispatcher's vertex limit (fills
///               NumCriticalCycles exactly, matching the paper-scale
///               outputs), Howard's policy iteration above it;
///   Howard    — always Howard's policy iteration (the at-scale hot
///               path; NumCriticalCycles stays 0);
///   Enumerate — always Johnson-style enumeration (exponential worst
///               case; the cross-validation oracle behind
///               `--rate-engine=enumerate` and the golden suite).
enum class RateEngine : uint8_t {
  Auto = 0,
  Howard = 1,
  Enumerate = 2,
};

/// Stable lowercase name ("auto", "howard", "enumerate") used by the
/// sdspc flag and the artifact-cache fingerprint.
const char *rateEngineName(RateEngine Engine);

/// Computes the rate report of \p Pn.  The cycle time also honors the
/// implicit self-loop of Assumption A.6.1: a transition of time tau
/// cannot fire above 1/tau even off every cycle, so for a place-free
/// net (e.g. Livermore loop 12's single subtraction) the cycle time is
/// max tau rather than undefined.  Howard runs flush their iteration
/// count to the `rate.howard.iterations` metric (deterministic per
/// net).
RateReport analyzeRate(const SdspPn &Pn,
                       RateEngine Engine = RateEngine::Auto);

/// Rate report of a bare timed marked graph — the entry point for
/// external (PNML-imported) nets, which carry no SDSP structure.
/// \p Net must satisfy isMarkedGraph(Net).
RateReport analyzeRate(const PetriNet &Net,
                       RateEngine Engine = RateEngine::Auto);

/// analyzeRate that a deadline can stop: before each policy-improvement
/// round of Howard's iteration it checks the `rate:iteration` fault site
/// of \p Faults (when given), then polls \p Cancel.  It fails with the
/// fault's status, or with the token's, stage "rate", naming the round.
/// The overshoot is one round, O(E).
Expected<RateReport> analyzeRateChecked(const PetriNet &Net, RateEngine Engine,
                                        const CancelToken &Cancel,
                                        FaultContext *Faults);

/// The balancing ratio M(C)/Omega(C) of one simple cycle (Section 6).
Rational balancingRatio(const SimpleCycle &C);

/// Empirical bound "BD" for the SDSP-PN model: the paper observes the
/// repeated instantaneous state within 2n time steps on the Livermore
/// loops.
uint64_t boundBdSdspPn(size_t NumTransitions);

/// Empirical bound "BD" for the SDSP-SCP-PN model (l-stage pipeline):
/// 2 * n * l time steps.
uint64_t boundBdScpPn(size_t NumSdspTransitions, uint32_t PipelineDepth);

/// Table 2's "processor usage": the fraction of kernel cycles in which
/// the single clean pipeline issues an instruction, i.e. total SDSP
/// firings in the frustum / frustum length.
Rational processorUsage(const ScpPn &Scp, const FrustumInfo &Frustum);

} // namespace sdsp

#endif // SDSP_CORE_RATEANALYSIS_H
