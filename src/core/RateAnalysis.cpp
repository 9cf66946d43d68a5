//===- core/RateAnalysis.cpp - Optimal computation rates -------------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "core/RateAnalysis.h"

#include "support/Metrics.h"

#include <cassert>

using namespace sdsp;

const char *sdsp::rateEngineName(RateEngine Engine) {
  switch (Engine) {
  case RateEngine::Auto:
    return "auto";
  case RateEngine::Howard:
    return "howard";
  case RateEngine::Enumerate:
    return "enumerate";
  }
  return "auto";
}

RateReport sdsp::analyzeRate(const SdspPn &Pn, RateEngine Engine) {
  return analyzeRate(Pn.Net, Engine);
}

RateReport sdsp::analyzeRate(const PetriNet &Net, RateEngine Engine) {
  return SDSP_EXPECT_OK(
      analyzeRateChecked(Net, Engine, CancelToken(), nullptr));
}

Expected<RateReport> sdsp::analyzeRateChecked(const PetriNet &Net,
                                              RateEngine Engine,
                                              const CancelToken &Cancel,
                                              FaultContext *Faults) {
  Status Stop;
  RoundPoll Poll = [&](uint64_t Round) {
    if (Faults)
      Stop = Faults->checkpoint("rate:iteration");
    if (Stop && Cancel.cancelled())
      Stop = Cancel.status("rate", "in Howard's iteration, before round " +
                                       std::to_string(Round));
    return bool(Stop);
  };
  MarkedGraphView View(Net);
  std::optional<CriticalCycleInfo> Info;
  // Counted whenever Howard ran, whichever engine choice ran it.
  std::optional<uint64_t> HowardIterations;
  switch (Engine) {
  case RateEngine::Auto:
    Info = criticalCycle(View, &HowardIterations, 64, Poll);
    break;
  case RateEngine::Howard:
    HowardIterations = 0;
    Info = maxCycleRatioHoward(View, &*HowardIterations, nullptr, Poll);
    break;
  case RateEngine::Enumerate:
    Info = criticalCycleByEnumeration(View);
    break;
  }
  if (!Stop)
    return Stop;
  if (HowardIterations)
    MetricsRegistry::global().add("rate.howard.iterations",
                                  *HowardIterations);

  // Implicit self-loop bound: max execution time.
  Rational SelfLoop(0);
  for (TransitionId T : Net.transitionIds())
    SelfLoop = std::max(
        SelfLoop, Rational(static_cast<int64_t>(Net.transition(T).ExecTime)));

  RateReport Report;
  if (Info && Info->CycleTime >= SelfLoop) {
    Report.CycleTime = Info->CycleTime;
    Report.CriticalTransitions = std::move(Info->CriticalTransitions);
    Report.NumCriticalCycles = Info->NumCriticalCycles;
  } else {
    Report.CycleTime = SelfLoop;
    for (TransitionId T : Net.transitionIds())
      if (Rational(static_cast<int64_t>(Net.transition(T).ExecTime)) ==
          SelfLoop)
        Report.CriticalTransitions.push_back(T);
    Report.NumCriticalCycles = 0; // Bounded by self-loops, not cycles.
  }
  Report.OptimalRate = Report.CycleTime.isZero()
                           ? Rational(0)
                           : Report.CycleTime.reciprocal();
  return Report;
}

Rational sdsp::balancingRatio(const SimpleCycle &C) {
  assert(C.ValueSum > 0 && "cycle with zero value sum");
  return Rational(static_cast<int64_t>(C.TokenSum),
                  static_cast<int64_t>(C.ValueSum));
}

uint64_t sdsp::boundBdSdspPn(size_t NumTransitions) {
  return 2 * static_cast<uint64_t>(NumTransitions);
}

uint64_t sdsp::boundBdScpPn(size_t NumSdspTransitions,
                            uint32_t PipelineDepth) {
  return 2 * static_cast<uint64_t>(NumSdspTransitions) * PipelineDepth;
}

Rational sdsp::processorUsage(const ScpPn &Scp, const FrustumInfo &Frustum) {
  uint64_t Issues = 0;
  for (TransitionId T : Scp.SdspTransitions)
    Issues += Frustum.transitionCount(T);
  assert(Frustum.length() > 0 && "empty frustum");
  // Fraction of issue slots used: each of the NumPipelines pipelines
  // offers one slot per cycle.
  return Rational(static_cast<int64_t>(Issues),
                  static_cast<int64_t>(Frustum.length() *
                                       Scp.NumPipelines));
}
