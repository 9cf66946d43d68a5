//===- bench/Fig1L1Walkthrough.cpp - Reproduction of Figure 1 --------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
//
// Figure 1, end to end on loop L1:
//   (a/b/c) the loop and its static dataflow graph      -> DOT
//   (d) the SDSP-PN                                     -> DOT
//   (e) the behavior graph with the frustum highlighted -> DOT
//   (f) the steady-state equivalent net                 -> DOT
//   (g) the time-optimal schedule                       -> kernel table
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/Frustum.h"
#include "core/RateAnalysis.h"
#include "core/ScheduleDerivation.h"
#include "core/SteadyStateNet.h"
#include "petri/BehaviorGraph.h"

using namespace sdsp;
using namespace sdsp::benchutil;

namespace {

void printWalkthrough(std::ostream &OS) {
  OS << "=== Figure 1: the paper's walkthrough on loop L1 ===\n\n";
  OS << "L1 source (Figure 1(a)):\n"
     << findKernel("l1")->Source << "\n\n";

  DataflowGraph G = compileKernel("l1");
  OS << "--- Figure 1(b/c): static dataflow graph (DOT) ---\n";
  G.printDot(OS, "L1_dataflow");

  Sdsp S = Sdsp::standard(G);
  SdspPn Pn = buildSdspPn(S);
  OS << "\n--- Figure 1(d): SDSP-PN (DOT; bullet = token) ---\n";
  Pn.Net.printDot(OS, "L1_sdsp_pn");

  auto F = detectFrustum(Pn.Net);
  if (!F) {
    OS << "frustum not found\n";
    return;
  }
  OS << "\n--- Figure 1(e): behavior graph (DOT; shaded = frustum "
     << "[" << F->StartTime << ", " << F->RepeatTime << ")) ---\n";
  {
    EarliestFiringEngine Engine(Pn.Net);
    BehaviorGraph BG(Pn.Net);
    while (Engine.now() < F->RepeatTime)
      BG.recordStep(Engine.fireAndAdvance());
    BG.printDot(OS, "L1_behavior", F->StartTime, F->RepeatTime);
  }

  OS << "\n--- Figure 1(f): steady-state equivalent net (DOT) ---\n";
  SteadyStateNet SSN = buildSteadyStateNet(Pn.Net, *F);
  SSN.Net.printDot(OS, "L1_steady_state");

  OS << "\n--- Figure 1(g): time-optimal schedule ---\n";
  SoftwarePipelineSchedule Sched = deriveSchedule(Pn, *F);
  std::vector<std::string> Names;
  for (TransitionId T : Pn.Net.transitionIds())
    Names.emplace_back(Pn.Net.transition(T).Name);
  Sched.print(OS, Names);
  RateReport Rate = analyzeRate(Pn);
  OS << "achieved rate " << Sched.rate().str() << " = optimal "
     << Rate.OptimalRate.str() << " (cycle time alpha* = "
     << Rate.CycleTime.str() << ")\n\n";
}

void benchWalkthrough(benchmark::State &State) {
  DataflowGraph G = compileKernel("l1");
  for (auto _ : State) {
    Sdsp S = Sdsp::standard(G);
    SdspPn Pn = buildSdspPn(S);
    auto F = detectFrustum(Pn.Net);
    SoftwarePipelineSchedule Sched = deriveSchedule(Pn, *F);
    benchmark::DoNotOptimize(Sched);
  }
}

} // namespace

BENCHMARK(benchWalkthrough);

SDSP_BENCH_MAIN(printWalkthrough)
