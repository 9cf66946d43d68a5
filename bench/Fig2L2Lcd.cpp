//===- bench/Fig2L2Lcd.cpp - Reproduction of Figure 2 ----------------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
//
// Figure 2: loop L2 with the loop-carried dependence C = A + E[i-1].
// Prints the dataflow graph (feedback arc dashed) and the SDSP-PN, then
// the rate analysis: the critical cycle is C-D-E with balancing ratio
// 1/3, and the earliest-firing frustum achieves exactly that.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/Frustum.h"
#include "core/RateAnalysis.h"
#include "core/ScheduleDerivation.h"
#include "petri/CycleRatio.h"
#include "petri/SimpleCycles.h"
#include "support/TextTable.h"

using namespace sdsp;
using namespace sdsp::benchutil;

namespace {

void printFigure(std::ostream &OS) {
  OS << "=== Figure 2: loop L2 with loop-carried dependence ===\n\n";
  OS << "L2 source (Figure 2(a)):\n"
     << findKernel("l2")->Source << "\n\n";

  DataflowGraph G = compileKernel("l2");
  OS << "--- Figure 2(b/c): dataflow graph (dashed = feedback) ---\n";
  G.printDot(OS, "L2_dataflow");

  Sdsp S = Sdsp::standard(G);
  SdspPn Pn = buildSdspPn(S);
  OS << "\n--- Figure 2(d): SDSP-PN ---\n";
  Pn.Net.printDot(OS, "L2_sdsp_pn");

  OS << "\n--- Cycle inventory and balancing ratios (Section 6) ---\n";
  MarkedGraphView View(Pn.Net);
  std::vector<SimpleCycle> Cycles = enumerateSimpleCycles(View);
  TextTable T;
  T.startRow();
  for (const char *H : {"cycle (transitions)", "Omega", "M",
                        "balancing ratio M/Omega"})
    T.cell(H);
  for (const SimpleCycle &C : Cycles) {
    std::string Names;
    for (TransitionId Tr : cycleTransitions(View, C))
      Names += Pn.Net.transition(Tr).Name;
    T.startRow();
    T.cell(Names);
    T.cell(static_cast<int64_t>(C.ValueSum));
    T.cell(static_cast<int64_t>(C.TokenSum));
    T.cell(Rational(static_cast<int64_t>(C.TokenSum),
                    static_cast<int64_t>(C.ValueSum))
               .str());
  }
  T.print(OS);

  RateReport Rate = analyzeRate(Pn);
  OS << "\ncritical cycle time alpha* = " << Rate.CycleTime.str()
     << ", optimal rate = " << Rate.OptimalRate.str() << "\n";

  auto F = detectFrustum(Pn.Net);
  if (F) {
    SoftwarePipelineSchedule Sched = deriveSchedule(Pn, *F);
    std::vector<std::string> Names;
    for (TransitionId Tr : Pn.Net.transitionIds())
      Names.emplace_back(Pn.Net.transition(Tr).Name);
    OS << "\n--- derived schedule ---\n";
    Sched.print(OS, Names);
    OS << "measured rate " << Sched.rate().str() << "\n\n";
  }
}

void benchL2Analysis(benchmark::State &State) {
  SdspPn Pn = buildKernelPn("l2");
  for (auto _ : State) {
    RateReport R = analyzeRate(Pn);
    benchmark::DoNotOptimize(R);
  }
}

} // namespace

BENCHMARK(benchL2Analysis);

SDSP_BENCH_MAIN(printFigure)
