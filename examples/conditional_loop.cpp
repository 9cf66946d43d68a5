//===- examples/conditional_loop.cpp - Switch/merge conditionals -----------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
//
// Section 3.2: conditionals lower to well-formed switch/merge subgraphs
// whose firing rules are altered to produce and consume dummy tokens on
// unselected branches, so the whole loop remains an ordinary SDSP and
// schedules exactly like straight-line code.  This example pipelines a
// clipping loop with a data-dependent branch.
//
//   $ ./conditional_loop
//
//===----------------------------------------------------------------------===//

#include "core/Frustum.h"
#include "core/RateAnalysis.h"
#include "core/ScheduleDerivation.h"
#include "core/SdspPn.h"
#include "dataflow/Interpreter.h"
#include "loopir/Lowering.h"

#include <iostream>

using namespace sdsp;

int main() {
  // Clip-and-accumulate: the branch picks between a scaled and a raw
  // sample, and the result feeds a loop-carried accumulator.
  const char *Source = R"(do i {
    init acc = 0;
    clipped = if x[i] < limit then x[i] else limit * damp;
    acc = acc[i-1] + clipped;
    out acc;
    out clipped;
  })";
  std::cout << "loop:\n" << Source << "\n\n";

  DiagnosticEngine Diags;
  std::optional<DataflowGraph> G = compileLoop(Source, Diags);
  if (!G) {
    Diags.print(std::cerr);
    return 1;
  }

  size_t Switches = 0, Merges = 0;
  for (NodeId N : G->nodeIds()) {
    Switches += G->node(N).Kind == OpKind::Switch;
    Merges += G->node(N).Kind == OpKind::Merge;
  }
  std::cout << "lowered with " << Switches << " switch and " << Merges
            << " merge nodes (dummy-token discipline)\n";

  Sdsp S = Sdsp::standard(*G);
  SdspPn Pn = buildSdspPn(S);
  RateReport Rate = analyzeRate(Pn);
  std::optional<FrustumInfo> F = detectFrustum(Pn.Net);
  if (!F) {
    std::cerr << "no frustum\n";
    return 1;
  }
  std::cout << "SDSP-PN with " << Pn.Net.numTransitions()
            << " transitions schedules at rate "
            << F->computationRate(TransitionId(0u)) << " (optimal "
            << Rate.OptimalRate << ")\n\n";

  SoftwarePipelineSchedule Sched = deriveSchedule(Pn, *F);
  std::vector<std::string> Names;
  for (TransitionId T : Pn.Net.transitionIds())
    Names.emplace_back(Pn.Net.transition(T).Name);
  Sched.print(std::cout, Names);

  // Execute: both branches are evaluated, dummies flow on the
  // unselected side, and the merge picks the live value.
  StreamMap In;
  In["x"] = {0.5, 3.0, -1.0, 9.0};
  In["limit"] = {2.0, 2.0, 2.0, 2.0};
  In["damp"] = {0.5, 0.5, 0.5, 0.5};
  InterpResult R = interpret(*G, In, 4);
  std::cout << "\n  x      clipped  acc\n";
  for (size_t I = 0; I < 4; ++I)
    std::cout << "  " << In["x"][I] << "\t" << R.Outputs["clipped"][I]
              << "\t" << R.Outputs["acc"][I] << "\n";

  std::string Error;
  if (!validateSchedule(S, Pn, Sched, 64, &Error)) {
    std::cerr << "schedule invalid: " << Error << "\n";
    return 1;
  }
  std::cout << "\nschedule validated; conditionals pipeline like "
               "straight-line code.\n";
  return 0;
}
