//===- examples/dsp_filter.cpp - Pipelining an IIR biquad ------------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
//
// A realistic DSP kernel with second-order feedback: the direct-form-I
// biquad
//
//   y[i] = b0 x[i] + b1 x[i-1] + b2 x[i-2] - a1 y[i-1] - a2 y[i-2]
//
// The y[i-1] recurrence bounds the rate; the Petri-net analysis finds
// that bound, the frustum schedules to it, multipliers with longer
// execution times stretch it honestly, and the VM's output matches a
// plain C++ biquad to the last bit.
//
//   $ ./dsp_filter
//
//===----------------------------------------------------------------------===//

#include "codegen/Codegen.h"
#include "codegen/Vm.h"
#include "core/Frustum.h"
#include "core/RateAnalysis.h"
#include "core/ScheduleDerivation.h"
#include "core/SdspPn.h"
#include "loopir/Lowering.h"

#include <cmath>
#include <iostream>

using namespace sdsp;

int main() {
  // x[i-1], x[i-2] are just delayed input streams; y's history is the
  // loop-carried part.
  const char *Source = R"(do i {
    init y = 0, 0;
    y = b0 * x[i] + b1 * x[i-1] + b2 * x[i-2]
        - a1 * y[i-1] - a2 * y[i-2];
    out y;
  })";
  std::cout << "biquad kernel:\n" << Source << "\n\n";

  DiagnosticEngine Diags;
  std::optional<DataflowGraph> G = compileLoop(Source, Diags);
  if (!G) {
    Diags.print(std::cerr);
    return 1;
  }

  // Make the multipliers slower than the adders, like a real FPU.
  for (NodeId N : G->nodeIds())
    if (G->node(N).Kind == OpKind::Mul)
      G->setExecTime(N, 2);

  Sdsp S = Sdsp::standard(*G);
  SdspPn Pn = buildSdspPn(S);
  RateReport Rate = analyzeRate(Pn);
  std::cout << "ops: " << Pn.Net.numTransitions()
            << " (muls take 2 cycles), storage: "
            << S.storageLocations() << " locations\n";
  std::cout << "recurrence bound: alpha* = " << Rate.CycleTime
            << " -> " << Rate.OptimalRate << " samples/cycle\n";

  std::optional<FrustumInfo> F = detectFrustum(Pn.Net);
  if (!F) {
    std::cerr << "no frustum\n";
    return 1;
  }
  SoftwarePipelineSchedule Sched = deriveSchedule(Pn, *F);
  std::vector<std::string> Names;
  for (TransitionId T : Pn.Net.transitionIds())
    Names.emplace_back(Pn.Net.transition(T).Name);
  Sched.print(std::cout, Names);

  // Run 64 samples through the VM and a textbook biquad.
  const size_t N = 64;
  const double B0 = 0.2, B1 = 0.4, B2 = 0.2, A1 = -0.6, A2 = 0.2;
  StreamMap In;
  std::vector<double> X(N), X1(N), X2(N);
  for (size_t I = 0; I < N; ++I)
    X[I] = std::sin(0.21 * static_cast<double>(I)) +
           0.3 * std::sin(1.7 * static_cast<double>(I));
  for (size_t I = 0; I < N; ++I) {
    X1[I] = I >= 1 ? X[I - 1] : 0.0;
    X2[I] = I >= 2 ? X[I - 2] : 0.0;
  }
  In["x"] = X;
  In["x-1"] = X1;
  In["x-2"] = X2;
  In["b0"] = std::vector<double>(N, B0);
  In["b1"] = std::vector<double>(N, B1);
  In["b2"] = std::vector<double>(N, B2);
  In["a1"] = std::vector<double>(N, A1);
  In["a2"] = std::vector<double>(N, A2);

  LoopProgram Program = generateLoopProgram(S, Pn, Sched);
  VmResult Got = executeLoopProgram(Program, In, N);

  double Y1 = 0.0, Y2 = 0.0, MaxErr = 0.0;
  for (size_t I = 0; I < N; ++I) {
    double Y = B0 * X[I] + B1 * X1[I] + B2 * X2[I] - A1 * Y1 - A2 * Y2;
    MaxErr = std::max(MaxErr, std::fabs(Got.Outputs.at("y")[I] - Y));
    Y2 = Y1;
    Y1 = Y;
  }
  std::cout << "\nVM ran " << N << " samples in " << Got.Cycles
            << " cycles; max |error| vs textbook biquad = " << MaxErr
            << "\n";
  if (MaxErr > 1e-12) {
    std::cerr << "MISMATCH\n";
    return 1;
  }
  std::cout << "bit-exact.  Steady throughput: one sample every "
            << Sched.initiationInterval() << " cycles.\n";
  return 0;
}
