//===- examples/livermore_tour.cpp - Schedule every benchmark kernel -------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
//
// Runs the whole paper pipeline over each bundled kernel (or one named
// on the command line), prints its schedule, and checks the computed
// values against the plain-C++ reference implementation.
//
//   $ ./livermore_tour           # all kernels
//   $ ./livermore_tour loop5     # just one
//
//===----------------------------------------------------------------------===//

#include "core/Session.h"
#include "dataflow/Interpreter.h"
#include "livermore/Livermore.h"

#include <cmath>
#include <iostream>

using namespace sdsp;

namespace {

bool runKernel(CompilationSession &Session, const LivermoreKernel &K) {
  std::cout << "==== " << K.Name << " ====\n";
  PipelineOptions Opts;
  Opts.ValidateIterations = 96;
  DiagnosticEngine Diags;
  Expected<CompiledLoop> Compiled = Session.compile(K.Source, Opts, &Diags);
  if (!Compiled) {
    if (Diags.hasErrors())
      Diags.print(std::cerr);
    else
      std::cerr << Compiled.status().str() << "\n";
    return false;
  }
  const CompiledLoop &CL = *Compiled;
  const SdspPn &Pn = *CL.Pn;
  const FrustumInfo &F = *CL.Frustum;

  std::cout << "n = " << Pn.Net.numTransitions() << ", frustum ["
            << F.StartTime << ", " << F.RepeatTime << "), rate "
            << F.computationRate(TransitionId(0u)) << " (optimal "
            << CL.Rate->OptimalRate << ")\n";

  std::vector<std::string> Names;
  for (TransitionId T : Pn.Net.transitionIds())
    Names.emplace_back(Pn.Net.transition(T).Name);
  CL.Schedule->print(std::cout, Names);

  // Semantic check: interpreter vs reference on random inputs.
  const size_t N = 48;
  StreamMap In = K.MakeInputs(N, 2026);
  StreamMap Expected = K.Reference(In, N);
  InterpResult Got = interpret(CL.Graph, In, N);
  for (const auto &[Name, Values] : Expected) {
    for (size_t I = 0; I < Values.size(); ++I) {
      double Diff = std::fabs(Got.Outputs.at(Name)[I] - Values[I]);
      if (Diff > 1e-9 * (1.0 + std::fabs(Values[I]))) {
        std::cerr << "VALUE MISMATCH at " << Name << "[" << I << "]\n";
        return false;
      }
    }
  }
  std::cout << "values match the reference implementation over " << N
            << " iterations\n\n";
  return true;
}

} // namespace

int main(int argc, char **argv) {
  // One session across every kernel: distinct sources share nothing,
  // but reruns of the same kernel are free (see the trailing trace).
  CompilationSession Session;
  bool AllOk = true;
  if (argc > 1) {
    const LivermoreKernel *K = findKernel(argv[1]);
    if (!K) {
      std::cerr << "unknown kernel '" << argv[1] << "'; known:";
      for (const LivermoreKernel &Known : livermoreKernels())
        std::cerr << " " << Known.Id;
      std::cerr << "\n";
      return 1;
    }
    AllOk = runKernel(Session, *K);
  } else {
    for (const LivermoreKernel &K : livermoreKernels())
      AllOk &= runKernel(Session, K);
  }
  Session.trace().printTable(std::cout);
  return AllOk ? 0 : 1;
}
