//===- examples/quickstart.cpp - Five-minute tour of the API ---------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
//
// Quickstart: write a loop in the loop language, then walk it through
// a CompilationSession pass by pass — lower to a dataflow graph, build
// the SDSP-PN, detect the cyclic frustum under the earliest firing
// rule, and print the time-optimal software pipeline it encodes.
// Every pass hands back an immutable, content-hashed artifact; rerun a
// pass with the same inputs and the session answers from its cache.
//
//   $ ./quickstart
//
//===----------------------------------------------------------------------===//

#include "core/Session.h"

#include <iostream>

using namespace sdsp;

int main() {
  // 1. A loop with a loop-carried dependence (the paper's L2).
  const char *Source = R"(do i {
    init E = 0;
    A = X[i] + 5;
    B = Y[i] + A;
    C = A + E[i-1];
    D = B + C;
    E = W[i] + D;
    out E;
  })";
  std::cout << "loop:\n" << Source << "\n\n";

  // 2. A compilation session: typed passes over content-hashed
  //    artifacts, with an artifact cache and per-pass instrumentation.
  CompilationSession Session;

  // 3. Lower pass: source -> validated dataflow graph.
  DiagnosticEngine Diags;
  Expected<ArtifactRef<DataflowGraph>> G = Session.lower(Source, &Diags);
  if (!G) {
    Diags.print(std::cerr);
    return 1;
  }
  std::cout << "dataflow graph: " << (*G)->numNodes() << " nodes, "
            << (*G)->numArcs() << " arcs, loop-carried dependence: "
            << ((*G)->hasLoopCarriedDependence() ? "yes" : "no")
            << " (content hash " << std::hex << G->hash() << std::dec
            << ")\n";

  // 4. SDSP construction (acknowledgement arcs) and Petri-net
  //    translation, each a cached pass.
  Expected<ArtifactRef<SdspArtifact>> S =
      Session.buildSdsp(*G, /*Capacity=*/1, /*OptimizeStorage=*/false);
  if (!S) {
    std::cerr << S.status().str() << "\n";
    return 1;
  }
  Expected<ArtifactRef<SdspPn>> Pn = Session.buildPn(*S);
  if (!Pn) {
    std::cerr << Pn.status().str() << "\n";
    return 1;
  }
  std::cout << "SDSP-PN: " << (*Pn)->Net.numTransitions()
            << " transitions, " << (*Pn)->Net.numPlaces() << " places, "
            << (*S)->S.storageLocations() << " storage locations\n";

  // 5. Static rate analysis: the critical cycle bounds the rate.
  Expected<ArtifactRef<RateReport>> Rate = Session.computeRate(*Pn);
  if (!Rate) {
    std::cerr << Rate.status().str() << "\n";
    return 1;
  }
  std::cout << "critical cycle time alpha* = " << (*Rate)->CycleTime
            << ", optimal rate = " << (*Rate)->OptimalRate
            << " iterations/cycle\n";

  // 6. Execute under the earliest firing rule until an instantaneous
  //    state repeats: the cyclic frustum.
  Expected<ArtifactRef<FrustumInfo>> F =
      Session.searchFrustum(*Pn, FrustumOptions{});
  if (!F) {
    std::cerr << F.status().str() << "\n";
    return 1;
  }
  std::cout << "cyclic frustum: [" << (*F)->StartTime << ", "
            << (*F)->RepeatTime << "), length " << (*F)->length()
            << "\n\n";

  // 7. The frustum *is* the schedule: prologue + kernel.  The schedule
  //    pass replay-validates before handing the artifact back.
  Expected<ArtifactRef<SoftwarePipelineSchedule>> Sched =
      Session.deriveSchedule(*S, *Pn, *F, /*ValidateIterations=*/128);
  if (!Sched) {
    std::cerr << Sched.status().str() << "\n";
    return 1;
  }
  const SoftwarePipelineSchedule &SP = **Sched;
  std::vector<std::string> Names;
  std::vector<uint32_t> Taus;
  for (TransitionId T : (*Pn)->Net.transitionIds()) {
    Names.emplace_back((*Pn)->Net.transition(T).Name);
    Taus.push_back((*Pn)->Net.transition(T).ExecTime);
  }
  SP.print(std::cout, Names);
  std::cout << "\ntimeline (digits = iteration mod 10, | = kernel "
               "boundary):\n";
  SP.printTimeline(std::cout, Names, Taus,
                   SP.prologueEnd() + 4 * SP.kernelLength());
  std::cout << "\nrate achieved " << SP.rate() << " (optimal "
            << (*Rate)->OptimalRate << ")\n";

  // 8. Rerun the frustum pass: same inputs, same options — the session
  //    answers from its artifact cache without simulating anything.
  (void)Session.searchFrustum(*Pn, FrustumOptions{});
  std::cout << "frustum pass reran as a cache hit: "
            << (Session.passStats(PassKind::Frustum).CacheHits > 0
                    ? "yes"
                    : "no (cache disabled)")
            << "\n";
  return 0;
}
