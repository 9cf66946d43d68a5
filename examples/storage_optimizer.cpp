//===- examples/storage_optimizer.cpp - Section 6 on your loop -------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
//
// Minimum storage allocation (Section 6): acknowledgement arcs on
// non-critical cycles are retargeted to cover chains, shrinking the
// loop's buffer count while the critical cycle keeps the computation
// rate.  Prints the before/after acknowledgement structure for the
// paper's L2 or a kernel named on the command line.
//
//   $ ./storage_optimizer
//   $ ./storage_optimizer loop7
//
//===----------------------------------------------------------------------===//

#include "core/Frustum.h"
#include "core/SdspPn.h"
#include "core/StorageOptimizer.h"
#include "livermore/Livermore.h"
#include "loopir/Lowering.h"

#include <iostream>

using namespace sdsp;

namespace {

void printAcks(const Sdsp &S) {
  const DataflowGraph &G = S.graph();
  for (Sdsp::AckView A : S.acks()) {
    std::cout << "  ack " << G.node(G.arc(A.Path.back()).To).Name
              << " -> " << G.node(G.arc(A.Path.front()).From).Name
              << " covering";
    for (ArcId Arc : A.Path)
      std::cout << " [" << G.node(G.arc(Arc).From).Name << "->"
                << G.node(G.arc(Arc).To).Name << "]";
    std::cout << " slots=" << A.Slots << "\n";
  }
}

} // namespace

int main(int argc, char **argv) {
  std::string Id = argc > 1 ? argv[1] : "l2";
  const LivermoreKernel *K = findKernel(Id);
  if (!K) {
    std::cerr << "unknown kernel '" << Id << "'\n";
    return 1;
  }
  std::cout << "kernel: " << K->Name << "\n" << K->Source << "\n\n";

  DiagnosticEngine Diags;
  std::optional<DataflowGraph> G = compileLoop(K->Source, Diags);
  if (!G) {
    Diags.print(std::cerr);
    return 1;
  }

  Sdsp S = Sdsp::standard(*G);
  std::cout << "standard acknowledgement structure ("
            << S.storageLocations() << " locations):\n";
  printAcks(S);

  StorageOptResult R = minimizeStorage(S);
  std::cout << "\noptimized structure (" << R.StorageAfter
            << " locations, rate " << R.OptimalRate << " preserved):\n";
  printAcks(R.Optimized);

  // Demonstrate the optimized loop still pipelines at the same rate.
  SdspPn Pn = buildSdspPn(R.Optimized);
  std::optional<FrustumInfo> F = detectFrustum(Pn.Net);
  if (!F) {
    std::cerr << "no frustum after optimization -- bug\n";
    return 1;
  }
  std::cout << "\nfrustum of the optimized net: rate "
            << F->computationRate(TransitionId(0u)) << ", storage saved "
            << (R.StorageBefore - R.StorageAfter) << " of "
            << R.StorageBefore << " locations\n";
  return 0;
}
