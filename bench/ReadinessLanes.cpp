//===- bench/ReadinessLanes.cpp - Zero-lane kernels ------------------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
//
// A dense unit-time instant re-derives the engine's enabled set from
// its readiness counters, 64 lanes to a word (petri/EngineLayout.h).
// This measures the two forms of that kernel on the same counters:
// zeroLanes(), four lanes a step with SSE2, against zeroLanesScalar(),
// the plain loop.  The word counts are the n ~= 2048 gate family's (33
// words) and the 65,536-transition scale's (1,024); half the lanes
// read zero.  docs/PERF.md records the numbers.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "petri/EngineLayout.h"

#include <ostream>
#include <random>
#include <vector>

using namespace sdsp;

namespace {

std::vector<uint32_t> readinessLanes(size_t Words) {
  std::mt19937 R(7);
  std::vector<uint32_t> Lanes(Words * 64);
  for (uint32_t &L : Lanes)
    L = R() & 1 ? 0 : 1 + R() % 3;
  return Lanes;
}

template <uint64_t (*Kernel)(const uint32_t *)>
void benchZeroLanes(benchmark::State &State) {
  size_t Words = static_cast<size_t>(State.range(0));
  std::vector<uint32_t> Lanes = readinessLanes(Words);
  for (auto _ : State) {
    uint64_t Any = 0;
    for (size_t W = 0; W < Words; ++W)
      Any += Kernel(Lanes.data() + W * 64);
    benchmark::DoNotOptimize(Any);
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations() * Words));
}

void printLanes(std::ostream &OS) {
  OS << "=== Readiness lanes: zeroLanes (SSE2) vs zeroLanesScalar ===\n"
        "items/s below are 64-lane words.\n\n";
}

} // namespace

BENCHMARK(benchZeroLanes<zeroLanes>)
    ->Name("benchZeroLanes")
    ->Arg(33)
    ->Arg(1024);
BENCHMARK(benchZeroLanes<zeroLanesScalar>)
    ->Name("benchZeroLanesScalar")
    ->Arg(33)
    ->Arg(1024);

SDSP_BENCH_MAIN(printLanes)
