//===- bench/AblationCycleRatio.cpp - Cycle-ratio algorithm ablation -------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
//
// Appendix A.7 notes that enumerating simple cycles can be exponential
// (Magott) and that a polynomial formulation exists.  This ablation
// compares our two critical-cycle engines — Johnson enumeration vs
// Lawler parametric search — for agreement and for runtime as graphs
// grow dense.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "petri/CycleRatio.h"
#include "support/Random.h"
#include "support/TextTable.h"

using namespace sdsp;
using namespace sdsp::benchutil;

namespace {

/// Random SDSP-shaped marked graph: DAG spine plus chords, data/ack
/// pairs (mirrors tests/TestUtil.h, duplicated to keep bench inputs
/// stable even if tests change).
PetriNet buildPairGraph(Rng &R, size_t N, size_t Chords) {
  PetriNetBuilder NB;
  std::vector<TransitionId> Ts;
  for (size_t I = 0; I < N; ++I)
    Ts.push_back(NB.addTransition("t" + std::to_string(I),
                                  static_cast<TimeUnits>(1 + R.range(0, 3))));
  auto AddPair = [&](size_t U, size_t V) {
    PlaceId Data = NB.addPlace("d", 0);
    NB.addArc(Ts[U], Data);
    NB.addArc(Data, Ts[V]);
    PlaceId Ack = NB.addPlace("a", 1 + static_cast<uint32_t>(R.range(0, 1)));
    NB.addArc(Ts[V], Ack);
    NB.addArc(Ack, Ts[U]);
  };
  for (size_t I = 0; I + 1 < N; ++I)
    AddPair(I, I + 1);
  for (size_t C = 0; C < Chords; ++C) {
    size_t U = static_cast<size_t>(R.range(0, static_cast<int64_t>(N) - 2));
    size_t V = static_cast<size_t>(
        R.range(static_cast<int64_t>(U) + 1, static_cast<int64_t>(N) - 1));
    AddPair(U, V);
  }
  return NB.build();
}

void printAgreement(std::ostream &OS) {
  OS << "=== Ablation: critical-cycle algorithms ===\n\n";
  TextTable T;
  T.startRow();
  for (const char *H : {"n", "chords", "simple cycles", "alpha* (enum)",
                        "alpha* (parametric)", "agree"})
    T.cell(H);

  Rng R(1991);
  for (size_t N : {6u, 10u, 14u, 18u, 22u}) {
    for (size_t Chords : {N / 2, N}) {
      PetriNet Net = buildPairGraph(R, N, Chords);
      MarkedGraphView View(Net);
      std::vector<SimpleCycle> Cycles = enumerateSimpleCycles(View);
      auto E = criticalCycleByEnumeration(View);
      auto P = criticalCycleByParametricSearch(View);
      T.startRow();
      T.cell(N);
      T.cell(Chords);
      T.cell(Cycles.size());
      T.cell(E ? E->CycleTime.str() : "-");
      T.cell(P ? P->CycleTime.str() : "-");
      T.cell(E && P && E->CycleTime == P->CycleTime ? "yes" : "NO");
    }
  }
  T.print(OS);
  OS << "\nThe cycle count grows quickly with chord density; the\n"
        "parametric search stays polynomial (see timings below).\n\n";
}

void benchEnumeration(benchmark::State &State) {
  Rng R(7);
  PetriNet Net = buildPairGraph(R, static_cast<size_t>(State.range(0)),
                                static_cast<size_t>(State.range(0)));
  MarkedGraphView View(Net);
  for (auto _ : State) {
    auto E = criticalCycleByEnumeration(View);
    benchmark::DoNotOptimize(E);
  }
}

void benchParametric(benchmark::State &State) {
  Rng R(7);
  PetriNet Net = buildPairGraph(R, static_cast<size_t>(State.range(0)),
                                static_cast<size_t>(State.range(0)));
  MarkedGraphView View(Net);
  for (auto _ : State) {
    auto P = criticalCycleByParametricSearch(View);
    benchmark::DoNotOptimize(P);
  }
}

} // namespace

BENCHMARK(benchEnumeration)->Arg(8)->Arg(12)->Arg(16)->Arg(20);
BENCHMARK(benchParametric)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

SDSP_BENCH_MAIN(printAgreement)
