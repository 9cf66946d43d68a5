//===- bench/PipelineVerify.cpp - Verified end-to-end pipeline timing ------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
//
// Times the guarded pipeline (frontend -> SDSP-PN -> frustum ->
// schedule) with verifyCompiledLoop() enabled, on the six Livermore
// kernels of Section 5.  This is the end-to-end series recorded in
// BENCH_pipeline.json: the fast-path engine must speed up frustum
// detection without costing anything in the surrounding stages, and the
// verified run proves each timed iteration still passes the cross-stage
// oracles (liveness, rate, schedule replay).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/Pipeline.h"
#include "support/TextTable.h"

using namespace sdsp;
using namespace sdsp::benchutil;

namespace {

PipelineOptions verifiedOptions() {
  PipelineOptions Opts;
  Opts.Verify = true;
  return Opts;
}

void printVerified(std::ostream &OS) {
  OS << "=== Verified pipeline on the Section 5 Livermore kernels ===\n\n";
  TextTable T;
  T.startRow();
  for (const char *H :
       {"kernel", "n (transitions)", "start", "repeat", "rate", "verified"})
    T.cell(H);
  for (const std::string &Id : livermoreIds()) {
    DataflowGraph G = compileKernel(Id);
    auto CL = runPipeline(std::move(G), verifiedOptions());
    T.startRow();
    T.cell(Id);
    if (!CL) {
      T.cell(CL.status().message());
      continue;
    }
    T.cell(CL->Pn->Net.numTransitions());
    T.cell(static_cast<int64_t>(CL->Frustum->StartTime));
    T.cell(static_cast<int64_t>(CL->Frustum->RepeatTime));
    T.cell(CL->Rate->OptimalRate.str());
    T.cell(CL->Verified ? "yes" : "NO");
  }
  T.print(OS);
  OS << "\n";
}

void benchPipelineVerify(benchmark::State &State, const std::string &Id) {
  DataflowGraph G = compileKernel(Id);
  PipelineOptions Opts = verifiedOptions();
  for (auto _ : State) {
    DataflowGraph Copy = G;
    auto CL = runPipeline(std::move(Copy), Opts);
    if (!CL) {
      State.SkipWithError(CL.status().message().c_str());
      return;
    }
    benchmark::DoNotOptimize(CL);
  }
}

} // namespace

// Each kernel runs for at least half a second, whatever
// --benchmark_min_time says: the per-kernel shares that
// `benchreport.py --compare` holds to 25% are ratios of these arms, and
// at CI's 0.05 s the smallest (loop12, about 30 us) read three times
// its committed share on a loaded host.  Their names gain
// "/min_time:0.500".
BENCHMARK_CAPTURE(benchPipelineVerify, loop1, std::string("loop1"))
    ->MinTime(0.5);
BENCHMARK_CAPTURE(benchPipelineVerify, loop7, std::string("loop7"))
    ->MinTime(0.5);
BENCHMARK_CAPTURE(benchPipelineVerify, loop12, std::string("loop12"))
    ->MinTime(0.5);
BENCHMARK_CAPTURE(benchPipelineVerify, loop3, std::string("loop3"))
    ->MinTime(0.5);
BENCHMARK_CAPTURE(benchPipelineVerify, loop5, std::string("loop5"))
    ->MinTime(0.5);
BENCHMARK_CAPTURE(benchPipelineVerify, loop9lcd, std::string("loop9lcd"))
    ->MinTime(0.5);

SDSP_BENCH_MAIN(printVerified)
