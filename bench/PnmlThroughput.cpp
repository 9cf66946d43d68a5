//===- bench/PnmlThroughput.cpp - PNML import cost ------------------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
//
// What reading a PNML document (petri/Pnml.h) and classifying the net
// it holds cost an import request.  External nets reach the rate and
// frustum analyses only through parsePnml, so its speed is a tax on
// every import.
//
// The inputs are generated in-process: the canonical exports of the
// SDSP-PNs of loop7, loop9lcd, l2, loop1 and loop12 at unroll 8 to 128
// (the 25 documents of a perfbench pnml-import block), and one-token
// rings of 16,384 and 65,536 transitions (the hostile-input shape:
// one large valid document).  Each round parses and classifies every
// document once, in turn; the figures are medians over the rounds.
// docs/PERF.md records the numbers.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/Session.h"
#include "petri/Pnml.h"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <string>
#include <vector>

using namespace sdsp;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

double median(std::vector<double> V) {
  std::nth_element(V.begin(), V.begin() + V.size() / 2, V.end());
  return V[V.size() / 2];
}

struct Document {
  std::string Name;
  std::string Text;
  std::vector<double> Parse, Classify;
};

/// The canonical export of \p Kernel's SDSP-PN unrolled \p Unroll times.
std::string kernelExport(const std::string &Kernel, uint32_t Unroll) {
  CompilationSession S(SessionConfig{false});
  PipelineOptions Opts;
  Opts.Unroll = Unroll;
  Opts.StopAfter = PipelineStage::Petri;
  CompiledLoop CL = SDSP_EXPECT_OK(S.compile(findKernel(Kernel)->Source, Opts));
  return pnmlString(CL.Pn->Net, "sdsp_pn");
}

/// A ring of \p N transitions and N places holding one token.
std::string oneTokenRing(size_t N) {
  PetriNetBuilder B;
  for (size_t I = 0; I < N; ++I)
    B.addPlace("p" + std::to_string(I), I + 1 == N ? 1 : 0);
  for (size_t I = 0; I < N; ++I)
    B.addTransition("t" + std::to_string(I), 1);
  for (size_t I = 0; I < N; ++I) {
    B.addArc(PlaceId((I + N - 1) % N), TransitionId(I));
    B.addArc(TransitionId(I), PlaceId(I));
  }
  return pnmlString(B.build(), "ring");
}

/// Parses and classifies every document once per round, \p Rounds
/// times.
void measure(std::vector<Document> &Docs, int Rounds) {
  for (int R = 0; R < Rounds; ++R)
    for (Document &D : Docs) {
      Clock::time_point T0 = Clock::now();
      PnmlNet N = SDSP_EXPECT_OK(parsePnml(D.Text));
      D.Parse.push_back(secondsSince(T0));
      T0 = Clock::now();
      NetClassification C = SDSP_EXPECT_OK(classifyNet(N.Net));
      D.Classify.push_back(secondsSince(T0));
      benchmark::DoNotOptimize(C);
    }
}

void printPnml(std::ostream &OS) {
  OS << "=== PNML import (petri/Pnml.h) ===\n\n";
  std::vector<Document> Block;
  for (const char *K : {"loop7", "loop9lcd", "l2", "loop1", "loop12"})
    for (uint32_t U : {8u, 16u, 32u, 64u, 128u})
      Block.push_back(
          {std::string(K) + " x" + std::to_string(U), kernelExport(K, U), {},
           {}});
  measure(Block, 31);
  double Bytes = 0, Parse = 0, Classify = 0;
  OS << "kernel exports, medians of 31 rounds:\n"
     << "  document        KB   parse ms    MB/s  classify ms\n";
  for (const Document &D : Block) {
    double P = median(D.Parse), C = median(D.Classify);
    Bytes += D.Text.size();
    Parse += P;
    Classify += C;
    OS << "  " << std::left << std::setw(12) << D.Name << std::right
       << std::fixed << std::setprecision(1) << std::setw(7)
       << D.Text.size() / 1e3 << std::setprecision(3) << std::setw(11)
       << P * 1e3 << std::setprecision(0) << std::setw(8)
       << D.Text.size() / P / 1e6 << std::setprecision(3) << std::setw(13)
       << C * 1e3 << "\n";
  }
  OS << std::setprecision(2) << "  block: " << Bytes / 1e6 << " MB, parse "
     << Parse * 1e3 << " ms (" << std::setprecision(0) << Bytes / Parse / 1e6
     << " MB/s), classify " << std::setprecision(2) << Classify * 1e3
     << " ms\n\n";

  std::vector<Document> Rings;
  for (size_t N : {16384u, 65536u})
    Rings.push_back({"ring " + std::to_string(N), oneTokenRing(N), {}, {}});
  measure(Rings, 5);
  OS << "one-token rings, medians of 5 rounds:\n";
  for (const Document &D : Rings) {
    double P = median(D.Parse);
    OS << "  " << std::left << std::setw(11) << D.Name << std::right
       << std::setprecision(2) << std::setw(6) << D.Text.size() / 1e6
       << " MB: parse " << P * 1e3 << " ms (" << std::setprecision(0)
       << D.Text.size() / P / 1e6 << " MB/s), classify "
       << std::setprecision(2) << median(D.Classify) * 1e3 << " ms\n";
  }
  OS << "\n";
}

} // namespace

SDSP_BENCH_MAIN(printPnml)
