//===- bench/HashThroughput.cpp - Content hashing cost --------------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
//
// What content hashing (support/HashStream.h) costs a compile request.
// Every pass keys and publishes its artifact by a content hash, so the
// hasher's speed is a tax on every request.
//
// It prints the hasher alone (ns per word fed one at a time and in
// bulk; GB/s over a 1 MB document, against byte-serial FNV-1a, the text
// hash the block hasher replaced), then the content hash of each
// artifact one loop7 x1024 capacity-2 compile publishes (the
// unrolled-verify request shape), medians of 31 runs.  docs/PERF.md
// records the numbers.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "codegen/LoopProgram.h"
#include "core/ArtifactHash.h"
#include "core/Session.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <iomanip>
#include <random>
#include <string>
#include <vector>

using namespace sdsp;

namespace {

/// Byte-serial FNV-1a: the baseline the block hasher is measured
/// against.
uint64_t fnv1a(std::string_view S) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (unsigned char C : S)
    H = (H ^ C) * 0x100000001b3ULL;
  return H;
}

/// \p Bytes of printable pseudo-random text.
std::string document(size_t Bytes) {
  std::mt19937_64 Rng(7);
  std::string S(Bytes, ' ');
  for (char &C : S)
    C = static_cast<char>(' ' + Rng() % 95);
  return S;
}

/// Median wall time of \p Reps calls of \p F, in seconds.
double medianSeconds(const std::function<void()> &F, int Reps = 31) {
  std::vector<double> T;
  for (int I = 0; I < Reps; ++I) {
    auto T0 = std::chrono::steady_clock::now();
    F();
    T.push_back(std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - T0)
                    .count());
  }
  std::nth_element(T.begin(), T.begin() + Reps / 2, T.end());
  return T[Reps / 2];
}

/// Keeps a hash from being optimized away.
void keep(uint64_t H) { benchmark::DoNotOptimize(H); }

/// The artifacts one compile publishes, in pass order.
struct Compile {
  std::string Source;
  ArtifactRef<DataflowGraph> Lowered;
  ArtifactRef<TransformedGraph> Transformed;
  ArtifactRef<SdspArtifact> Sdsp;
  ArtifactRef<SdspPn> Pn;
  ArtifactRef<RateReport> Rate;
  ArtifactRef<FrustumInfo> Frustum;
  ArtifactRef<SoftwarePipelineSchedule> Schedule;
  ArtifactRef<LoopProgram> Program;

  /// One named content hash the session computes for this compile.
  struct Hash {
    const char *Pass;
    std::function<uint64_t()> Run;
  };

  /// What the session hashes: the lower key, each artifact once, and
  /// the transformed graph the transform pass hashes for its artifact.
  std::vector<Hash> hashes() const {
    return {
        {"lower key", [this] { return artifactHash(Source); }},
        {"lower", [this] { return artifactHash(*Lowered); }},
        {"transform", [this] {
           return artifactHash(Transformed->Graph) ^
                  artifactHash(*Transformed);
         }},
        {"sdsp", [this] { return artifactHash(*Sdsp); }},
        {"sdsp-pn", [this] { return artifactHash(*Pn); }},
        {"rate", [this] { return artifactHash(*Rate); }},
        {"frustum", [this] { return artifactHash(*Frustum); }},
        {"schedule", [this] { return artifactHash(*Schedule); }},
        {"codegen", [this] { return artifactHash(*Program); }},
    };
  }
};

Compile compileLoop7(uint32_t Unroll, uint32_t Capacity) {
  CompilationSession S;
  Compile C;
  C.Source = findKernel("loop7")->Source;
  C.Lowered = SDSP_EXPECT_OK(S.lower(C.Source));
  C.Transformed = SDSP_EXPECT_OK(S.transform(C.Lowered, false, Unroll));
  C.Sdsp = SDSP_EXPECT_OK(
      S.buildSdsp(S.transformedGraph(C.Transformed), Capacity, false));
  C.Pn = SDSP_EXPECT_OK(S.buildPn(C.Sdsp));
  C.Rate = SDSP_EXPECT_OK(S.computeRate(C.Pn));
  C.Frustum = SDSP_EXPECT_OK(S.searchFrustum(C.Pn, FrustumOptions{}));
  C.Schedule = SDSP_EXPECT_OK(S.deriveSchedule(
      C.Sdsp, C.Pn, C.Frustum, PipelineOptions{}.ValidateIterations));
  C.Program =
      SDSP_EXPECT_OK(S.generateProgram(C.Sdsp, C.Pn, C.Schedule));
  return C;
}

void printHashing(std::ostream &OS) {
  OS << "=== Content hashing (support/HashStream.h) ===\n\n";
  constexpr size_t Words = 1 << 20;
  std::vector<uint32_t> Values(2 * Words);
  for (size_t I = 0; I < Values.size(); ++I)
    Values[I] = static_cast<uint32_t>(I * 2654435761u);
  double OneAtATime = medianSeconds([&] {
    HashStream HS(1);
    for (size_t I = 0; I < Words; ++I)
      HS.u64(Values[I]);
    keep(HS.hash());
  });
  double Bulk = medianSeconds([&] { keep(HashStream(1).u32s(Values).hash()); });
  const std::string Doc = document(1 << 20);
  double Str = medianSeconds([&] { keep(HashStream(1).str(Doc).hash()); });
  double Fnv = medianSeconds([&] { keep(fnv1a(Doc)); });
  OS << std::fixed << std::setprecision(3)
     << "u64, one word at a time:   " << OneAtATime / Words * 1e9
     << " ns/word\n"
     << "u32s, two values per word: " << Bulk / Words * 1e9 << " ns/word\n"
     << std::setprecision(2) << "str over 1 MB:             "
     << Doc.size() / Str / 1e9 << " GB/s\n"
     << "FNV-1a over 1 MB:          " << Doc.size() / Fnv / 1e9
     << " GB/s (str is " << Fnv / Str << "x faster)\n\n";

  const Compile C = compileLoop7(1024, 2);
  OS << "loop7 x1024 capacity 2, one compile's content hashes (ms):\n";
  double Total = 0;
  for (const Compile::Hash &H : C.hashes()) {
    double S = medianSeconds([&] { keep(H.Run()); });
    Total += S;
    OS << "  " << std::left << std::setw(10) << H.Pass << std::right
       << std::setprecision(3) << S * 1e3 << "\n";
  }
  OS << "  total     " << Total * 1e3 << "\n\n";
}

} // namespace

SDSP_BENCH_MAIN(printHashing)
