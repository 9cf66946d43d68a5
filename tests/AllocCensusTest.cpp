//===- tests/AllocCensusTest.cpp - Allocations per pass stay constant -----===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
//
// Counts global operator new calls per pass on loop7 at capacity 1,
// unrolled 16 and 256 times.  The transform, sdsp, rate, schedule and
// codegen passes store their artifacts flat (records, compressed-sparse-
// row lists and arenas), and copying a graph, SDSP or schedule into a
// CompiledLoop costs a constant number of allocations, so each count may
// grow by only a small constant between the two sizes.  loop7's frustum
// trace has the same 12 steps at both sizes, so the frustum copy does
// not grow either.  On the SCP machine (--scp=2) the trace grows with
// the unroll factor; it is stored flat, so a compile, and a second
// compile that every pass answers from the cache, again differ by only
// a small constant between x16 and x64.  Verify is never cached, so an
// ideal-machine compile that every pass answers from the cache still
// runs it: its allocations, the difference with verify off, stay the
// same few at every size.
//
// This binary replaces the global allocation functions to count calls;
// no other test binary does.
//
//===----------------------------------------------------------------------===//

#include "core/Session.h"
#include "livermore/Livermore.h"

#include "gtest/gtest.h"

#include <atomic>
#include <cstdlib>
#include <new>

using namespace sdsp;

namespace {

std::atomic<uint64_t> Allocations{0};

void *allocate(size_t Size) {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

void *allocateAligned(size_t Size, std::align_val_t Align) {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  size_t A = static_cast<size_t>(Align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  if (void *P = std::aligned_alloc(A, (Size + A - 1) / A * A))
    return P;
  throw std::bad_alloc();
}

} // namespace

// Every replaceable form, so no allocation bypasses the count and every
// block is freed by the function family that allocated it.
void *operator new(size_t Size) { return allocate(Size); }
void *operator new[](size_t Size) { return allocate(Size); }
void *operator new(size_t Size, const std::nothrow_t &) noexcept {
  try {
    return allocate(Size);
  } catch (...) {
    return nullptr;
  }
}
void *operator new[](size_t Size, const std::nothrow_t &) noexcept {
  try {
    return allocate(Size);
  } catch (...) {
    return nullptr;
  }
}
void *operator new(size_t Size, std::align_val_t Align) {
  return allocateAligned(Size, Align);
}
void *operator new[](size_t Size, std::align_val_t Align) {
  return allocateAligned(Size, Align);
}
void *operator new(size_t Size, std::align_val_t Align,
                   const std::nothrow_t &) noexcept {
  try {
    return allocateAligned(Size, Align);
  } catch (...) {
    return nullptr;
  }
}
void *operator new[](size_t Size, std::align_val_t Align,
                     const std::nothrow_t &) noexcept {
  try {
    return allocateAligned(Size, Align);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, size_t) noexcept { std::free(P); }
void operator delete[](void *P, size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete(void *P, std::align_val_t,
                     const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::align_val_t,
                       const std::nothrow_t &) noexcept {
  std::free(P);
}

namespace {

/// operator new calls per measured step of one loop7 compile.
struct Census {
  uint64_t Transform = 0;
  uint64_t Sdsp = 0;
  uint64_t Rate = 0;
  uint64_t Schedule = 0;
  uint64_t Codegen = 0;
  /// Copying the graph, SDSP, SDSP-PN, rate report, frustum and
  /// schedule into a CompiledLoop, as perfbench assembles one.
  uint64_t Copies = 0;
  /// A fresh session's compile() with verify, then the codegen pass.
  uint64_t Compile = 0;
};

/// Runs \p Step and adds its operator new calls to \p Count.
template <typename Fn> auto counted(uint64_t &Count, Fn Step) {
  uint64_t Before = Allocations.load(std::memory_order_relaxed);
  auto Result = Step();
  Count += Allocations.load(std::memory_order_relaxed) - Before;
  return Result;
}

/// Sessions as a service request runs them: a fresh session interning
/// into its own memory store, whatever SDSP_DISABLE_ARTIFACT_CACHE says.
SessionConfig requestConfig() {
  SessionConfig Config;
  Config.EnableCache = true;
  return Config;
}

Census census(uint32_t Unroll) {
  const std::string &Source = findKernel("loop7")->Source;
  Census C;
  {
    CompilationSession S(requestConfig());
    auto G = S.lower(Source);
    EXPECT_TRUE(G);
    auto T =
        counted(C.Transform, [&] { return S.transform(*G, false, Unroll); });
    EXPECT_TRUE(T);
    ArtifactRef<DataflowGraph> Graph = S.transformedGraph(*T);
    auto Sd = counted(C.Sdsp, [&] { return S.buildSdsp(Graph, 1, false); });
    EXPECT_TRUE(Sd);
    auto Pn = S.buildPn(*Sd);
    EXPECT_TRUE(Pn);
    auto Rate = counted(C.Rate,
                        [&] { return S.computeRate(*Pn, RateEngine::Auto); });
    EXPECT_TRUE(Rate);
    auto F = S.searchFrustum(*Pn, FrustumOptions{});
    EXPECT_TRUE(F);
    auto Sched = counted(
        C.Schedule, [&] { return S.deriveSchedule(*Sd, *Pn, *F, 64); });
    EXPECT_TRUE(Sched);
    auto P = counted(C.Codegen,
                     [&] { return S.generateProgram(*Sd, *Pn, *Sched); });
    EXPECT_TRUE(P);

    CompiledLoop CL;
    counted(C.Copies, [&] {
      CL.Graph = *Graph;
      CL.S = (*Sd)->S;
      CL.Pn = **Pn;
      CL.Rate = **Rate;
      CL.Frustum = **F;
      CL.Schedule = **Sched;
      return true;
    });
  }
  counted(C.Compile, [&] {
    CompilationSession S(requestConfig());
    PipelineOptions O;
    O.Unroll = Unroll;
    O.Verify = true;
    Expected<CompiledLoop> CL = S.compile(Source, O);
    EXPECT_TRUE(CL) << CL.status().message();
    // The codegen pass after compile(), through the session as sdspc's
    // --emit=program path runs it: every input is a cache hit.
    auto G = S.lower(Source);
    auto T = S.transform(*G, false, Unroll);
    auto Sd = S.buildSdsp(S.transformedGraph(*T), 1, false);
    auto Pn = S.buildPn(*Sd);
    auto F = S.searchFrustum(*Pn, FrustumOptions{});
    auto Sched = S.deriveSchedule(*Sd, *Pn, *F, O.ValidateIterations);
    auto P = S.generateProgram(*Sd, *Pn, *Sched);
    EXPECT_TRUE(P);
    return true;
  });
  return C;
}

/// How many more operator new calls the larger size may make.  What
/// still grows with the unroll factor is vectors doubling as they fill:
/// a handful per pass, and across a whole compile also the frustum
/// engine's and the verify checks' working arrays.
constexpr uint64_t PassSlack = 32;
constexpr uint64_t CompileSlack = 128;

TEST(AllocCensus, PassesAllocateAConstantNumberOfTimes) {
  Census Small = census(16);
  Census Large = census(256);
  auto Check = [&](const char *What, uint64_t S, uint64_t L,
                   uint64_t Slack) {
    EXPECT_LE(L, S + Slack) << What << ": " << S << " allocations at x16, "
                            << L << " at x256";
  };
  Check("transform", Small.Transform, Large.Transform, PassSlack);
  Check("sdsp", Small.Sdsp, Large.Sdsp, PassSlack);
  Check("rate", Small.Rate, Large.Rate, PassSlack);
  Check("schedule", Small.Schedule, Large.Schedule, PassSlack);
  Check("codegen", Small.Codegen, Large.Codegen, PassSlack);
  Check("CompiledLoop copies", Small.Copies, Large.Copies, PassSlack);
  Check("compile with verify and codegen", Small.Compile, Large.Compile,
        CompileSlack);
}

/// operator new calls of one loop7 --scp=2 compile in a fresh session,
/// and of the same compile again, which every pass answers from the
/// session's cache.
struct ScpCensus {
  uint64_t Compile = 0;
  uint64_t CacheHit = 0;
};

ScpCensus scpCensus(uint32_t Unroll) {
  const std::string &Source = findKernel("loop7")->Source;
  ScpCensus C;
  CompilationSession S(requestConfig());
  PipelineOptions O;
  O.Unroll = Unroll;
  O.ScpDepth = 2;
  for (uint64_t *Count : {&C.Compile, &C.CacheHit})
    counted(*Count, [&] {
      Expected<CompiledLoop> CL = S.compile(Source, O);
      EXPECT_TRUE(CL) << CL.status().message();
      return true;
    });
  return C;
}

TEST(AllocCensus, ScpCompilesAllocateAConstantNumberOfTimes) {
  ScpCensus Small = scpCensus(16);
  ScpCensus Large = scpCensus(64);
  EXPECT_LE(Large.Compile, Small.Compile + CompileSlack)
      << Small.Compile << " allocations at x16, " << Large.Compile
      << " at x64";
  EXPECT_LE(Large.CacheHit, Small.CacheHit + PassSlack)
      << Small.CacheHit << " allocations at x16, " << Large.CacheHit
      << " at x64";
}

/// operator new calls of verify in a loop7 compile that every pass
/// answers from the session's cache: the all-hit compile with verify on,
/// less the same compile with it off.
uint64_t cacheHitVerifyAllocations(uint32_t Unroll) {
  const std::string &Source = findKernel("loop7")->Source;
  CompilationSession S(requestConfig());
  PipelineOptions O;
  O.Unroll = Unroll;
  O.Verify = true;
  EXPECT_TRUE(S.compile(Source, O));
  uint64_t On = 0, Off = 0;
  for (bool Verify : {false, true})
    counted(Verify ? On : Off, [&] {
      O.Verify = Verify;
      Expected<CompiledLoop> CL = S.compile(Source, O);
      EXPECT_TRUE(CL) << CL.status().message();
      return true;
    });
  return On - Off;
}

TEST(AllocCensus, CacheHitVerifyAllocatesAConstantNumberOfTimes) {
  uint64_t X1 = cacheHitVerifyAllocations(1);
  uint64_t X16 = cacheHitVerifyAllocations(16);
  uint64_t X64 = cacheHitVerifyAllocations(64);
  EXPECT_LE(X1, 8u) << "verify allocations at x1";
  EXPECT_EQ(X16, X1) << X1 << " verify allocations at x1, " << X16
                     << " at x16";
  EXPECT_EQ(X64, X1) << X1 << " verify allocations at x1, " << X64
                     << " at x64";
}

} // namespace
