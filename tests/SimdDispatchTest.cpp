//===- tests/SimdDispatchTest.cpp - Readiness-sweep kernel tests -----------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SIMD readiness-sweep kernels must be bit-identical across tiers:
/// every supported kernel, fed the same sentinel-padded readiness
/// lanes, must produce the same enabled-idle bitmap and popcount as the
/// scalar reference.  Also pins the dispatcher contract: the active
/// tier is always supported, a valid SDSP_SIMD override at or below the
/// host's highest tier is honored verbatim, and readinessSweep()
/// resolves to the active tier's kernel.
///
//===----------------------------------------------------------------------===//

#include "petri/SimdDispatch.h"

#include "support/Random.h"
#include "gtest/gtest.h"

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace sdsp;

namespace {

/// Builds a readiness array of \p Words 64-lane groups where each lane
/// is 0 (ready+idle) with probability ~1/\p ZeroOneIn and a nonzero
/// count otherwise; lanes at index >= \p NumTransitions get the
/// engine's sentinel 1.
std::vector<uint32_t> randomReadiness(Rng &R, size_t Words,
                                      size_t NumTransitions,
                                      uint64_t ZeroOneIn) {
  std::vector<uint32_t> Lanes(Words * 64, 1u);
  for (size_t I = 0; I < Lanes.size(); ++I) {
    if (I >= NumTransitions)
      continue; // sentinel padding stays nonzero
    if (R.chance(1, ZeroOneIn))
      Lanes[I] = 0;
    else
      Lanes[I] = static_cast<uint32_t>(R.range(1, 5)) +
                 (R.chance(1, 4) ? (1u << 24) : 0u); // busy-bias pattern
  }
  return Lanes;
}

size_t scalarReference(const std::vector<uint32_t> &Lanes,
                       std::vector<uint64_t> &Out) {
  size_t Words = Lanes.size() / 64;
  Out.assign(Words, 0);
  size_t Count = 0;
  for (size_t W = 0; W < Words; ++W) {
    uint64_t Bits = 0;
    for (size_t B = 0; B < 64; ++B)
      if (Lanes[W * 64 + B] == 0)
        Bits |= 1ull << B;
    Out[W] = Bits;
    Count += static_cast<size_t>(__builtin_popcountll(Bits));
  }
  return Count;
}

TEST(SimdDispatch, TierNamesAndOrdering) {
  EXPECT_STREQ(simdTierName(SimdTier::Scalar), "scalar");
  EXPECT_STREQ(simdTierName(SimdTier::Sse2), "sse2");
  EXPECT_STREQ(simdTierName(SimdTier::Avx2), "avx2");
  EXPECT_STREQ(simdTierName(SimdTier::Avx512), "avx512");
  // Scalar is unconditionally supported, and support is downward
  // closed from the highest tier.
  EXPECT_TRUE(simdTierSupported(SimdTier::Scalar));
  SimdTier Highest = highestSupportedSimdTier();
  for (int T = 0; T <= static_cast<int>(Highest); ++T)
    EXPECT_TRUE(simdTierSupported(static_cast<SimdTier>(T)));
}

TEST(SimdDispatch, ActiveTierIsSupportedAndHonorsOverride) {
  SimdTier Active = activeSimdTier();
  EXPECT_TRUE(simdTierSupported(Active));
  // When the environment forces a tier the host supports (the CI SIMD
  // matrix leg sets SDSP_SIMD=scalar/sse2/avx2), the dispatcher must
  // honor it verbatim rather than silently upgrading.
  if (const char *Env = std::getenv("SDSP_SIMD")) {
    std::string Want = Env;
    for (int T = 0; T <= static_cast<int>(SimdTier::Avx512); ++T) {
      SimdTier Tier = static_cast<SimdTier>(T);
      if (Want == simdTierName(Tier) && simdTierSupported(Tier)) {
        EXPECT_EQ(Active, Tier) << "SDSP_SIMD=" << Want << " not honored";
      }
    }
  }
}

TEST(SimdDispatch, KernelsMatchScalarReference) {
  Rng R(0x51eed5u);
  for (uint64_t Trial = 0; Trial < 64; ++Trial) {
    size_t Words = static_cast<size_t>(R.range(1, 40));
    size_t NumT = static_cast<size_t>(
        R.range(static_cast<int64_t>((Words - 1) * 64 + 1),
                static_cast<int64_t>(Words * 64)));
    uint64_t Density = static_cast<uint64_t>(R.range(2, 16));
    std::vector<uint32_t> Lanes = randomReadiness(R, Words, NumT, Density);

    std::vector<uint64_t> Want;
    size_t WantCount = scalarReference(Lanes, Want);

    for (int T = 0; T <= static_cast<int>(highestSupportedSimdTier()); ++T) {
      SimdTier Tier = static_cast<SimdTier>(T);
      ReadinessSweepFn Fn = readinessSweepForTier(Tier);
      ASSERT_NE(Fn, nullptr);
      std::vector<uint64_t> Got(Words, ~0ull);
      size_t GotCount = Fn(Lanes.data(), Got.data(), Words);
      EXPECT_EQ(GotCount, WantCount)
          << simdTierName(Tier) << " popcount, trial " << Trial;
      EXPECT_EQ(Got, Want) << simdTierName(Tier) << " bitmap, trial "
                           << Trial;
    }
  }
}

TEST(SimdDispatch, AllZeroAndAllBusyExtremes) {
  for (size_t Words : {size_t(1), size_t(3), size_t(17)}) {
    std::vector<uint32_t> AllReady(Words * 64, 0u);
    std::vector<uint32_t> AllBusy(Words * 64, 7u);
    for (int T = 0; T <= static_cast<int>(highestSupportedSimdTier()); ++T) {
      ReadinessSweepFn Fn = readinessSweepForTier(static_cast<SimdTier>(T));
      std::vector<uint64_t> Out(Words, 0);
      EXPECT_EQ(Fn(AllReady.data(), Out.data(), Words), Words * 64);
      for (uint64_t W : Out)
        EXPECT_EQ(W, ~0ull);
      EXPECT_EQ(Fn(AllBusy.data(), Out.data(), Words), 0u);
      for (uint64_t W : Out)
        EXPECT_EQ(W, 0ull);
    }
  }
}

TEST(SimdDispatch, DefaultSweepMatchesActiveTier) {
  EXPECT_EQ(readinessSweep(), readinessSweepForTier(activeSimdTier()));
}

} // namespace
