//===- tests/ArtifactCacheTest.cpp - Session artifact-cache behavior -------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
//
// The artifact cache must be an invisible optimization: hits are
// observable only through the per-pass counters, never through the
// artifacts themselves.  These tests pin the accounting (hit/miss/
// failure), the invalidation rules (any option change misses, including
// the frustum budget/engine regression), the disable switches
// (SessionConfig and SDSP_DISABLE_ARTIFACT_CACHE), and the store a
// session builds when it is given none: private to that session, and
// behind the same cache fault sites as a shared one.
//
//===----------------------------------------------------------------------===//

#include "core/Session.h"
#include "core/ArtifactStore.h"
#include "core/SharedArtifactCache.h"
#include "livermore/Livermore.h"
#include "support/FaultInjection.h"

#include "gtest/gtest.h"

#include <cstdlib>
#include <filesystem>
#include <random>
#include <sstream>

using namespace sdsp;

namespace {

/// A session with the cache forced on, immune to the environment.
CompilationSession cachedSession() {
  return CompilationSession(SessionConfig{true});
}

const std::string &kernelSource(const std::string &Id) {
  const LivermoreKernel *K = findKernel(Id);
  EXPECT_NE(K, nullptr) << Id;
  return K->Source;
}

TEST(ArtifactCacheTest, LowerHitAndMissAccounting) {
  CompilationSession S = cachedSession();
  ASSERT_TRUE(S.cacheEnabled());

  auto G1 = S.lower(kernelSource("loop1"));
  ASSERT_TRUE(bool(G1));
  EXPECT_EQ(S.passStats(PassKind::Lower).Invocations, 1u);
  EXPECT_EQ(S.passStats(PassKind::Lower).CacheHits, 0u);

  // Same source: a hit, and the exact same artifact object.
  auto G2 = S.lower(kernelSource("loop1"));
  ASSERT_TRUE(bool(G2));
  EXPECT_EQ(S.passStats(PassKind::Lower).Invocations, 2u);
  EXPECT_EQ(S.passStats(PassKind::Lower).CacheHits, 1u);
  EXPECT_EQ(G1->ptr(), G2->ptr());
  EXPECT_EQ(G1->hash(), G2->hash());

  // Different source: a miss and a new entry.
  auto G3 = S.lower(kernelSource("loop7"));
  ASSERT_TRUE(bool(G3));
  EXPECT_EQ(S.passStats(PassKind::Lower).Invocations, 3u);
  EXPECT_EQ(S.passStats(PassKind::Lower).CacheHits, 1u);
  EXPECT_NE(G1->hash(), G3->hash());
}

TEST(ArtifactCacheTest, OptionChangeInvalidates) {
  CompilationSession S = cachedSession();
  auto G = S.lower(kernelSource("loop1"));
  ASSERT_TRUE(bool(G));

  ASSERT_TRUE(bool(S.buildSdsp(*G, /*Capacity=*/1, false)));
  ASSERT_TRUE(bool(S.buildSdsp(*G, /*Capacity=*/1, false)));
  EXPECT_EQ(S.passStats(PassKind::Sdsp).CacheHits, 1u);

  // A different capacity is a different options fingerprint: miss.
  ASSERT_TRUE(bool(S.buildSdsp(*G, /*Capacity=*/2, false)));
  EXPECT_EQ(S.passStats(PassKind::Sdsp).Invocations, 3u);
  EXPECT_EQ(S.passStats(PassKind::Sdsp).CacheHits, 1u);

  // Same for the storage-minimizer toggle.
  ASSERT_TRUE(bool(S.buildSdsp(*G, /*Capacity=*/1, true)));
  EXPECT_EQ(S.passStats(PassKind::Sdsp).CacheHits, 1u);
}

TEST(ArtifactCacheTest, FailuresAreNeverCached) {
  CompilationSession S = cachedSession();
  for (int I = 0; I < 2; ++I) {
    auto G = S.lower("do i { this is not a loop }");
    EXPECT_FALSE(bool(G));
  }
  const PassStats &PS = S.passStats(PassKind::Lower);
  EXPECT_EQ(PS.Invocations, 2u);
  EXPECT_EQ(PS.CacheHits, 0u);
  EXPECT_EQ(PS.Failures, 2u);
}

TEST(ArtifactCacheTest, DisabledCacheNeverHits) {
  CompilationSession S(SessionConfig{false});
  EXPECT_FALSE(S.cacheEnabled());
  ASSERT_TRUE(bool(S.lower(kernelSource("loop1"))));
  ASSERT_TRUE(bool(S.lower(kernelSource("loop1"))));
  EXPECT_EQ(S.passStats(PassKind::Lower).Invocations, 2u);
  EXPECT_EQ(S.passStats(PassKind::Lower).CacheHits, 0u);
}

TEST(ArtifactCacheTest, EnvironmentVariableDisables) {
  ASSERT_EQ(setenv("SDSP_DISABLE_ARTIFACT_CACHE", "1", 1), 0);
  EXPECT_FALSE(CompilationSession().cacheEnabled());
  // "0" and empty mean "not disabled".
  ASSERT_EQ(setenv("SDSP_DISABLE_ARTIFACT_CACHE", "0", 1), 0);
  EXPECT_TRUE(CompilationSession().cacheEnabled());
  ASSERT_EQ(setenv("SDSP_DISABLE_ARTIFACT_CACHE", "", 1), 0);
  EXPECT_TRUE(CompilationSession().cacheEnabled());
  // An explicit SessionConfig beats the environment.
  ASSERT_EQ(setenv("SDSP_DISABLE_ARTIFACT_CACHE", "1", 1), 0);
  EXPECT_TRUE(CompilationSession(SessionConfig{true}).cacheEnabled());
  ASSERT_EQ(unsetenv("SDSP_DISABLE_ARTIFACT_CACHE"), 0);
  EXPECT_TRUE(CompilationSession().cacheEnabled());
}

/// A session given no store interns into one of its own, so nothing it
/// computed is visible to the next session.  A shared or process-wide
/// fallback store would answer the second compile from the first.
TEST(ArtifactCacheTest, PrivateStoreStaysPrivate) {
  PipelineOptions PO;
  CompilationSession First = cachedSession();
  auto R1 = First.compile(kernelSource("loop7"), PO);
  ASSERT_TRUE(R1) << R1.status().str();

  CompilationSession Second = cachedSession();
  ASSERT_NE(Second.store(), nullptr);
  EXPECT_NE(Second.store(), First.store());
  auto R2 = Second.compile(kernelSource("loop7"), PO);
  ASSERT_TRUE(R2) << R2.status().str();
  EXPECT_EQ(Second.trace().totalCacheHits(), 0u);
}

/// The cache fault sites guard a session's own store exactly as they
/// guard a shared one: an injected death at cache:publish fails the
/// pass, and the abandoned key is free again — the same session's next
/// compile recomputes it (a key left owned would block that lookup).
TEST(ArtifactCacheTest, PublishFaultInPlainSessionAbandonsTheKey) {
  Expected<FaultSchedule> Sched = FaultSchedule::parse("cache:publish:fail@1");
  ASSERT_TRUE(Sched) << Sched.status().str();
  FaultContext FC(&*Sched, "plain");
  SessionConfig SC;
  SC.EnableCache = true;
  SC.Faults = &FC;
  CompilationSession S(SC);
  PipelineOptions PO;

  auto Dead = S.compile(kernelSource("loop1"), PO);
  ASSERT_FALSE(Dead);
  EXPECT_EQ(Dead.status().code(), ErrorCode::TransientFault);
  EXPECT_EQ(S.passStats(PassKind::Lower).Failures, 1u);

  auto Again = S.compile(kernelSource("loop1"), PO);
  ASSERT_TRUE(Again) << Again.status().str();
  EXPECT_EQ(S.passStats(PassKind::Lower).Invocations, 2u);
  EXPECT_EQ(S.passStats(PassKind::Lower).CacheHits, 0u);
}

/// Regression for the frustum options fingerprint: a cached success
/// under a generous budget must NOT be served when the caller asks for
/// a budget too small to have produced it (and vice versa: the small-
/// budget failure must not poison later generous-budget searches).
TEST(ArtifactCacheTest, BudgetChangeInvalidatesFrustum) {
  CompilationSession S = cachedSession();
  auto G = S.lower(kernelSource("loop7"));
  ASSERT_TRUE(bool(G));
  auto Sd = S.buildSdsp(*G, 1, false);
  ASSERT_TRUE(bool(Sd));
  auto Pn = S.buildPn(*Sd);
  ASSERT_TRUE(bool(Pn));

  // Default (theory-bound) budget succeeds and populates the cache.
  auto Found = S.searchFrustum(*Pn, FrustumOptions{});
  ASSERT_TRUE(bool(Found));
  EXPECT_EQ(S.passStats(PassKind::Frustum).CacheHits, 0u);

  // One step cannot reach the frustum: must recompute and fail, not
  // answer from the cached success.
  FrustumOptions Tiny;
  Tiny.BudgetSteps = 1;
  auto Starved = S.searchFrustum(*Pn, Tiny);
  ASSERT_FALSE(bool(Starved));
  EXPECT_EQ(Starved.status().code(), ErrorCode::BudgetExceeded);
  EXPECT_EQ(S.passStats(PassKind::Frustum).Invocations, 2u);
  EXPECT_EQ(S.passStats(PassKind::Frustum).CacheHits, 0u);

  // And the failure was not cached: the default budget still hits the
  // original success.
  auto Again = S.searchFrustum(*Pn, FrustumOptions{});
  ASSERT_TRUE(bool(Again));
  EXPECT_EQ(S.passStats(PassKind::Frustum).CacheHits, 1u);
  EXPECT_EQ(Again->ptr(), Found->ptr());
}

/// Regression for the engine half of the fingerprint: switching between
/// the fast and reference engines must recompute (they are timed
/// against each other), while agreeing on the result.
TEST(ArtifactCacheTest, EngineChangeInvalidatesFrustum) {
  CompilationSession S = cachedSession();
  auto G = S.lower(kernelSource("l2"));
  ASSERT_TRUE(bool(G));
  auto Sd = S.buildSdsp(*G, 1, false);
  ASSERT_TRUE(bool(Sd));
  auto Pn = S.buildPn(*Sd);
  ASSERT_TRUE(bool(Pn));

  auto Fast = S.searchFrustum(*Pn, FrustumOptions{});
  ASSERT_TRUE(bool(Fast));
  FrustumOptions Ref;
  Ref.Engine = FrustumEngine::Reference;
  auto Slow = S.searchFrustum(*Pn, Ref);
  ASSERT_TRUE(bool(Slow));
  EXPECT_EQ(S.passStats(PassKind::Frustum).Invocations, 2u);
  EXPECT_EQ(S.passStats(PassKind::Frustum).CacheHits, 0u);

  // Distinct computations, identical frustum (the golden-equivalence
  // contract), and each now hits its own cache line.
  EXPECT_EQ((*Fast)->StartTime, (*Slow)->StartTime);
  EXPECT_EQ((*Fast)->RepeatTime, (*Slow)->RepeatTime);
  ASSERT_TRUE(bool(S.searchFrustum(*Pn, FrustumOptions{})));
  ASSERT_TRUE(bool(S.searchFrustum(*Pn, Ref)));
  EXPECT_EQ(S.passStats(PassKind::Frustum).CacheHits, 2u);
}

TEST(ArtifactCacheTest, ValidateIterationsIsPartOfScheduleKey) {
  CompilationSession S = cachedSession();
  auto G = S.lower(kernelSource("l2"));
  ASSERT_TRUE(bool(G));
  auto Sd = S.buildSdsp(*G, 1, false);
  ASSERT_TRUE(bool(Sd));
  auto Pn = S.buildPn(*Sd);
  ASSERT_TRUE(bool(Pn));
  auto F = S.searchFrustum(*Pn, FrustumOptions{});
  ASSERT_TRUE(bool(F));

  ASSERT_TRUE(bool(S.deriveSchedule(*Sd, *Pn, *F, 32)));
  ASSERT_TRUE(bool(S.deriveSchedule(*Sd, *Pn, *F, 32)));
  EXPECT_EQ(S.passStats(PassKind::Schedule).CacheHits, 1u);
  ASSERT_TRUE(bool(S.deriveSchedule(*Sd, *Pn, *F, 64)));
  EXPECT_EQ(S.passStats(PassKind::Schedule).Invocations, 3u);
  EXPECT_EQ(S.passStats(PassKind::Schedule).CacheHits, 1u);
}

TEST(ArtifactCacheTest, PersistentStoreHonorsOptionFingerprints) {
  // The invalidation rules survive the disk tier: an artifact persisted
  // under one options fingerprint is never served to a request with a
  // different one, even across "processes" (fresh memory tiers over one
  // directory; see tests/ArtifactStoreTest.cpp for the store itself).
  std::random_device RD;
  std::ostringstream Name;
  Name << "sdsp-cache-fp-" << std::hex << RD() << RD();
  std::filesystem::path Dir = std::filesystem::temp_directory_path() / Name.str();
  std::filesystem::create_directories(Dir);

  PipelineOptions Cap1;
  PipelineOptions Cap2;
  Cap2.Capacity = 2;

  auto CompileCold = [&](const PipelineOptions &PO, DiskStore::Counters &C) {
    MemoryStore Memory;
    DiskStore Disk(DiskStore::Config{Dir.string(), 0});
    TieredStore Tiered(Memory, Disk);
    SessionConfig SC;
    SC.Store = &Tiered;
    SC.EnableCache = true;
    CompilationSession S(SC);
    auto R = S.compile(kernelSource("loop1"), PO);
    EXPECT_TRUE(R) << R.status().str();
    C = Disk.counters();
  };

  DiskStore::Counters First, Second, Third;
  CompileCold(Cap1, First);
  EXPECT_GT(First.Writes, 0u);
  EXPECT_EQ(First.Hits, 0u);

  // Capacity is part of the sdsp-pass fingerprint: the lowering hits
  // from disk, but the capacity-dependent chain recomputes and writes
  // new objects rather than replaying the capacity-1 artifacts.
  CompileCold(Cap2, Second);
  EXPECT_GT(Second.Hits, 0u);
  EXPECT_GT(Second.Writes, 0u);

  // Both fingerprints now coexist; replaying either is all hits.
  CompileCold(Cap1, Third);
  EXPECT_EQ(Third.Misses, 0u);
  EXPECT_EQ(Third.Writes, 0u);

  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
}

} // namespace
