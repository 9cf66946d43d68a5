//===- tests/MemoryStoreTest.cpp - In-memory artifact store tests ---------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
//
// Pins the MemoryStore contract (core/SharedArtifactCache.h):
// compute-once under contention, abandon handoff, LRU byte eviction,
// and — via CompilationSession integration — that sharing the store
// never changes outputs and that failing passes never poison it.
// Run under ThreadSanitizer in CI.
//
//===----------------------------------------------------------------------===//

#include "core/SharedArtifactCache.h"

#include "core/Session.h"
#include "support/FaultInjection.h"
#include "support/Status.h"

#include "gtest/gtest.h"

#include <atomic>
#include <sstream>
#include <thread>

using namespace sdsp;

namespace {

using Key = ArtifactKey;
using Entry = ArtifactEntry;

Entry makeEntry(int V, uint64_t Bytes = 8) {
  Entry E;
  E.Value = std::make_shared<int>(V);
  E.ContentHash = static_cast<uint64_t>(V);
  E.Bytes = Bytes;
  return E;
}

int valueOf(const Entry &E) {
  return *static_cast<const int *>(E.Value.get());
}

TEST(MemoryStoreTest, MissPublishHit) {
  MemoryStore C;
  Key K{1, 2, 3};

  auto Miss = C.lookupOrLock(K, nullptr);
  EXPECT_FALSE(Miss.has_value()); // We now own the key.
  C.publish(K, makeEntry(42), nullptr);

  auto Hit = C.lookupOrLock(K, nullptr);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(valueOf(*Hit), 42);
  EXPECT_EQ(Hit->ContentHash, 42u);

  auto S = C.counters();
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Inserts, 1u);
  EXPECT_EQ(S.Entries, 1u);
  EXPECT_EQ(S.Bytes, 8u);
}

TEST(MemoryStoreTest, KeysDifferingInAnyFieldAreDistinct) {
  MemoryStore C;
  for (Key K : {Key{1, 2, 3}, Key{9, 2, 3}, Key{1, 9, 3}, Key{1, 2, 9}}) {
    EXPECT_FALSE(C.lookupOrLock(K, nullptr).has_value());
    C.publish(K, makeEntry(static_cast<int>(K.Pass + K.Inputs + K.Options)),
              nullptr);
  }
  EXPECT_EQ(C.counters().Entries, 4u);
}

TEST(MemoryStoreTest, ComputeOnceUnderContention) {
  // Many threads race for one key; exactly one computes, the rest block
  // in lookupOrLock and come back with the published value.
  MemoryStore C;
  Key K{7, 7, 7};
  constexpr int NumThreads = 16;
  std::atomic<int> Computes{0};
  std::atomic<int> Correct{0};

  std::vector<std::thread> Threads;
  for (int I = 0; I < NumThreads; ++I)
    Threads.emplace_back([&] {
      auto E = C.lookupOrLock(K, nullptr);
      if (!E) {
        ++Computes;
        // Hold the key long enough that siblings actually block.
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        C.publish(K, makeEntry(99), nullptr);
        E = C.lookupOrLock(K, nullptr); // Owner re-reads like everyone else.
      }
      if (E && valueOf(*E) == 99)
        ++Correct;
    });
  for (auto &T : Threads)
    T.join();

  EXPECT_EQ(Computes.load(), 1);
  EXPECT_EQ(Correct.load(), NumThreads);
  EXPECT_EQ(C.counters().Inserts, 1u);
}

TEST(MemoryStoreTest, AbandonHandsOwnershipToOneWaiter) {
  // First owner fails; of the blocked threads exactly one becomes the
  // new owner and publishes, and nobody observes a poisoned value.
  MemoryStore C;
  Key K{3, 3, 3};
  constexpr int NumThreads = 8;
  std::atomic<int> Owners{0};
  std::atomic<int> Correct{0};
  std::atomic<bool> FirstOwnerDone{false};

  ASSERT_FALSE(C.lookupOrLock(K, nullptr).has_value()); // This thread owns K.

  std::vector<std::thread> Threads;
  for (int I = 0; I < NumThreads; ++I)
    Threads.emplace_back([&] {
      auto E = C.lookupOrLock(K, nullptr);
      if (!E) {
        // Waiters may only be promoted after the first owner abandons.
        EXPECT_TRUE(FirstOwnerDone.load());
        ++Owners;
        C.publish(K, makeEntry(55), nullptr);
        E = C.lookupOrLock(K, nullptr);
      }
      if (E && valueOf(*E) == 55)
        ++Correct;
    });

  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  FirstOwnerDone = true;
  C.abandon(K); // "Computation failed": release without a value.
  for (auto &T : Threads)
    T.join();

  EXPECT_EQ(Owners.load(), 1);
  EXPECT_EQ(Correct.load(), NumThreads);
  auto S = C.counters();
  EXPECT_EQ(S.Abandons, 1u);
  EXPECT_EQ(S.Inserts, 1u);
}

TEST(MemoryStoreTest, AbandonChainsThroughSuccessiveOwnerDeaths) {
  // Two owners die in a row; each handoff bumps the abandon counter
  // exactly once, and the third owner's publish reaches every waiter.
  MemoryStore C;
  Key K{4, 4, 4};
  constexpr int NumThreads = 6;
  std::atomic<int> Promotions{0};
  std::atomic<int> Correct{0};

  ASSERT_FALSE(C.lookupOrLock(K, nullptr).has_value()); // First owner.

  std::vector<std::thread> Threads;
  for (int I = 0; I < NumThreads; ++I)
    Threads.emplace_back([&] {
      auto E = C.lookupOrLock(K, nullptr);
      if (!E) {
        // Promoted waiter: the first one dies too, the second publishes.
        if (Promotions.fetch_add(1) == 0) {
          C.abandon(K);
          E = C.lookupOrLock(K, nullptr);
          if (!E) {
            // Re-acquired our own abandoned key: publish this time.
            ++Promotions;
            C.publish(K, makeEntry(77), nullptr);
            E = C.lookupOrLock(K, nullptr);
          }
        } else {
          C.publish(K, makeEntry(77), nullptr);
          E = C.lookupOrLock(K, nullptr);
        }
      }
      if (E && valueOf(*E) == 77)
        ++Correct;
    });

  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  C.abandon(K); // First owner dies without publishing.
  for (auto &T : Threads)
    T.join();

  EXPECT_EQ(Correct.load(), NumThreads);
  auto S = C.counters();
  EXPECT_EQ(S.Abandons, 2u); // One per owner death, never double-counted.
  EXPECT_EQ(S.Inserts, 1u);
}

TEST(MemoryStoreTest, EvictsLeastRecentlyUsedOverBudget) {
  // One shard so every entry shares a budget; capacity for two 8-byte
  // entries.
  MemoryStore C({/*Shards=*/1, /*MaxBytes=*/16});
  Key A{1, 0, 0}, B{2, 0, 0}, D{3, 0, 0};

  EXPECT_FALSE(C.lookupOrLock(A, nullptr).has_value());
  C.publish(A, makeEntry(1), nullptr);
  EXPECT_FALSE(C.lookupOrLock(B, nullptr).has_value());
  C.publish(B, makeEntry(2), nullptr);

  // Touch A so B is now the LRU entry.
  EXPECT_TRUE(C.lookupOrLock(A, nullptr).has_value());

  EXPECT_FALSE(C.lookupOrLock(D, nullptr).has_value());
  C.publish(D, makeEntry(3), nullptr);

  EXPECT_TRUE(C.peek(A).has_value());
  EXPECT_FALSE(C.peek(B).has_value()); // Evicted.
  EXPECT_TRUE(C.peek(D).has_value());

  auto S = C.counters();
  EXPECT_EQ(S.Evictions, 1u);
  EXPECT_LE(S.Bytes, 16u);
}

TEST(MemoryStoreTest, NeverEvictsTheJustPublishedEntry) {
  // An entry bigger than the whole budget must still land (and is the
  // only survivor): the cache may be over budget transiently rather
  // than discard fresh work.
  MemoryStore C({/*Shards=*/1, /*MaxBytes=*/16});
  Key A{1, 0, 0}, B{2, 0, 0};
  EXPECT_FALSE(C.lookupOrLock(A, nullptr).has_value());
  C.publish(A, makeEntry(1, /*Bytes=*/8), nullptr);
  EXPECT_FALSE(C.lookupOrLock(B, nullptr).has_value());
  C.publish(B, makeEntry(2, /*Bytes=*/64), nullptr);

  EXPECT_FALSE(C.peek(A).has_value());
  ASSERT_TRUE(C.peek(B).has_value());
  EXPECT_EQ(valueOf(*C.peek(B)), 2);
}

//===----------------------------------------------------------------------===//
// CompilationSession integration.
//===----------------------------------------------------------------------===//

const char *BiquadSource = R"(do i {
  init y = 0, 0;
  y = b0 * x[i] + b1 * x[i-1] + b2 * x[i-2]
      - a1 * y[i-1] - a2 * y[i-2];
  out y;
})";

TEST(MemoryStoreSessionTest, SecondSessionHitsEveryCachedPass) {
  MemoryStore Cache;
  PipelineOptions PO;
  PO.Verify = true;

  SessionConfig SC;
  SC.Store = &Cache;
  SC.EnableCache = true;

  CompilationSession S1(SC);
  auto R1 = S1.compile(BiquadSource, PO);
  ASSERT_TRUE(R1) << R1.status().str();
  EXPECT_GT(Cache.entries(), 0u);
  uint64_t HitsAfterCold = Cache.counters().Hits;

  CompilationSession S2(SC);
  auto R2 = S2.compile(BiquadSource, PO);
  ASSERT_TRUE(R2) << R2.status().str();
  EXPECT_GT(Cache.counters().Hits, HitsAfterCold);
  // The warm session computed nothing new: every cached pass it invoked
  // was answered from the shared table (Verify is registered uncached).
  EXPECT_EQ(Cache.counters().Inserts, Cache.entries());
  PipelineTrace T2 = S2.trace();
  for (size_t P = 0; P < NumPassKinds; ++P) {
    if (!passInfo(static_cast<PassKind>(P)).Cached)
      continue;
    EXPECT_EQ(T2.Passes[P].Stats.CacheHits, T2.Passes[P].Stats.Invocations)
        << T2.Passes[P].Pass;
  }
}

TEST(MemoryStoreSessionTest, SharedAndPrivateCachesAgree) {
  // The cache must be semantically invisible: identical frustums and
  // rates whether sessions share a cache, use private ones, or run
  // uncached.
  PipelineOptions PO;
  PO.Verify = true;

  auto Summarize = [&](CompilationSession &S) {
    auto R = S.compile(BiquadSource, PO);
    EXPECT_TRUE(R) << R.status().str();
    std::ostringstream OS;
    OS << R->Rate->OptimalRate << " [" << R->Frustum->StartTime << ", "
       << R->Frustum->RepeatTime << ") " << R->Frustum->length();
    return OS.str();
  };

  MemoryStore Cache;
  SessionConfig SharedSC;
  SharedSC.Store = &Cache;
  SharedSC.EnableCache = true;
  CompilationSession Cold(SharedSC), Warm(SharedSC);
  std::string FromCold = Summarize(Cold);
  std::string FromWarm = Summarize(Warm); // All hits.

  SessionConfig PrivateSC;
  PrivateSC.EnableCache = true;
  CompilationSession Private(PrivateSC);

  SessionConfig OffSC;
  OffSC.EnableCache = false;
  OffSC.Store = &Cache; // Must be ignored while disabled.
  CompilationSession Off(OffSC);
  EXPECT_EQ(Off.store(), nullptr);

  EXPECT_EQ(FromCold, FromWarm);
  EXPECT_EQ(FromCold, Summarize(Private));
  EXPECT_EQ(FromCold, Summarize(Off));
}

TEST(MemoryStoreSessionTest, FailingSourceDoesNotPoisonTheCache) {
  MemoryStore Cache;
  SessionConfig SC;
  SC.Store = &Cache;
  SC.EnableCache = true;
  PipelineOptions PO;

  // Semantically invalid: loop-carried `y` without an init window.
  const char *Bad = "do i { y = y[i-1] + x[i]; out y; }";

  CompilationSession S1(SC);
  auto R1 = S1.compile(Bad, PO);
  ASSERT_FALSE(R1);
  size_t EntriesAfterFailure = Cache.entries();

  // The failure was not cached: a retry recomputes (and fails) rather
  // than replaying a poisoned artifact, and good sources still compile.
  CompilationSession S2(SC);
  auto R2 = S2.compile(Bad, PO);
  ASSERT_FALSE(R2);
  EXPECT_EQ(R2.status().code(), R1.status().code());
  EXPECT_EQ(Cache.entries(), EntriesAfterFailure);

  CompilationSession S3(SC);
  auto R3 = S3.compile(BiquadSource, PO);
  EXPECT_TRUE(R3) << R3.status().str();
}

TEST(MemoryStoreSessionTest, InjectedOwnerDeathAbandonsExactlyOnce) {
  // The fault-injection shape of owner death (docs/ROBUSTNESS.md): a
  // session that computes a pass, then dies at the cache:publish site,
  // must abandon its key — bumping the abandon counter exactly once —
  // and publish nothing.  Ownership of the key is then re-acquirable: a
  // healthy session recomputes and publishes for real.  (Concurrent
  // waiter promotion per handoff is pinned by the raw-cache tests
  // above; this one pins the injected-death path through the session.)
  Expected<FaultSchedule> Sched =
      FaultSchedule::parse("cache:publish:fail@1");
  ASSERT_TRUE(Sched) << Sched.status().str();

  MemoryStore Cache;
  PipelineOptions PO;

  FaultContext FC(&*Sched, "victim");
  SessionConfig VictimSC;
  VictimSC.Store = &Cache;
  VictimSC.EnableCache = true;
  VictimSC.Faults = &FC;
  CompilationSession Victim(VictimSC);
  auto RV = Victim.compile(BiquadSource, PO);
  ASSERT_FALSE(RV);
  EXPECT_EQ(RV.status().code(), ErrorCode::TransientFault);
  EXPECT_EQ(Cache.counters().Abandons, 1u); // One death, one handoff.
  EXPECT_EQ(Cache.counters().Inserts, 0u);  // The failure published nothing.

  SessionConfig HealthySC;
  HealthySC.Store = &Cache;
  HealthySC.EnableCache = true;
  CompilationSession Healthy(HealthySC);
  auto RH = Healthy.compile(BiquadSource, PO);
  ASSERT_TRUE(RH) << RH.status().str();
  EXPECT_EQ(Cache.counters().Abandons, 1u); // No further handoffs.
  EXPECT_EQ(Cache.counters().Inserts, Cache.entries());

  // The victim's own retry — same context, arrival counters advanced —
  // sails past the spent trigger and succeeds from the published work.
  CompilationSession Retry(VictimSC);
  auto RR = Retry.compile(BiquadSource, PO);
  ASSERT_TRUE(RR) << RR.status().str();
  EXPECT_EQ(RR->Frustum->RepeatTime, RH->Frustum->RepeatTime);
}

TEST(MemoryStoreSessionTest, ConcurrentSessionsShareWork) {
  // The batch shape: N sessions over the same source on N threads.
  // Correctness (identical frustums) is the assertion; compute-once is
  // observed through insert counters bounded by the distinct key count.
  MemoryStore Cache;
  PipelineOptions PO;
  constexpr int NumThreads = 8;

  std::vector<std::string> Summaries(NumThreads);
  std::vector<std::thread> Threads;
  for (int I = 0; I < NumThreads; ++I)
    Threads.emplace_back([&, I] {
      SessionConfig SC;
      SC.Store = &Cache;
      SC.EnableCache = true;
      CompilationSession S(SC);
      auto R = S.compile(BiquadSource, PO);
      if (!R)
        return;
      std::ostringstream OS;
      OS << "[" << R->Frustum->StartTime << ", " << R->Frustum->RepeatTime
         << ") " << R->Frustum->length();
      Summaries[I] = OS.str();
    });
  for (auto &T : Threads)
    T.join();

  for (int I = 0; I < NumThreads; ++I) {
    EXPECT_FALSE(Summaries[I].empty()) << "thread " << I << " failed";
    EXPECT_EQ(Summaries[I], Summaries[0]);
  }
  // Every insert is a distinct key computed exactly once.
  EXPECT_EQ(Cache.counters().Inserts, Cache.entries());
}

} // namespace
