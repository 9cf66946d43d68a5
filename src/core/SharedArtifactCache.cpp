//===- core/SharedArtifactCache.cpp - In-memory artifact store ------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "core/SharedArtifactCache.h"

#include "support/Hashing.h"
#include "support/Status.h"

using namespace sdsp;

namespace {

size_t roundUpPow2(size_t N) {
  size_t P = 1;
  while (P < N)
    P <<= 1;
  return P;
}

} // namespace

MemoryStore::MemoryStore() : MemoryStore(Config{}) {}

MemoryStore::MemoryStore(Config C) {
  size_t N = roundUpPow2(C.Shards ? C.Shards : 1);
  ShardsVec.reserve(N);
  for (size_t I = 0; I < N; ++I)
    ShardsVec.push_back(std::make_unique<Shard>());
  ShardMask = N - 1;
  if (C.MaxBytes)
    // Ceiling division: a 1-byte budget over 16 shards must still admit
    // entries rather than rounding every shard's budget to zero.
    PerShardBudget = (C.MaxBytes + N - 1) / N;
}

MemoryStore::Shard &MemoryStore::shardFor(const ArtifactKey &K) {
  return *ShardsVec[ArtifactKeyHash()(K) & ShardMask];
}

const MemoryStore::Shard &MemoryStore::shardFor(const ArtifactKey &K) const {
  return *ShardsVec[ArtifactKeyHash()(K) & ShardMask];
}

std::optional<ArtifactEntry> MemoryStore::lookupOrLock(const ArtifactKey &K,
                                                       FaultContext *) {
  Shard &S = shardFor(K);
  std::unique_lock<std::mutex> Lock(S.M);
  for (;;) {
    auto It = S.Map.find(K);
    if (It == S.Map.end()) {
      S.Map.emplace(K, Slot{});
      ++S.Misses;
      return std::nullopt; // Caller owns the key.
    }
    if (It->second.Ready) {
      It->second.LruTick = ++S.Tick;
      ++S.Hits;
      return It->second.E;
    }
    // Another thread is computing this key; wait for publish/abandon.
    S.CV.wait(Lock);
  }
}

PublishResult MemoryStore::publish(const ArtifactKey &K, ArtifactEntry E,
                                   FaultContext *) {
  Shard &S = shardFor(K);
  {
    std::lock_guard<std::mutex> Lock(S.M);
    auto It = S.Map.find(K);
    SDSP_CHECK(It != S.Map.end() && !It->second.Ready,
               "publish() without a matching lookupOrLock() ownership");
    S.Bytes += E.Bytes;
    It->second.E = std::move(E);
    It->second.Ready = true;
    It->second.LruTick = ++S.Tick;
    ++S.Inserts;
    evictOver(S, K);
  }
  S.CV.notify_all();
  return PublishResult{};
}

void MemoryStore::abandon(const ArtifactKey &K) {
  Shard &S = shardFor(K);
  {
    std::lock_guard<std::mutex> Lock(S.M);
    auto It = S.Map.find(K);
    SDSP_CHECK(It != S.Map.end() && !It->second.Ready,
               "abandon() without a matching lookupOrLock() ownership");
    S.Map.erase(It);
    ++S.Abandons;
  }
  // All waiters wake; the first to re-check the map becomes the new
  // owner, the rest go back to waiting on it.
  S.CV.notify_all();
}

void MemoryStore::evictOver(Shard &S, const ArtifactKey &Keep) {
  if (!PerShardBudget)
    return;
  while (S.Bytes > PerShardBudget) {
    // Linear LRU scan; shards stay small enough (tens of entries) that
    // an ordered index would cost more than it saves.
    auto Victim = S.Map.end();
    for (auto It = S.Map.begin(); It != S.Map.end(); ++It) {
      if (!It->second.Ready || It->first == Keep)
        continue;
      if (Victim == S.Map.end() ||
          It->second.LruTick < Victim->second.LruTick)
        Victim = It;
    }
    if (Victim == S.Map.end())
      return; // Only the just-published entry (or in-flight keys) left.
    S.Bytes -= Victim->second.E.Bytes;
    S.Map.erase(Victim);
    ++S.Evictions;
  }
}

std::optional<ArtifactEntry> MemoryStore::peek(const ArtifactKey &K) const {
  const Shard &S = shardFor(K);
  std::lock_guard<std::mutex> Lock(S.M);
  auto It = S.Map.find(K);
  if (It == S.Map.end() || !It->second.Ready)
    return std::nullopt;
  return It->second.E;
}

MemoryStore::CounterSnapshot MemoryStore::counters() const {
  CounterSnapshot C;
  for (const CounterSnapshot &S : shardCounters()) {
    C.Hits += S.Hits;
    C.Misses += S.Misses;
    C.Inserts += S.Inserts;
    C.Evictions += S.Evictions;
    C.Abandons += S.Abandons;
    C.Entries += S.Entries;
    C.Bytes += S.Bytes;
  }
  return C;
}

std::vector<MemoryStore::CounterSnapshot> MemoryStore::shardCounters() const {
  std::vector<CounterSnapshot> Out;
  Out.reserve(ShardsVec.size());
  for (const auto &SP : ShardsVec) {
    const Shard &S = *SP;
    std::lock_guard<std::mutex> Lock(S.M);
    CounterSnapshot C;
    C.Hits = S.Hits;
    C.Misses = S.Misses;
    C.Inserts = S.Inserts;
    C.Evictions = S.Evictions;
    C.Abandons = S.Abandons;
    C.Bytes = S.Bytes;
    for (const auto &KV : S.Map)
      C.Entries += KV.second.Ready ? 1 : 0;
    Out.push_back(C);
  }
  return Out;
}
