//===- core/SharedArtifactCache.h - In-memory artifact store ----*- C++ -*-===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// MemoryStore, the in-memory tier of the artifact storage stack
/// (core/ArtifactStore.h).  Every cached CompilationSession interns its
/// pass results in one: a single-shard store of its own by default, or
/// one shared by many sessions — typically one per loop in a batch
/// (core/BatchCompiler.h), running on different threads — so a batch
/// over loops with common prefixes (the same kernel at several option
/// points, or fuzz loops sharing subgraphs) computes each (pass, input
/// hashes, options fingerprint) triple once for the whole fleet.
///
/// Concurrency model:
///   - The table is sharded; each shard has its own mutex, so threads
///     working on different keys rarely contend on the same lock.
///   - Within a key the store is *compute-once*: lookupOrLock() either
///     returns a published entry (hit), or makes the caller the key's
///     owner (miss) — every other thread asking for the same key blocks
///     until the owner publish()es (they then return the entry) or
///     abandon()s (one blocked thread becomes the new owner and
///     recomputes).  Failed computations are therefore never cached and
///     never poison waiters — the Session contract that "failures are
///     not cached" holds across threads.
///   - Values are immutable once published (shared_ptr<const void>,
///     exactly the Session's artifact representation), so readers need
///     no synchronization beyond the lookup itself.
///
/// Determinism: every pass is a pure function of its key (the frustum
/// construction is deterministic — the earliest-firing behavior graph
/// is unique under a fixed policy), so whichever thread wins the race
/// to publish, the value bytes are identical.  The store can change
/// *when* work happens, never *what* is produced; sdspc's batch output
/// is byte-identical for -j 1 and -j 8 (the batch-determinism CI job).
///
/// An optional byte budget bounds the table: publishing past the
/// budget evicts least-recently-used entries (per shard).  Hits,
/// misses, inserts, evictions, and abandons are counted.
///
//===----------------------------------------------------------------------===//

#ifndef SDSP_CORE_SHAREDARTIFACTCACHE_H
#define SDSP_CORE_SHAREDARTIFACTCACHE_H

#include "core/ArtifactStore.h"

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

namespace sdsp {

/// The in-memory tier of the artifact storage stack: implements the
/// ArtifactStore compute-once protocol over a sharded table.  Usable on
/// its own or as the memory tier of a TieredStore over a persistent
/// DiskStore (core/ArtifactStore.h).
class MemoryStore final : public ArtifactStore {
public:
  struct Config {
    /// Lock stripes; rounded up to a power of two, minimum 1.
    size_t Shards = 16;
    /// Total byte budget across shards; 0 = unbounded.
    uint64_t MaxBytes = 0;
  };

  /// Monotonic counters plus a point-in-time size snapshot.
  struct CounterSnapshot {
    uint64_t Hits = 0;      ///< lookupOrLock answered from the table.
    uint64_t Misses = 0;    ///< lookupOrLock made the caller the owner.
    uint64_t Inserts = 0;   ///< Successful publish() calls.
    uint64_t Evictions = 0; ///< Entries dropped by the byte budget.
    uint64_t Abandons = 0;  ///< Owners that failed and released the key.
    size_t Entries = 0;     ///< Published entries currently resident.
    uint64_t Bytes = 0;     ///< Their total approximate size.
  };

  MemoryStore(); ///< Default Config.
  explicit MemoryStore(Config C);

  MemoryStore(const MemoryStore &) = delete;
  MemoryStore &operator=(const MemoryStore &) = delete;

  /// Hit: returns the published entry.  Miss: marks \p K in-flight and
  /// returns nullopt — the caller *owns* the key and must call
  /// publish() or abandon() exactly once (core/Session.h wraps this in
  /// an RAII guard).  If another thread owns the key, blocks until it
  /// resolves, then behaves as above.  The memory tier has no fault
  /// sites of its own (cache:lookup / cache:publish fire in the
  /// session, before the store is consulted), so \p Faults is unused.
  std::optional<ArtifactEntry> lookupOrLock(const ArtifactKey &K,
                                            FaultContext *Faults) override;

  /// Publishes the owner's computed entry and wakes waiters.  May evict
  /// older entries to honor the byte budget.  Never writes to disk.
  PublishResult publish(const ArtifactKey &K, ArtifactEntry E,
                        FaultContext *Faults) override;

  /// Releases an owned key without a value (the computation failed).
  /// One waiter, if any, becomes the new owner.
  void abandon(const ArtifactKey &K) override;

  /// Non-blocking, non-locking-semantics lookup (tests, stats).  Does
  /// not count as a hit or miss and does not refresh recency.
  std::optional<ArtifactEntry> peek(const ArtifactKey &K) const;

  CounterSnapshot counters() const;
  /// Per-shard snapshots in shard order (docs/OBSERVABILITY.md): shard
  /// assignment is a pure function of the key hash, so these — like the
  /// aggregate — are deterministic for a fixed input set regardless of
  /// thread count.
  std::vector<CounterSnapshot> shardCounters() const;
  size_t entries() const { return counters().Entries; }

private:
  struct Slot {
    bool Ready = false; ///< false: in flight, owned by some thread.
    ArtifactEntry E;
    uint64_t LruTick = 0;
  };

  struct Shard {
    mutable std::mutex M;
    std::condition_variable CV;
    std::unordered_map<ArtifactKey, Slot, ArtifactKeyHash> Map;
    uint64_t Bytes = 0;   ///< Published bytes resident in this shard.
    uint64_t Tick = 0;    ///< Recency clock for LRU eviction.
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Inserts = 0;
    uint64_t Evictions = 0;
    uint64_t Abandons = 0;
  };

  Shard &shardFor(const ArtifactKey &K);
  const Shard &shardFor(const ArtifactKey &K) const;
  /// Evicts LRU published entries (other than \p Keep) while the shard
  /// is over its budget.  Caller holds the shard lock.
  void evictOver(Shard &S, const ArtifactKey &Keep);

  std::vector<std::unique_ptr<Shard>> ShardsVec;
  size_t ShardMask = 0;
  uint64_t PerShardBudget = 0; ///< 0 = unbounded.
};

} // namespace sdsp

#endif // SDSP_CORE_SHAREDARTIFACTCACHE_H
