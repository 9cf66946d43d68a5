//===- core/ArtifactStore.h - Tiered artifact storage -----------*- C++ -*-===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The storage abstraction behind the compilation session's pass cache
/// (docs/SERVICE.md).  Three layers:
///
///   ArtifactStore   the compute-once protocol the Session talks to:
///                   lookupOrLock / publish / abandon over type-erased,
///                   content-hashed entries keyed by (pass, input
///                   hashes, options fingerprint).  Every session
///                   with the cache on interns through one.
///   MemoryStore     the in-process sharded LRU table
///                   (core/SharedArtifactCache.h).
///   DiskStore       a persistent content-addressed object store under
///                   a directory (`sdspc --store-dir`, SDSP_STORE_DIR),
///                   shared by every process pointed at it over time —
///                   the warm state the sdspd compile service survives
///                   restarts with.
///
/// TieredStore composes a MemoryStore over a DiskStore write-through:
/// memory miss -> disk read -> memory publish (so one process re-reads
/// an object once), and every publish lands in both tiers.  The
/// compute-once lock lives in the memory tier only; the disk tier is a
/// plain get/put keyed by the same triple, safe because artifacts are
/// pure functions of their key — whichever process wrote an object, the
/// bytes are equivalent.
///
/// Failure policy: the disk tier is an accelerator, never a correctness
/// dependency.  Read errors and corrupt objects degrade to misses
/// (corrupt files are unlinked and counted), write errors skip the
/// write and leave the index untouched; in both cases the compilation
/// proceeds from recompute.  The fault sites `store:read` and
/// `store:write` (support/FaultInjection.h) exercise exactly these
/// paths.
///
//===----------------------------------------------------------------------===//

#ifndef SDSP_CORE_ARTIFACTSTORE_H
#define SDSP_CORE_ARTIFACTSTORE_H

#include "support/Hashing.h"

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace sdsp {

class FaultContext;

/// The cache key triple of core/Session.h: registered pass, combined
/// input content hashes, options fingerprint.
struct ArtifactKey {
  uint32_t Pass = 0;
  uint64_t Inputs = 0;
  uint64_t Options = 0;
  friend bool operator==(const ArtifactKey &A, const ArtifactKey &B) {
    return A.Pass == B.Pass && A.Inputs == B.Inputs && A.Options == B.Options;
  }
};

struct ArtifactKeyHash {
  size_t operator()(const ArtifactKey &K) const {
    size_t Seed = K.Pass;
    hashCombine(Seed, static_cast<size_t>(K.Inputs));
    hashCombine(Seed, static_cast<size_t>(K.Options));
    return Seed;
  }
};

/// A published artifact: type-erased immutable value (the key's pass
/// determines the concrete type), its content hash, and its approximate
/// in-memory size (the eviction unit).
struct ArtifactEntry {
  std::shared_ptr<const void> Value;
  uint64_t ContentHash = 0;
  uint64_t Bytes = 0;
};

/// What a publish did beyond the memory tier, so the session can emit a
/// "store-publish" trace instant on its own (single-writer) track.
struct PublishResult {
  bool WroteDisk = false;
  /// Serialized object size on disk when WroteDisk.
  uint64_t DiskBytes = 0;
};

/// The compute-once store protocol (see MemoryStore in
/// core/SharedArtifactCache.h for the full concurrency contract).
/// lookupOrLock() either returns a published entry (hit) or makes the
/// caller the key's owner (miss); the owner must publish() or abandon()
/// exactly once.  \p Faults, when non-null, arms the store's fault
/// sites for the calling scope.
class ArtifactStore {
public:
  virtual ~ArtifactStore();

  virtual std::optional<ArtifactEntry> lookupOrLock(const ArtifactKey &K,
                                                    FaultContext *Faults) = 0;
  virtual PublishResult publish(const ArtifactKey &K, ArtifactEntry E,
                                FaultContext *Faults) = 0;
  virtual void abandon(const ArtifactKey &K) = 0;
};

/// A persistent content-addressed object store under one directory:
///
///   <dir>/objects/ab/cdef0123456789   one artifact per file, named by
///                                     the key digest (16 hex chars)
///   <dir>/index                       LRU order + sizes, rewritten
///                                     atomically after each mutation
///
/// Objects are published atomically (temp file + rename), so a crashed
/// or killed writer never leaves a half-written object behind a live
/// index entry.  A missing or unparsable index is rebuilt by scanning
/// objects/.  Not itself an ArtifactStore: it has no compute-once lock
/// — TieredStore supplies that from the memory tier.  Thread-safe.
class DiskStore {
public:
  struct Config {
    /// Root directory; created (with parents) if absent.
    std::string Dir;
    /// Total byte budget over serialized objects; 0 = unbounded.
    /// Exceeding it evicts least-recently-used objects.
    uint64_t MaxBytes = 0;
  };

  /// Monotonic counters, surfaced as the store.disk.* metrics.
  struct Counters {
    uint64_t Hits = 0;      ///< get() served an object.
    uint64_t Misses = 0;    ///< get() found nothing (or a read fault).
    uint64_t Writes = 0;    ///< put() persisted a new object.
    uint64_t Evictions = 0; ///< Objects dropped by the byte budget.
    uint64_t Corrupt = 0;   ///< Objects rejected and unlinked by get().
  };

  explicit DiskStore(Config C);

  DiskStore(const DiskStore &) = delete;
  DiskStore &operator=(const DiskStore &) = delete;

  /// Reads, verifies and decodes the object for \p K.  Any failure —
  /// read fault, missing file, bad magic, key or checksum mismatch,
  /// malformed payload, content-hash mismatch after decode — is a miss;
  /// corrupt objects are additionally unlinked and counted.
  std::optional<ArtifactEntry> get(const ArtifactKey &K,
                                   FaultContext *Faults);

  /// Serializes and persists \p E under \p K.  Returns the object's
  /// size on disk, or 0 when nothing was written (already present,
  /// uncodable pass, write fault, or I/O error) — the index is only
  /// ever updated after a completed rename.
  uint64_t put(const ArtifactKey &K, const ArtifactEntry &E,
               FaultContext *Faults);

  /// True when the object for \p K is resident (no decode, no counter
  /// or recency update).  Tests and eviction assertions.
  bool contains(const ArtifactKey &K) const;

  Counters counters() const;
  const std::string &dir() const { return Root; }
  /// Resident objects / their total serialized bytes.
  size_t entries() const;
  uint64_t bytes() const;

private:
  struct IndexEntry {
    std::string Digest; ///< 16 lowercase hex chars.
    uint64_t Bytes = 0; ///< Serialized file size.
  };

  std::string objectPath(const std::string &Digest) const;
  /// Loads <dir>/index, dropping entries whose file vanished; on any
  /// parse problem falls back to scanning objects/ (sorted by digest,
  /// so rebuild order is deterministic).
  void loadIndex();
  /// Rewrites <dir>/index from Lru (atomic temp + rename).  Best
  /// effort: an unwritable index costs a rebuild on the next open, not
  /// correctness.
  void writeIndexLocked();
  /// Unlinks LRU objects until TotalBytes fits the budget.
  void evictLocked();
  /// Drops \p Digest from the in-memory index (file already unlinked).
  void forgetLocked(const std::string &Digest);

  std::string Root;
  uint64_t MaxBytes = 0;

  mutable std::mutex M;
  /// LRU order, oldest first.
  std::list<IndexEntry> Lru;
  /// Digest -> position in Lru.
  std::unordered_map<std::string, std::list<IndexEntry>::iterator> ByDigest;
  uint64_t TotalBytes = 0;
  Counters Count;
};

/// The write-through composition: a compute-once memory tier over a
/// persistent disk tier.  A memory miss consults the disk before making
/// the caller compute; every publish lands in both tiers.  Both tiers
/// are borrowed and must outlive the store.
class TieredStore final : public ArtifactStore {
public:
  TieredStore(ArtifactStore &Memory, DiskStore &Disk)
      : Memory(Memory), Disk(Disk) {}

  std::optional<ArtifactEntry> lookupOrLock(const ArtifactKey &K,
                                            FaultContext *Faults) override;
  PublishResult publish(const ArtifactKey &K, ArtifactEntry E,
                        FaultContext *Faults) override;
  void abandon(const ArtifactKey &K) override;

private:
  ArtifactStore &Memory;
  DiskStore &Disk;
};

} // namespace sdsp

#endif // SDSP_CORE_ARTIFACTSTORE_H
