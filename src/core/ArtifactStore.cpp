//===- core/ArtifactStore.cpp - Tiered artifact storage --------------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "core/ArtifactStore.h"

#include "core/ArtifactCodec.h"
#include "support/Bytes.h"
#include "support/HashStream.h"
#include "support/FaultInjection.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

using namespace sdsp;

namespace fs = std::filesystem;

ArtifactStore::~ArtifactStore() = default;

namespace {

/// Object file layout (all integers little-endian, support/Bytes.h):
///   magic "SDSPSTO2"
///   u32 Pass, u64 Inputs, u64 Options      the key, re-checked on read
///   u64 ContentHash, u64 Bytes             the entry header
///   u64 PayloadSize, u64 PayloadChecksum   checked before decoding
///   payload                                core/ArtifactCodec.h bytes
/// An object of any other format (such as "SDSPSTO1", whose keys and
/// checksum came from another hasher) fails the magic check: counted
/// corrupt and recomputed, never served.
constexpr char Magic[8] = {'S', 'D', 'S', 'P', 'S', 'T', 'O', '2'};
constexpr size_t HeaderBytes = 8 + 4 + 8 * 6;

/// The payload checksum: the content hasher over the payload bytes.
uint64_t payloadChecksum(const uint8_t *Data, size_t Size) {
  return HashStream(0x5d5370a0c5ULL)
      .str({reinterpret_cast<const char *>(Data), Size})
      .hash();
}

std::string keyDigest(const ArtifactKey &K) {
  uint64_t H = HashStream(0x5d5370a0d15cULL)
                   .u64(K.Pass)
                   .u64(K.Inputs)
                   .u64(K.Options)
                   .hash();
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(H));
  return std::string(Buf, 16);
}

bool isDigest(const std::string &S) {
  if (S.size() != 16)
    return false;
  return std::all_of(S.begin(), S.end(), [](char C) {
    return (C >= '0' && C <= '9') || (C >= 'a' && C <= 'f');
  });
}

/// Distinct temp names across threads and processes sharing one dir.
std::string tempName() {
  static const uint64_t Salt = std::random_device{}();
  static std::atomic<uint64_t> Counter{0};
  return "tmp." + std::to_string(Salt) + "." +
         std::to_string(Counter.fetch_add(1));
}

} // namespace

DiskStore::DiskStore(Config C) : Root(std::move(C.Dir)), MaxBytes(C.MaxBytes) {
  std::error_code EC;
  fs::create_directories(fs::path(Root) / "objects", EC);
  loadIndex();
}

std::string DiskStore::objectPath(const std::string &Digest) const {
  return (fs::path(Root) / "objects" / Digest.substr(0, 2) / Digest.substr(2))
      .string();
}

void DiskStore::loadIndex() {
  std::lock_guard<std::mutex> Lock(M);
  Lru.clear();
  ByDigest.clear();
  TotalBytes = 0;

  bool Parsed = false;
  std::ifstream In(fs::path(Root) / "index");
  if (In) {
    Parsed = true;
    std::string Line;
    while (std::getline(In, Line)) {
      size_t Space = Line.find(' ');
      if (Space == std::string::npos) {
        Parsed = false;
        break;
      }
      std::string Digest = Line.substr(0, Space);
      if (!isDigest(Digest) || ByDigest.count(Digest)) {
        Parsed = false;
        break;
      }
      uint64_t Bytes = 0;
      for (char Ch : Line.substr(Space + 1)) {
        if (Ch < '0' || Ch > '9') {
          Parsed = false;
          break;
        }
        Bytes = Bytes * 10 + static_cast<uint64_t>(Ch - '0');
      }
      if (!Parsed)
        break;
      std::error_code EC;
      if (!fs::exists(objectPath(Digest), EC))
        continue; // A crashed eviction removed the file first; drop it.
      Lru.push_back(IndexEntry{Digest, Bytes});
      ByDigest.emplace(Digest, std::prev(Lru.end()));
      TotalBytes += Bytes;
    }
  }
  if (Parsed)
    return;

  // Missing or damaged index: rebuild from the objects on disk, sorted
  // by digest so the recovered LRU order is deterministic.
  Lru.clear();
  ByDigest.clear();
  TotalBytes = 0;
  std::vector<IndexEntry> Found;
  std::error_code EC;
  for (const auto &SubDir :
       fs::directory_iterator(fs::path(Root) / "objects", EC)) {
    if (!SubDir.is_directory())
      continue;
    std::string Prefix = SubDir.path().filename().string();
    std::error_code EC2;
    for (const auto &Obj : fs::directory_iterator(SubDir.path(), EC2)) {
      std::string Digest = Prefix + Obj.path().filename().string();
      if (!Obj.is_regular_file() || !isDigest(Digest))
        continue;
      std::error_code EC3;
      uint64_t Bytes = static_cast<uint64_t>(fs::file_size(Obj.path(), EC3));
      if (EC3)
        continue;
      Found.push_back(IndexEntry{Digest, Bytes});
    }
  }
  std::sort(Found.begin(), Found.end(),
            [](const IndexEntry &A, const IndexEntry &B) {
              return A.Digest < B.Digest;
            });
  for (IndexEntry &E : Found) {
    TotalBytes += E.Bytes;
    Lru.push_back(std::move(E));
    ByDigest.emplace(Lru.back().Digest, std::prev(Lru.end()));
  }
  writeIndexLocked();
}

void DiskStore::writeIndexLocked() {
  fs::path Tmp = fs::path(Root) / (tempName() + ".index");
  {
    std::ofstream Out(Tmp, std::ios::trunc);
    if (!Out)
      return;
    for (const IndexEntry &E : Lru)
      Out << E.Digest << ' ' << E.Bytes << '\n';
    Out.flush();
    if (!Out) {
      std::error_code EC;
      fs::remove(Tmp, EC);
      return;
    }
  }
  std::error_code EC;
  fs::rename(Tmp, fs::path(Root) / "index", EC);
  if (EC)
    fs::remove(Tmp, EC);
}

void DiskStore::forgetLocked(const std::string &Digest) {
  auto It = ByDigest.find(Digest);
  if (It == ByDigest.end())
    return;
  TotalBytes -= It->second->Bytes;
  Lru.erase(It->second);
  ByDigest.erase(It);
}

void DiskStore::evictLocked() {
  if (!MaxBytes)
    return;
  while (TotalBytes > MaxBytes && Lru.size() > 1) {
    // Never evict the newest entry: a just-published object larger than
    // the whole budget should still survive until something else lands.
    IndexEntry Victim = Lru.front();
    std::error_code EC;
    fs::remove(objectPath(Victim.Digest), EC);
    forgetLocked(Victim.Digest);
    ++Count.Evictions;
  }
}

std::optional<ArtifactEntry> DiskStore::get(const ArtifactKey &K,
                                            FaultContext *Faults) {
  if (Faults && !Faults->checkpoint("store:read")) {
    // An unreadable store is a cold store: degrade to a miss and let
    // the session recompute.  The checkpoint already counted the fault.
    std::lock_guard<std::mutex> Lock(M);
    ++Count.Misses;
    return std::nullopt;
  }
  std::string Digest = keyDigest(K);
  std::string Path = objectPath(Digest);

  std::string Raw;
  {
    std::ifstream In(Path, std::ios::binary);
    if (!In) {
      std::lock_guard<std::mutex> Lock(M);
      ++Count.Misses;
      return std::nullopt;
    }
    std::ostringstream OS;
    OS << In.rdbuf();
    Raw = std::move(OS).str();
  }

  auto Corrupt = [&]() -> std::optional<ArtifactEntry> {
    std::error_code EC;
    fs::remove(Path, EC);
    std::lock_guard<std::mutex> Lock(M);
    forgetLocked(Digest);
    writeIndexLocked();
    ++Count.Corrupt;
    ++Count.Misses;
    return std::nullopt;
  };

  if (Raw.size() < HeaderBytes ||
      std::memcmp(Raw.data(), Magic, sizeof(Magic)) != 0)
    return Corrupt();
  ByteReader R(reinterpret_cast<const uint8_t *>(Raw.data()) + sizeof(Magic),
               Raw.size() - sizeof(Magic));
  uint32_t Pass = R.u32();
  uint64_t Inputs = R.u64();
  uint64_t Options = R.u64();
  uint64_t ContentHash = R.u64();
  uint64_t Bytes = R.u64();
  uint64_t PayloadSize = R.u64();
  uint64_t Checksum = R.u64();
  if (!R.ok() || Pass != K.Pass || Inputs != K.Inputs ||
      Options != K.Options || PayloadSize != R.remaining())
    return Corrupt();
  const uint8_t *Payload =
      reinterpret_cast<const uint8_t *>(Raw.data()) + HeaderBytes;
  if (payloadChecksum(Payload, static_cast<size_t>(PayloadSize)) != Checksum)
    return Corrupt();
  if (Pass >= NumPassKinds || !passHasCodec(static_cast<PassKind>(Pass)))
    return Corrupt();

  ByteReader PR(Payload, static_cast<size_t>(PayloadSize));
  std::shared_ptr<const void> Value =
      decodeArtifact(static_cast<PassKind>(Pass), PR);
  if (!Value || !PR.ok() || !PR.atEnd())
    return Corrupt();
  // The decoded artifact must hash to exactly what was published: a
  // decode that "succeeds" but perturbs the structure would silently
  // change downstream cache keys and outputs.
  if (artifactContentHash(static_cast<PassKind>(Pass), Value.get()) !=
      ContentHash)
    return Corrupt();

  std::lock_guard<std::mutex> Lock(M);
  auto It = ByDigest.find(Digest);
  if (It != ByDigest.end()) {
    // Refresh recency: move to the back (most recent) of the LRU list.
    Lru.splice(Lru.end(), Lru, It->second);
    writeIndexLocked();
  }
  ++Count.Hits;
  return ArtifactEntry{std::move(Value), ContentHash, Bytes};
}

uint64_t DiskStore::put(const ArtifactKey &K, const ArtifactEntry &E,
                        FaultContext *Faults) {
  if (K.Pass >= NumPassKinds || !passHasCodec(static_cast<PassKind>(K.Pass)))
    return 0;
  if (Faults && !Faults->checkpoint("store:write"))
    // Skip the write entirely — the index is only ever updated after a
    // completed rename, so a write fault can never poison it.  The
    // session still publishes to the memory tier and succeeds.
    return 0;

  std::string Digest = keyDigest(K);
  {
    std::lock_guard<std::mutex> Lock(M);
    if (ByDigest.count(Digest))
      return 0; // Already resident; artifacts are immutable per key.
  }

  ByteWriter W;
  encodeArtifact(static_cast<PassKind>(K.Pass), E.Value.get(), W);
  std::vector<uint8_t> Payload = W.take();

  ByteWriter H;
  for (char C : Magic)
    H.u8(static_cast<uint8_t>(C));
  H.u32(K.Pass);
  H.u64(K.Inputs);
  H.u64(K.Options);
  H.u64(E.ContentHash);
  H.u64(E.Bytes);
  H.u64(Payload.size());
  H.u64(payloadChecksum(Payload.data(), Payload.size()));

  std::string Path = objectPath(Digest);
  std::error_code EC;
  fs::create_directories(fs::path(Path).parent_path(), EC);
  fs::path Tmp = fs::path(Root) / "objects" / (tempName() + ".obj");
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return 0;
    Out.write(reinterpret_cast<const char *>(H.bytes().data()),
              static_cast<std::streamsize>(H.size()));
    Out.write(reinterpret_cast<const char *>(Payload.data()),
              static_cast<std::streamsize>(Payload.size()));
    Out.flush();
    if (!Out) {
      fs::remove(Tmp, EC);
      return 0;
    }
  }
  fs::rename(Tmp, Path, EC);
  if (EC) {
    fs::remove(Tmp, EC);
    return 0;
  }

  uint64_t FileBytes = HeaderBytes + Payload.size();
  std::lock_guard<std::mutex> Lock(M);
  if (!ByDigest.count(Digest)) {
    Lru.push_back(IndexEntry{Digest, FileBytes});
    ByDigest.emplace(Digest, std::prev(Lru.end()));
    TotalBytes += FileBytes;
  }
  ++Count.Writes;
  evictLocked();
  writeIndexLocked();
  return FileBytes;
}

bool DiskStore::contains(const ArtifactKey &K) const {
  std::lock_guard<std::mutex> Lock(M);
  return ByDigest.count(keyDigest(K)) != 0;
}

DiskStore::Counters DiskStore::counters() const {
  std::lock_guard<std::mutex> Lock(M);
  return Count;
}

size_t DiskStore::entries() const {
  std::lock_guard<std::mutex> Lock(M);
  return Lru.size();
}

uint64_t DiskStore::bytes() const {
  std::lock_guard<std::mutex> Lock(M);
  return TotalBytes;
}

//===----------------------------------------------------------------------===//
// TieredStore
//===----------------------------------------------------------------------===//

std::optional<ArtifactEntry> TieredStore::lookupOrLock(const ArtifactKey &K,
                                                       FaultContext *Faults) {
  std::optional<ArtifactEntry> Hit = Memory.lookupOrLock(K, Faults);
  if (Hit)
    return Hit;
  // This thread owns the key in the memory tier; only the owner probes
  // the disk, so concurrent sessions still read each object once.
  std::optional<ArtifactEntry> FromDisk = Disk.get(K, Faults);
  if (!FromDisk)
    return std::nullopt; // Caller computes, then publish()es/abandon()s.
  Memory.publish(K, *FromDisk, Faults);
  return FromDisk;
}

PublishResult TieredStore::publish(const ArtifactKey &K, ArtifactEntry E,
                                   FaultContext *Faults) {
  // Disk first: serialization reads the value the memory tier is about
  // to share, and a write fault must not block waiters any longer than
  // a clean write would.
  uint64_t DiskBytes = Disk.put(K, E, Faults);
  Memory.publish(K, std::move(E), Faults);
  return PublishResult{DiskBytes != 0, DiskBytes};
}

void TieredStore::abandon(const ArtifactKey &K) { Memory.abandon(K); }
