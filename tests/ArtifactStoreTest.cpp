//===- tests/ArtifactStoreTest.cpp - Persistent artifact-store tests -------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
//
// Pins the tiered persistent store (core/ArtifactStore.h): a cold
// process over a warm directory serves every cacheable pass from disk
// with byte-identical results, corrupt objects degrade to recompute
// (and are healed), an injected store:write fault skips the write
// without poisoning the index, the byte budget evicts LRU objects, and
// a lost index is rebuilt by scanning objects/.
//
//===----------------------------------------------------------------------===//

#include "core/ArtifactStore.h"

#include "core/ArtifactCodec.h"
#include "core/Session.h"
#include "core/SharedArtifactCache.h"
#include "livermore/Livermore.h"
#include "support/FaultInjection.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

using namespace sdsp;
namespace fs = std::filesystem;

namespace {

/// A unique scratch directory, removed on destruction.
struct TempDir {
  fs::path Path;

  TempDir() {
    std::random_device RD;
    std::ostringstream Name;
    Name << "sdsp-store-test-" << std::hex << RD() << RD();
    Path = fs::temp_directory_path() / Name.str();
    fs::create_directories(Path);
  }
  ~TempDir() {
    std::error_code EC;
    fs::remove_all(Path, EC);
  }
  std::string str() const { return Path.string(); }
};

const std::string &kernelSource(const std::string &Id) {
  const LivermoreKernel *K = findKernel(Id);
  EXPECT_NE(K, nullptr) << Id;
  return K->Source;
}

/// One "process": a fresh memory tier over the (persistent) disk tier.
struct Process {
  MemoryStore Memory;
  DiskStore Disk;
  TieredStore Tiered;

  explicit Process(const std::string &Dir, uint64_t MaxBytes = 0)
      : Disk(DiskStore::Config{Dir, MaxBytes}), Tiered(Memory, Disk) {}
};

SessionConfig storeConfig(ArtifactStore &Store,
                          FaultContext *Faults = nullptr) {
  SessionConfig SC;
  SC.Store = &Store;
  SC.EnableCache = true;
  SC.Faults = Faults;
  return SC;
}

/// Renders the bytes a byte-identical recompile must reproduce: rate,
/// frustum, and the full schedule table.
std::string summarize(const CompiledLoop &CL) {
  std::ostringstream OS;
  OS << CL.Rate->OptimalRate << " [" << CL.Frustum->StartTime << ", "
     << CL.Frustum->RepeatTime << ")\n";
  std::vector<std::string> Names;
  for (TransitionId T : CL.Pn->Net.transitionIds())
    Names.push_back(CL.Pn->Net.transition(T).Name);
  CL.Schedule->print(OS, Names);
  return OS.str();
}

/// Compiles \p Source in \p S (--verify semantics) and summarizes.
std::string compileIn(CompilationSession &S, const std::string &Source) {
  PipelineOptions PO;
  PO.Verify = true;
  auto R = S.compile(Source, PO);
  EXPECT_TRUE(R) << R.status().str();
  return R ? summarize(*R) : "<failed>";
}

/// One-shot: a throwaway session over \p Store.
std::string compileSummary(ArtifactStore &Store, const std::string &Source,
                           FaultContext *Faults = nullptr) {
  CompilationSession S(storeConfig(Store, Faults));
  return compileIn(S, Source);
}

/// Total invocations of cache-registered passes in \p S, and how many
/// of them were answered from the store.
void cachedPassCounts(const CompilationSession &S, uint64_t &Invocations,
                      uint64_t &Hits) {
  Invocations = Hits = 0;
  for (size_t P = 0; P < NumPassKinds; ++P) {
    if (!passInfo(static_cast<PassKind>(P)).Cached)
      continue;
    Invocations += S.passStats(static_cast<PassKind>(P)).Invocations;
    Hits += S.passStats(static_cast<PassKind>(P)).CacheHits;
  }
}

size_t objectFileCount(const fs::path &Dir) {
  size_t N = 0;
  std::error_code EC;
  for (auto It = fs::recursive_directory_iterator(Dir / "objects", EC);
       It != fs::recursive_directory_iterator(); ++It)
    if (It->is_regular_file())
      ++N;
  return N;
}

size_t indexLineCount(const fs::path &Dir) {
  std::ifstream In(Dir / "index");
  size_t N = 0;
  std::string Line;
  while (std::getline(In, Line))
    if (!Line.empty())
      ++N;
  return N;
}

//===----------------------------------------------------------------------===//
// Cold-restart persistence.
//===----------------------------------------------------------------------===//

TEST(ArtifactStoreTest, ColdRestartServesLivermoreKernelsFromDisk) {
  // The acceptance shape (docs/SERVICE.md): compile the six Livermore
  // kernels, tear the process-local tiers down, and recompile cold —
  // every cacheable pass is a disk hit and the output is byte-identical.
  const char *Kernels[] = {"loop1", "loop3", "loop5",
                           "loop7", "loop9", "loop12"};
  for (const char *Id : Kernels) {
    TempDir Dir;
    std::string ColdSummary;
    uint64_t ColdWrites = 0;
    {
      Process Cold(Dir.str());
      ColdSummary = compileSummary(Cold.Tiered, kernelSource(Id));
      auto C = Cold.Disk.counters();
      EXPECT_GT(C.Writes, 0u) << Id;
      EXPECT_EQ(C.Hits, 0u) << Id;
      ColdWrites = C.Writes;
      EXPECT_EQ(Cold.Disk.entries(), ColdWrites) << Id;
    } // The memory tier dies with the "process"; the directory stays.

    Process Warm(Dir.str());
    CompilationSession S(storeConfig(Warm.Tiered));
    std::string WarmSummary = compileIn(S, kernelSource(Id));
    EXPECT_EQ(WarmSummary, ColdSummary) << Id;

    // Every cacheable pass was answered from the store, and the store
    // answered every distinct key from disk without recomputing or
    // rewriting anything.
    uint64_t Invocations = 0, Hits = 0;
    cachedPassCounts(S, Invocations, Hits);
    EXPECT_GT(Invocations, 0u) << Id;
    EXPECT_EQ(Hits, Invocations) << Id;
    auto C = Warm.Disk.counters();
    EXPECT_EQ(C.Hits, ColdWrites) << Id;
    EXPECT_EQ(C.Misses, 0u) << Id;
    EXPECT_EQ(C.Writes, 0u) << Id;
    EXPECT_EQ(C.Corrupt, 0u) << Id;
  }
}

TEST(ArtifactStoreTest, TwoProcessesOverOneDirectoryAgree) {
  // Two live "processes" pointed at one directory: whichever writes
  // first, the other reads, and both summaries match the single-process
  // result.
  TempDir Dir;
  Process A(Dir.str()), B(Dir.str());
  std::string FromA = compileSummary(A.Tiered, kernelSource("loop7"));
  std::string FromB = compileSummary(B.Tiered, kernelSource("loop7"));
  EXPECT_EQ(FromA, FromB);
  EXPECT_EQ(B.Disk.counters().Writes, 0u); // A's objects answered B.
  EXPECT_GT(B.Disk.counters().Hits, 0u);
}

//===----------------------------------------------------------------------===//
// Corruption tolerance.
//===----------------------------------------------------------------------===//

TEST(ArtifactStoreTest, CorruptObjectDegradesToRecomputeAndHeals) {
  TempDir Dir;
  std::string ColdSummary;
  {
    Process Cold(Dir.str());
    ColdSummary = compileSummary(Cold.Tiered, kernelSource("loop7"));
    ASSERT_GT(Cold.Disk.entries(), 0u);
  }

  // Garble the first object: keep the length (so this is payload
  // corruption, not a torn write) but flip the bytes.
  fs::path Victim;
  for (auto &E : fs::recursive_directory_iterator(Dir.Path / "objects"))
    if (E.is_regular_file()) {
      Victim = E.path();
      break;
    }
  ASSERT_FALSE(Victim.empty());
  {
    std::fstream F(Victim,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(F.good());
    F.seekp(0);
    for (int I = 0; I < 64; ++I)
      F.put(static_cast<char>(0xAA));
  }

  Process Warm(Dir.str());
  std::string WarmSummary = compileSummary(Warm.Tiered, kernelSource("loop7"));
  EXPECT_EQ(WarmSummary, ColdSummary);
  auto C = Warm.Disk.counters();
  EXPECT_GE(C.Corrupt, 1u);  // Rejected and unlinked...
  EXPECT_GE(C.Writes, 1u);   // ...then healed from the recompute.
  EXPECT_FALSE(fs::exists(Victim) &&
               fs::file_size(Victim) == 0); // Never left half-dead.

  // The healed store is fully warm again.
  Process Again(Dir.str());
  compileSummary(Again.Tiered, kernelSource("loop7"));
  EXPECT_EQ(Again.Disk.counters().Misses, 0u);
  EXPECT_EQ(Again.Disk.counters().Corrupt, 0u);
}

TEST(ArtifactStoreTest, TruncatedObjectIsRejected) {
  TempDir Dir;
  {
    Process Cold(Dir.str());
    compileSummary(Cold.Tiered, kernelSource("loop1"));
  }
  fs::path Victim;
  for (auto &E : fs::recursive_directory_iterator(Dir.Path / "objects"))
    if (E.is_regular_file()) {
      Victim = E.path();
      break;
    }
  ASSERT_FALSE(Victim.empty());
  fs::resize_file(Victim, fs::file_size(Victim) / 2);

  Process Warm(Dir.str());
  std::string Summary = compileSummary(Warm.Tiered, kernelSource("loop1"));
  EXPECT_NE(Summary, "<failed>");
  EXPECT_GE(Warm.Disk.counters().Corrupt, 1u);
}

/// The encoded header of a schedule artifact: transition count, prologue
/// end, kernel length p and iterations per kernel k.
ByteWriter scheduleHeader(uint64_t NumTransitions, uint64_t Start,
                          uint64_t Period, uint32_t K) {
  ByteWriter W;
  W.u64(NumTransitions);
  W.u64(Start);
  W.u64(Period);
  W.u32(K);
  return W;
}

TEST(ArtifactStoreTest, ScheduleClaimingHugeTransitionCountIsCorrupt) {
  // 44 bytes claiming 2^40 transitions and no ops: the count must be
  // bounded by the buffer before it sizes any allocation, so the object
  // decodes as corrupt instead of throwing std::bad_alloc.
  ByteWriter W = scheduleHeader(uint64_t(1) << 40, 0, 1, 1);
  W.u64(0); // prologue ops
  W.u64(0); // kernel ops
  ASSERT_EQ(W.size(), 44u);
  ByteReader R(W.bytes().data(), W.size());
  std::shared_ptr<const void> Decoded;
  EXPECT_NO_THROW(Decoded = decodeArtifact(PassKind::Schedule, R));
  EXPECT_EQ(Decoded, nullptr);
}

TEST(ArtifactStoreTest, ScheduleWithIncompleteKernelIsCorrupt) {
  // startTime() indexes k kernel slots per transition; a transition
  // with fewer (here: none for t1, one of two for t0) is rejected.
  auto Encode = [](uint32_t OpsT0, uint32_t OpsT1) {
    ByteWriter W = scheduleHeader(2, 0, 4, 2);
    W.u64(0); // prologue ops
    W.u64(OpsT0 + OpsT1);
    for (uint32_t I = 0; I < OpsT0; ++I) {
      W.u32(I); // slot
      W.u32(0); // transition
      W.u64(I); // first iteration
    }
    for (uint32_t I = 0; I < OpsT1; ++I) {
      W.u32(2 + I);
      W.u32(1);
      W.u64(I);
    }
    return W;
  };
  ByteWriter Whole = Encode(2, 2);
  ByteReader WholeR(Whole.bytes().data(), Whole.size());
  EXPECT_NE(decodeArtifact(PassKind::Schedule, WholeR), nullptr);
  for (auto [T0, T1] : {std::pair{2u, 0u}, std::pair{1u, 2u}}) {
    ByteWriter W = Encode(T0, T1);
    ByteReader R(W.bytes().data(), W.size());
    EXPECT_EQ(decodeArtifact(PassKind::Schedule, R), nullptr)
        << T0 << " + " << T1 << " kernel ops";
  }
}

//===----------------------------------------------------------------------===//
// Fault injection (docs/ROBUSTNESS.md).
//===----------------------------------------------------------------------===//

TEST(ArtifactStoreTest, WriteFaultSkipsObjectAndNeverPoisonsIndex) {
  TempDir Dir;
  Expected<FaultSchedule> Sched = FaultSchedule::parse("store:write:fail@1");
  ASSERT_TRUE(Sched) << Sched.status().str();
  FaultContext FC(&*Sched, "test");

  uint64_t SurvivingWrites = 0;
  std::string ColdSummary;
  {
    Process Cold(Dir.str());
    ColdSummary = compileSummary(Cold.Tiered, kernelSource("loop7"), &FC);
    ASSERT_NE(ColdSummary, "<failed>"); // The job absorbed the fault.
    auto C = Cold.Disk.counters();
    SurvivingWrites = C.Writes;
    EXPECT_GT(SurvivingWrites, 0u);
    // The skipped object left no trace: index, directory and counters
    // all agree on exactly the objects that completed their rename.
    EXPECT_EQ(Cold.Disk.entries(), SurvivingWrites);
    EXPECT_EQ(indexLineCount(Dir.Path), SurvivingWrites);
    EXPECT_EQ(objectFileCount(Dir.Path), SurvivingWrites);
  }

  // A cold process over the partial store: the surviving objects hit,
  // the skipped one recomputes (a miss) and is persisted this time.
  Process Warm(Dir.str());
  std::string WarmSummary = compileSummary(Warm.Tiered, kernelSource("loop7"));
  EXPECT_EQ(WarmSummary, ColdSummary);
  auto C = Warm.Disk.counters();
  EXPECT_EQ(C.Hits, SurvivingWrites);
  EXPECT_EQ(C.Misses, 1u);
  EXPECT_EQ(C.Writes, 1u);
  EXPECT_EQ(Warm.Disk.entries(), SurvivingWrites + 1);
}

TEST(ArtifactStoreTest, ReadFaultDegradesToRecompute) {
  TempDir Dir;
  std::string ColdSummary;
  uint64_t Entries = 0;
  {
    Process Cold(Dir.str());
    ColdSummary = compileSummary(Cold.Tiered, kernelSource("loop1"));
    Entries = Cold.Disk.entries();
    ASSERT_GT(Entries, 0u);
  }

  Expected<FaultSchedule> Sched = FaultSchedule::parse("store:read:fail@1");
  ASSERT_TRUE(Sched) << Sched.status().str();
  FaultContext FC(&*Sched, "test");
  Process Warm(Dir.str());
  std::string WarmSummary =
      compileSummary(Warm.Tiered, kernelSource("loop1"), &FC);
  EXPECT_EQ(WarmSummary, ColdSummary);
  auto C = Warm.Disk.counters();
  EXPECT_EQ(C.Misses, 1u); // The faulted read, recomputed.
  EXPECT_EQ(C.Hits, Entries - 1);
  EXPECT_EQ(C.Corrupt, 0u); // A read fault is not a corrupt object.
}

//===----------------------------------------------------------------------===//
// Eviction and index recovery.
//===----------------------------------------------------------------------===//

TEST(ArtifactStoreTest, ByteBudgetEvictsLeastRecentlyUsed) {
  TempDir Dir;
  uint64_t Unbounded = 0;
  {
    Process Cold(Dir.str());
    compileSummary(Cold.Tiered, kernelSource("loop7"));
    Unbounded = Cold.Disk.bytes();
    ASSERT_GT(Unbounded, 0u);
  }

  TempDir Small;
  Process Tight(Small.str(), /*MaxBytes=*/Unbounded / 2);
  std::string Summary = compileSummary(Tight.Tiered, kernelSource("loop7"));
  EXPECT_NE(Summary, "<failed>"); // Eviction never fails the compile.
  auto C = Tight.Disk.counters();
  EXPECT_GT(C.Evictions, 0u);
  EXPECT_GE(Tight.Disk.entries(), 1u); // The newest entry always survives.
  EXPECT_EQ(objectFileCount(Small.Path), Tight.Disk.entries());
  EXPECT_EQ(indexLineCount(Small.Path), Tight.Disk.entries());

  // A reopened store sees exactly the survivors.
  DiskStore Reopened(DiskStore::Config{Small.str(), 0});
  EXPECT_EQ(Reopened.entries(), Tight.Disk.entries());
  EXPECT_EQ(Reopened.bytes(), Tight.Disk.bytes());
}

TEST(ArtifactStoreTest, MissingIndexIsRebuiltByScanningObjects) {
  TempDir Dir;
  uint64_t Entries = 0, Bytes = 0;
  std::string ColdSummary;
  {
    Process Cold(Dir.str());
    ColdSummary = compileSummary(Cold.Tiered, kernelSource("loop12"));
    Entries = Cold.Disk.entries();
    Bytes = Cold.Disk.bytes();
  }
  fs::remove(Dir.Path / "index");

  Process Warm(Dir.str());
  EXPECT_EQ(Warm.Disk.entries(), Entries);
  EXPECT_EQ(Warm.Disk.bytes(), Bytes);
  std::string WarmSummary = compileSummary(Warm.Tiered, kernelSource("loop12"));
  EXPECT_EQ(WarmSummary, ColdSummary);
  EXPECT_EQ(Warm.Disk.counters().Misses, 0u);
}

TEST(ArtifactStoreTest, GarbageIndexFallsBackToScan) {
  TempDir Dir;
  uint64_t Entries = 0;
  {
    Process Cold(Dir.str());
    compileSummary(Cold.Tiered, kernelSource("loop1"));
    Entries = Cold.Disk.entries();
  }
  {
    std::ofstream Out(Dir.Path / "index", std::ios::trunc);
    Out << "this is not an index\nnor this line either\n";
  }
  Process Warm(Dir.str());
  EXPECT_EQ(Warm.Disk.entries(), Entries);
  Process Again(Dir.str());
  compileSummary(Again.Tiered, kernelSource("loop1"));
  EXPECT_EQ(Again.Disk.counters().Misses, 0u);
}

//===----------------------------------------------------------------------===//
// Interface conformance: MemoryStore and TieredStore are
// interchangeable behind ArtifactStore.
//===----------------------------------------------------------------------===//

TEST(ArtifactStoreTest, MemoryAndTieredStoresProduceIdenticalOutput) {
  TempDir Dir;
  MemoryStore Plain;
  std::string FromMemory = compileSummary(Plain, kernelSource("loop5"));

  Process Tiered(Dir.str());
  std::string FromTiered = compileSummary(Tiered.Tiered, kernelSource("loop5"));
  EXPECT_EQ(FromMemory, FromTiered);

  SessionConfig Off;
  Off.EnableCache = false;
  CompilationSession Uncached(Off);
  PipelineOptions PO;
  PO.Verify = true;
  auto R = Uncached.compile(kernelSource("loop5"), PO);
  ASSERT_TRUE(R) << R.status().str();
  EXPECT_EQ(summarize(*R), FromMemory);
}

} // namespace
