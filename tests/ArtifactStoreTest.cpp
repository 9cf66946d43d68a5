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

#include "TestUtil.h"
#include "codegen/LoopProgram.h"
#include "core/ArtifactCodec.h"
#include "core/ArtifactHash.h"
#include "core/Frustum.h"
#include "core/Session.h"
#include "core/SharedArtifactCache.h"
#include "livermore/Livermore.h"
#include "support/FaultInjection.h"
#include "support/HashStream.h"
#include "tools/DriverCore.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
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
    Names.emplace_back(CL.Pn->Net.transition(T).Name);
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

TEST(ArtifactStoreTest, StoredFrustumOfRejectedImportIsNotServed) {
  // One token, two transitions that both take it and put it back: not a
  // marked graph, so the frustum pass rejects it.  The simulator alone
  // does find a frustum, in which b never fires; a store written before
  // the gate existed holds it under the key the pass used then, which
  // fingerprinted only the budget and the engine.
  const std::string Choice =
      "<pnml><net id=\"onechoice\"><page id=\"g\">"
      "<place id=\"p\"><initialMarking><text>1</text></initialMarking>"
      "</place><transition id=\"a\"/><transition id=\"b\"/>"
      "<arc id=\"a0\" source=\"p\" target=\"a\"/>"
      "<arc id=\"a1\" source=\"a\" target=\"p\"/>"
      "<arc id=\"a2\" source=\"p\" target=\"b\"/>"
      "<arc id=\"a3\" source=\"b\" target=\"p\"/>"
      "</page></net></pnml>";
  FrustumOptions FO;
  uint64_t UngatedFp = HashStream(4)
                           .u64(FO.BudgetSteps)
                           .u64(static_cast<uint64_t>(FO.Engine))
                           .hash();
  TempDir Dir;
  ArtifactKey Stale;
  {
    Process Old(Dir.str());
    CompilationSession S(storeConfig(Old.Tiered));
    Expected<ArtifactRef<ExternalNet>> Ext = S.importPnml(Choice);
    ASSERT_TRUE(bool(Ext)) << Ext.status().str();
    Expected<FrustumInfo> F = detectFrustumChecked(
        (*Ext)->Net, nullptr, FrustumBudget::steps(FO.BudgetSteps));
    ASSERT_TRUE(bool(F)) << F.status().str();
    auto Ptr = std::make_shared<const FrustumInfo>(std::move(*F));
    Stale = {static_cast<uint32_t>(PassKind::Frustum), Ext->hash(),
             UngatedFp};
    ASSERT_GT(Old.Disk.put(Stale,
                           ArtifactEntry{Ptr, artifactHash(*Ptr),
                                         artifactSizeBytes(*Ptr)},
                           nullptr),
              0u);
  }

  Process Warm(Dir.str());
  // The stale object is intact and would be served under its old key.
  ASSERT_TRUE(Warm.Disk.get(Stale, nullptr).has_value());
  CompilationSession S(storeConfig(Warm.Tiered));
  Expected<ArtifactRef<ExternalNet>> Ext = S.importPnml(Choice);
  ASSERT_TRUE(bool(Ext)) << Ext.status().str();
  EXPECT_EQ(S.passStats(PassKind::ImportPnml).CacheHits, 1u);
  Expected<ArtifactRef<FrustumInfo>> F = S.searchFrustum(*Ext, FO);
  ASSERT_FALSE(bool(F));
  EXPECT_EQ(F.status().code(), ErrorCode::InvalidNet);
  EXPECT_EQ(F.status().message(), "net 'onechoice' is not a marked graph "
                                  "(frustum search needs one)");
  EXPECT_EQ(S.passStats(PassKind::Frustum).CacheHits, 0u);
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

TEST(ArtifactStoreTest, ScheduleWithFarApartTimesRoundTrips) {
  // A prologue end and a kernel length far beyond the firings (as a
  // long-latency operation makes them) are regenerated by a comparison
  // sort instead of one bucket per instant; the stream is still in
  // canonical order, and the codec round-trips it.
  const TimeStep Start = TimeStep(1) << 40, Period = 1'000'000;
  SoftwarePipelineSchedule::Builder B(3, Start, Period, 2);
  const TransitionId T0(0u), T1(1u), T2(2u);
  for (TransitionId T : {T2, T0, T2})
    B.countPrologue(T);
  B.startFill();
  EXPECT_TRUE(B.addPrologue(T2, 7));
  EXPECT_TRUE(B.addPrologue(T2, Start - 1));
  EXPECT_TRUE(B.addPrologue(T0, 7));
  for (TransitionId T : {T0, T1, T2}) {
    EXPECT_TRUE(B.addKernel(T, T == T1 ? 999'998 : 5));
    EXPECT_TRUE(B.addKernel(T, T == T1 ? 999'999 : 6));
  }
  ASSERT_TRUE(B.complete());
  SoftwarePipelineSchedule S = B.finish();

  std::vector<std::pair<TimeStep, uint32_t>> Pro, Kernel;
  S.forEachPrologueOp([&](TimeStep Time, TransitionId T, uint64_t) {
    Pro.emplace_back(Time, T.index());
  });
  S.forEachKernelOp([&](uint32_t Slot, TransitionId T, uint64_t) {
    Kernel.emplace_back(Slot, T.index());
  });
  using P = std::pair<TimeStep, uint32_t>;
  EXPECT_EQ(Pro, (std::vector<P>{{7, 0}, {7, 2}, {Start - 1, 2}}));
  EXPECT_EQ(Kernel, (std::vector<P>{{5, 0},
                                     {5, 2},
                                     {6, 0},
                                     {6, 2},
                                     {999'998, 1},
                                     {999'999, 1}}));

  ByteWriter W;
  encodeArtifact(PassKind::Schedule, &S, W);
  ByteReader R(W.bytes().data(), W.size());
  std::shared_ptr<const void> Decoded = decodeArtifact(PassKind::Schedule, R);
  ASSERT_NE(Decoded, nullptr);
  const auto &D = *static_cast<const SoftwarePipelineSchedule *>(Decoded.get());
  EXPECT_EQ(artifactHash(D), artifactHash(S));
  for (TransitionId T : {T0, T1, T2})
    for (uint64_t M = 0; M < 6; ++M)
      EXPECT_EQ(D.startTime(T, M), S.startTime(T, M));
}

TEST(ArtifactStoreTest, ScheduleOutOfCanonicalOrderIsCorruptAndRecomputed) {
  // The codec writes a schedule's firings by (time, id), then by (slot,
  // id) (core/Schedule.h), and the decoder rebuilds the index in that
  // order: a stored schedule whose first two prologue firings are
  // swapped is rejected, although it names the same start times, and
  // the store recomputes it.
  TempDir Dir;
  std::string ColdSummary;
  {
    Process Cold(Dir.str());
    ColdSummary = compileSummary(Cold.Tiered, kernelSource("loop7"));
  }
  constexpr size_t PassAt = 8, ChecksumAt = 8 + 4 + 8 * 5,
                   PayloadAt = ChecksumAt + 8;
  // The payload's header, then the prologue's count and its 20-byte ops.
  constexpr size_t OpsAt = PayloadAt + 3 * 8 + 4 + 8, OpBytes = 20;
  auto Read = [](const std::string &Raw, size_t At, size_t Bytes) {
    uint64_t V = 0;
    for (size_t I = 0; I < Bytes; ++I)
      V |= uint64_t{static_cast<uint8_t>(Raw[At + I])} << (8 * I);
    return V;
  };
  size_t Swapped = 0;
  for (auto &E : fs::recursive_directory_iterator(Dir.Path / "objects")) {
    if (!E.is_regular_file())
      continue;
    std::string Raw;
    {
      std::ifstream In(E.path(), std::ios::binary);
      std::ostringstream OS;
      OS << In.rdbuf();
      Raw = std::move(OS).str();
    }
    if (Read(Raw, PassAt, 4) != static_cast<uint32_t>(PassKind::Schedule))
      continue;
    ASSERT_GE(Read(Raw, OpsAt - 8, 8), 2u);
    // Two different transitions, each firing its iteration 0.
    ASSERT_NE(Read(Raw, OpsAt + 8, 4), Read(Raw, OpsAt + OpBytes + 8, 4));
    std::swap_ranges(Raw.begin() + OpsAt, Raw.begin() + OpsAt + OpBytes,
                     Raw.begin() + OpsAt + OpBytes);
    const uint8_t *Payload =
        reinterpret_cast<const uint8_t *>(Raw.data()) + PayloadAt;
    ByteReader R(Payload, Raw.size() - PayloadAt);
    EXPECT_EQ(decodeArtifact(PassKind::Schedule, R), nullptr);
    // A valid checksum, so only the decoder can tell.
    uint64_t Sum =
        HashStream(0x5d5370a0c5ULL)
            .str({reinterpret_cast<const char *>(Payload), Raw.size() - PayloadAt})
            .hash();
    for (int I = 0; I < 8; ++I)
      Raw[ChecksumAt + I] = static_cast<char>(Sum >> (8 * I));
    std::ofstream(E.path(), std::ios::binary | std::ios::trunc) << Raw;
    ++Swapped;
  }
  ASSERT_EQ(Swapped, 1u);

  Process Warm(Dir.str());
  EXPECT_EQ(compileSummary(Warm.Tiered, kernelSource("loop7")), ColdSummary);
  auto C = Warm.Disk.counters();
  EXPECT_EQ(C.Corrupt, 1u);
  EXPECT_EQ(C.Writes, 1u);
}

/// The ways a stored loop program can index past what the VM holds.
enum class ProgramMutation {
  None,
  RingCapacityZero,
  RingDistancePastInitialValues,
  RingPastRegisters,
  WritePastRegisters,
  WriteToPort7,
  BinaryOpWithOneOperand,
  MoreOpsThanTransitions,
  /// Not out of bounds: the decoder cannot know which streams a run
  /// supplies, so the run itself must reject this one.
  FirstStreamRenamed,
};

/// A copy of \p P with the first place \p M applies to broken.
LoopProgram mutatedProgram(const LoopProgram &P, ProgramMutation M) {
  using MK = ProgramMutation;
  LoopProgram Out(
      std::make_shared<const SoftwarePipelineSchedule>(P.schedule()));
  bool Done = M == MK::None;
  auto Copy = [&](const VmOp &Op) {
    Out.addOp(Op.Kind, Op.Name, Op.ExecTime);
    size_t NumOperands = Op.Operands.size();
    if (!Done && M == MK::BinaryOpWithOneOperand && NumOperands == 2) {
      NumOperands = 1;
      Done = true;
    }
    for (size_t I = 0; I < NumOperands; ++I) {
      OperandRef O = Op.Operands[I];
      if (!Done && M == MK::FirstStreamRenamed &&
          O.K == OperandRef::Kind::Stream) {
        O.StreamName = "nosuch";
        Done = true;
      }
      if (!Done && O.K == OperandRef::Kind::Ring) {
        Done = true;
        if (M == MK::RingCapacityZero)
          O.Capacity = 0;
        else if (M == MK::RingDistancePastInitialValues)
          O.Distance = static_cast<uint32_t>(O.InitialValues.size()) + 1;
        else if (M == MK::RingPastRegisters)
          O.Base = P.numRegisters();
        else
          Done = false;
      }
      Out.addOperand(O);
    }
    for (WriteRef W : Op.Writes) {
      if (!Done && M == MK::WritePastRegisters) {
        W.Base = P.numRegisters();
        Done = true;
      } else if (!Done && M == MK::WriteToPort7) {
        W.Port = 7;
        Done = true;
      }
      Out.addWrite(W);
    }
    for (std::string_view C : Op.Captures)
      Out.addCapture(C);
  };
  for (const VmOp &Op : P.ops())
    Copy(Op);
  if (M == MK::MoreOpsThanTransitions) {
    Copy(P.ops()[0]);
    Done = true;
  }
  EXPECT_TRUE(Done) << "mutation " << static_cast<int>(M) << " found no site";
  Out.setNumRegisters(P.numRegisters());
  return Out;
}

TEST(ArtifactStoreTest, ProgramTheVmWouldIndexOutOfBoundsIsCorrupt) {
  // sdspc --run executes a program served from the store, so the
  // decoder must reject every program the VM would index past its
  // register file, result ports, operands or schedule.
  CompilationSession S;
  PipelineOptions O;
  O.Capacity = 2;
  auto G = S.lower(kernelSource("loop7"));
  ASSERT_TRUE(G);
  auto Sd = S.buildSdsp(*G, O.Capacity, false);
  ASSERT_TRUE(Sd);
  auto Pn = S.buildPn(*Sd);
  ASSERT_TRUE(Pn);
  auto F = S.searchFrustum(*Pn, FrustumOptions{});
  ASSERT_TRUE(F);
  auto Sched = S.deriveSchedule(*Sd, *Pn, *F, O.ValidateIterations);
  ASSERT_TRUE(Sched);
  auto P = S.generateProgram(*Sd, *Pn, *Sched);
  ASSERT_TRUE(P);

  using MK = ProgramMutation;
  for (MK M : {MK::None, MK::RingCapacityZero,
               MK::RingDistancePastInitialValues, MK::RingPastRegisters,
               MK::WritePastRegisters, MK::WriteToPort7,
               MK::BinaryOpWithOneOperand, MK::MoreOpsThanTransitions}) {
    LoopProgram Mutated = mutatedProgram(**P, M);
    ByteWriter W;
    encodeArtifact(PassKind::Codegen, &Mutated, W);
    ByteReader R(W.bytes().data(), W.size());
    std::shared_ptr<const void> Decoded = decodeArtifact(PassKind::Codegen, R);
    if (M == MK::None)
      EXPECT_NE(Decoded, nullptr) << "the unmutated program";
    else
      EXPECT_EQ(Decoded, nullptr) << "mutation " << static_cast<int>(M);
  }
}

/// Remembers the last artifact a session publishes for one pass.
class CapturingStore final : public ArtifactStore {
public:
  explicit CapturingStore(PassKind K) : K(K) {}
  ArtifactKey Key;
  ArtifactEntry Entry;

  std::optional<ArtifactEntry> lookupOrLock(const ArtifactKey &,
                                            FaultContext *) override {
    return std::nullopt;
  }
  PublishResult publish(const ArtifactKey &Key, ArtifactEntry E,
                        FaultContext *) override {
    if (Key.Pass == static_cast<uint32_t>(K)) {
      this->Key = Key;
      Entry = std::move(E);
    }
    return {};
  }
  void abandon(const ArtifactKey &) override {}

private:
  PassKind K;
};

TEST(ArtifactStoreTest, StoredProgramReadingAnUnsuppliedStreamFailsTheRun) {
  // What `sdspc -k loop7 --run=8` publishes for the codegen pass.
  CapturingStore Capture(PassKind::Codegen);
  {
    CompilationSession S(storeConfig(Capture));
    PipelineOptions O;
    auto G = S.lower(kernelSource("loop7"));
    ASSERT_TRUE(G);
    auto Sd = S.buildSdsp(*G, O.Capacity, false);
    ASSERT_TRUE(Sd);
    auto Pn = S.buildPn(*Sd);
    ASSERT_TRUE(Pn);
    auto F = S.searchFrustum(*Pn, FrustumOptions{});
    ASSERT_TRUE(F);
    auto Sched = S.deriveSchedule(*Sd, *Pn, *F, O.ValidateIterations);
    ASSERT_TRUE(Sched);
    ASSERT_TRUE(S.generateProgram(*Sd, *Pn, *Sched));
  }
  ASSERT_NE(Capture.Entry.Value, nullptr);
  const auto &P = *static_cast<const LoopProgram *>(Capture.Entry.Value.get());

  // The program with its first stream operand renamed still decodes.
  LoopProgram Renamed = mutatedProgram(P, ProgramMutation::FirstStreamRenamed);
  ByteWriter W;
  encodeArtifact(PassKind::Codegen, &Renamed, W);
  ByteReader R(W.bytes().data(), W.size());
  auto Decoded = std::static_pointer_cast<const LoopProgram>(
      decodeArtifact(PassKind::Codegen, R));
  ASSERT_NE(Decoded, nullptr);

  // Run straight from the store: exit 1, naming the stream.  The driver
  // reads the store only with the cache on, so this run turns it on
  // whatever SDSP_DISABLE_ARTIFACT_CACHE says (and restores it).
  struct CacheOn {
    std::optional<std::string> Saved;
    CacheOn() {
      if (const char *V = std::getenv("SDSP_DISABLE_ARTIFACT_CACHE"))
        Saved = V;
      unsetenv("SDSP_DISABLE_ARTIFACT_CACHE");
    }
    ~CacheOn() {
      if (Saved)
        setenv("SDSP_DISABLE_ARTIFACT_CACHE", Saved->c_str(), 1);
    }
  } Guard;
  TempDir Dir;
  Process Proc(Dir.str());
  ASSERT_GT(Proc.Disk.put(Capture.Key,
                          ArtifactEntry{Decoded, artifactHash(*Decoded),
                                        artifactSizeBytes(*Decoded)},
                          nullptr),
            0u);
  driver::Options Opts;
  std::ostringstream Out, Err;
  ASSERT_EQ(driver::parseArgs({"-k", "loop7", "--run=8"}, Opts, Out, Err),
            driver::ParseResult::Ok);
  driver::Env E;
  E.Store = &Proc.Tiered;
  E.Memory = &Proc.Memory;
  E.Disk = &Proc.Disk;
  EXPECT_EQ(driver::run(Opts, E, Out, Err), 1) << Err.str();
  EXPECT_EQ(Proc.Disk.counters().Hits, 1u);
  EXPECT_NE(Err.str().find("input stream 'nosuch'"), std::string::npos)
      << Err.str();
  EXPECT_EQ(Out.str().find("executed"), std::string::npos) << Out.str();
}

TEST(ArtifactStoreTest, FirstFormatObjectIsCorruptAndRecomputed) {
  // A store written before the block hasher holds "SDSPSTO1" objects
  // whose checksum is FNV-1a.  Even one that sits at a current key's
  // path must be counted corrupt and recomputed, never served.
  TempDir Dir;
  std::string ColdSummary;
  uint64_t Objects = 0;
  {
    Process Cold(Dir.str());
    ColdSummary = compileSummary(Cold.Tiered, kernelSource("loop7"));
    Objects = Cold.Disk.entries();
    ASSERT_GT(Objects, 0u);
  }
  constexpr size_t ChecksumAt = 8 + 4 + 8 * 5, PayloadAt = ChecksumAt + 8;
  for (auto &E : fs::recursive_directory_iterator(Dir.Path / "objects")) {
    if (!E.is_regular_file())
      continue;
    std::string Raw;
    {
      std::ifstream In(E.path(), std::ios::binary);
      std::ostringstream OS;
      OS << In.rdbuf();
      Raw = std::move(OS).str();
    }
    ASSERT_GT(Raw.size(), PayloadAt);
    ASSERT_EQ(Raw.compare(0, 8, "SDSPSTO2"), 0);
    const uint64_t Fnv = testutil::fnv1a64(
        {reinterpret_cast<const uint8_t *>(Raw.data()) + PayloadAt,
         Raw.size() - PayloadAt});
    Raw.replace(0, 8, "SDSPSTO1");
    for (int I = 0; I < 8; ++I)
      Raw[ChecksumAt + I] = static_cast<char>(Fnv >> (8 * I));
    std::ofstream(E.path(), std::ios::binary | std::ios::trunc) << Raw;
  }

  Process Warm(Dir.str());
  EXPECT_EQ(compileSummary(Warm.Tiered, kernelSource("loop7")), ColdSummary);
  auto C = Warm.Disk.counters();
  EXPECT_EQ(C.Hits, 0u);
  EXPECT_EQ(C.Corrupt, Objects);
  EXPECT_EQ(C.Writes, Objects);
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
