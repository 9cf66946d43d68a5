//===- tests/ArtifactHashGoldenTest.cpp - Cross-version artifact pins -----===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
//
// A persistent store written by one build must still hit under the
// next: the object of a pass is found by its store key (inputs hash,
// options fingerprint) and accepted only when it decodes to the content
// hash recorded at publish.  This test recomputes, for every pass of a
// fixed set of compiles, the key, the content hash and an FNV-1a of the
// encoded payload, and compares them with tests/golden/
// artifact-hashes.txt.  A change that moves any of them invalidates
// every store written before it; such a change must say so and
// regenerate the table (the test writes the recomputed table to
// artifact-hashes.actual.txt in its working directory on a mismatch).
//
// Inputs: the nine bundled kernels at unroll 1 and 8 and capacity 1
// and 2 (lower through codegen), loop7 on the SCP machine at depth 2,
// and an import of tests/pnml-corpus/ring.pnml with its rate, frustum
// and canonical re-export.
//
// The same artifacts, every import of the corpus and single-field
// edits of each (a token, an execution time, a name byte, two adjacent
// list entries swapped, an ack slot, a kernel slot, a trace entry) also
// pin the hash to structural identity: two artifacts of a kind hash
// equal exactly when their codec encodings are byte-equal.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "codegen/LoopProgram.h"
#include "core/ArtifactCodec.h"
#include "core/ArtifactStore.h"
#include "core/Frustum.h"
#include "core/RateAnalysis.h"
#include "core/ScpModel.h"
#include "core/Session.h"
#include "livermore/Livermore.h"
#include "support/Bytes.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

using namespace sdsp;

namespace {

/// A store that never hits and records every publish as one table row,
/// keeping the artifact.
class RecordingStore final : public ArtifactStore {
public:
  std::string Case;
  std::vector<std::string> Rows;
  std::vector<std::pair<PassKind, std::shared_ptr<const void>>> Artifacts;

  std::optional<ArtifactEntry> lookupOrLock(const ArtifactKey &,
                                            FaultContext *) override {
    return std::nullopt;
  }

  PublishResult publish(const ArtifactKey &K, ArtifactEntry E,
                        FaultContext *) override {
    PassKind P = static_cast<PassKind>(K.Pass);
    EXPECT_EQ(E.ContentHash, artifactContentHash(P, E.Value.get()))
        << Case << " " << passInfo(P).Id;
    ByteWriter W;
    encodeArtifact(P, E.Value.get(), W);
    const std::vector<uint8_t> &Bytes = W.bytes();
    char Row[160];
    std::snprintf(Row, sizeof(Row), "%s %s %016llx %016llx %016llx %016llx",
                  Case.c_str(), passInfo(P).Id,
                  static_cast<unsigned long long>(K.Inputs),
                  static_cast<unsigned long long>(K.Options),
                  static_cast<unsigned long long>(E.ContentHash),
                  static_cast<unsigned long long>(testutil::fnv1a64(Bytes)));
    Rows.push_back(Row);
    Artifacts.emplace_back(P, E.Value);
    return {};
  }

  void abandon(const ArtifactKey &) override {}
};

/// lower -> [transform] -> sdsp -> sdsp-pn -> rate -> frustum ->
/// schedule -> codegen, the passes `sdspc --emit=program` runs.
void compileIdeal(CompilationSession &S, const std::string &Source,
                  uint32_t Unroll, uint32_t Capacity) {
  PipelineOptions O;
  Expected<ArtifactRef<DataflowGraph>> G = S.lower(Source);
  ASSERT_TRUE(G) << G.status().str();
  ArtifactRef<DataflowGraph> Graph = *G;
  if (Unroll > 1) {
    Expected<ArtifactRef<TransformedGraph>> T =
        S.transform(Graph, false, Unroll);
    ASSERT_TRUE(T) << T.status().str();
    Graph = S.transformedGraph(*T);
  }
  Expected<ArtifactRef<SdspArtifact>> Sd =
      S.buildSdsp(Graph, Capacity, false);
  ASSERT_TRUE(Sd) << Sd.status().str();
  Expected<ArtifactRef<SdspPn>> Pn = S.buildPn(*Sd);
  ASSERT_TRUE(Pn) << Pn.status().str();
  ASSERT_TRUE(S.computeRate(*Pn));
  Expected<ArtifactRef<FrustumInfo>> F =
      S.searchFrustum(*Pn, FrustumOptions{O.FrustumBudgetSteps, O.Engine});
  ASSERT_TRUE(F) << F.status().str();
  Expected<ArtifactRef<SoftwarePipelineSchedule>> Sched =
      S.deriveSchedule(*Sd, *Pn, *F, O.ValidateIterations);
  ASSERT_TRUE(Sched) << Sched.status().str();
  ASSERT_TRUE(S.generateProgram(*Sd, *Pn, *Sched));
}

/// Runs the table's compiles and imports over \p Store.
void runGoldenSet(RecordingStore &Store) {
  SessionConfig Config;
  Config.EnableCache = true;
  Config.Store = &Store;

  for (const LivermoreKernel &K : livermoreKernels())
    for (uint32_t Unroll : {1u, 8u})
      for (uint32_t Capacity : {1u, 2u}) {
        Store.Case = K.Id + "/u" + std::to_string(Unroll) + "/c" +
                     std::to_string(Capacity);
        CompilationSession S(Config);
        compileIdeal(S, K.Source, Unroll, Capacity);
      }

  {
    Store.Case = "loop7/scp2";
    CompilationSession S(Config);
    PipelineOptions O;
    O.ScpDepth = 2;
    EXPECT_TRUE(S.compile(findKernel("loop7")->Source, O));
  }

  {
    Store.Case = "ring.pnml";
    std::ifstream In(SDSP_PNML_CORPUS_DIR "/ring.pnml", std::ios::binary);
    std::ostringstream Text;
    Text << In.rdbuf();
    CompilationSession S(Config);
    Expected<ArtifactRef<ExternalNet>> Ext = S.importPnml(Text.str());
    EXPECT_TRUE(Ext) << Ext.status().str();
    if (Ext) {
      EXPECT_TRUE(S.computeRate(*Ext));
      EXPECT_TRUE(S.searchFrustum(*Ext, FrustumOptions{}));
      EXPECT_TRUE(S.exportPnml(*Ext));
    }
  }
}

std::vector<std::string> recomputeTable() {
  RecordingStore Store;
  runGoldenSet(Store);
  return Store.Rows;
}

std::vector<std::string> readLines(const std::string &Path) {
  std::vector<std::string> Lines;
  std::ifstream In(Path);
  for (std::string Line; std::getline(In, Line);)
    if (!Line.empty() && Line[0] != '#')
      Lines.push_back(Line);
  return Lines;
}

TEST(ArtifactHashGolden, KeysHashesAndPayloadsMatchTheCommittedTable) {
  std::vector<std::string> Fresh = recomputeTable();
  std::vector<std::string> Golden =
      readLines(SDSP_GOLDEN_DIR "/artifact-hashes.txt");
  if (Fresh == Golden)
    return;
  std::ofstream Out("artifact-hashes.actual.txt");
  Out << "# case pass inputs options content payload-fnv1a\n";
  for (const std::string &Row : Fresh)
    Out << Row << "\n";
  size_t I = 0;
  while (I < Fresh.size() && I < Golden.size() && Fresh[I] == Golden[I])
    ++I;
  ADD_FAILURE() << "artifact hashes moved (" << Fresh.size()
                << " rows recomputed, " << Golden.size()
                << " committed); first difference at row " << I << ":\n"
                << "  committed: " << (I < Golden.size() ? Golden[I] : "-")
                << "\n  computed:  " << (I < Fresh.size() ? Fresh[I] : "-")
                << "\nthe full recomputed table is in "
                   "artifact-hashes.actual.txt";
}

//===----------------------------------------------------------------------===//
// Structural identity: equal hashes exactly when the encodings are equal.
//===----------------------------------------------------------------------===//

/// Per pass kind, every encoding seen with its hash and every hash with
/// its encoding: a second artifact must agree with the first on both.
class IdentityTable {
public:
  size_t Artifacts = 0;

  void add(PassKind K, const void *A, const std::string &What) {
    ByteWriter W;
    encodeArtifact(K, A, W);
    const uint64_t H = artifactContentHash(K, A);
    auto [ByBytes, NewBytes] = Hashes.try_emplace({K, W.bytes()}, H, What);
    EXPECT_TRUE(NewBytes || ByBytes->second.first == H)
        << What << " and " << ByBytes->second.second
        << " encode equal but hash differently";
    auto [ByHash, NewHash] = Encodings.try_emplace({K, H}, W.bytes(), What);
    EXPECT_TRUE(NewHash || ByHash->second.first == W.bytes())
        << What << " and " << ByHash->second.second
        << " hash equal but encode differently";
    ++Artifacts;
  }

  size_t distinct() const { return Hashes.size(); }

private:
  std::map<std::pair<PassKind, std::vector<uint8_t>>,
           std::pair<uint64_t, std::string>>
      Hashes;
  std::map<std::pair<PassKind, uint64_t>,
           std::pair<std::vector<uint8_t>, std::string>>
      Encodings;
};

/// The single-field edits applied to every artifact that has a site.
enum class Edit { Token, ExecTime, NameByte, Swap, AckSlot, KernelSlot, Trace };
constexpr Edit AllEdits[] = {Edit::Token,   Edit::ExecTime,   Edit::NameByte,
                             Edit::Swap,    Edit::AckSlot,    Edit::KernelSlot,
                             Edit::Trace};

std::string editedName(std::string_view Name) {
  std::string S(Name);
  if (S.empty())
    return "x";
  S[0] = static_cast<char>(S[0] ^ 1);
  return S;
}

/// Swaps the first two entries of \p L unless a list was already swapped
/// (\p Done) or \p L has fewer than two; says whether it swapped.
template <typename T> bool swapFirstPair(std::vector<T> &L, bool &Done) {
  if (Done || L.size() < 2)
    return false;
  std::swap(L[0], L[1]);
  Done = true;
  return true;
}

/// \p N rebuilt with one field edited: place 0's tokens or name,
/// transition 0's execution time, or the first two entries of the first
/// adjacency list that has two.
std::optional<PetriNet> editNet(const PetriNet &N, Edit E) {
  if (N.numPlaces() == 0 || N.numTransitions() == 0 ||
      (E != Edit::Token && E != Edit::ExecTime && E != Edit::NameByte &&
       E != Edit::Swap))
    return std::nullopt;
  PetriNet::Parts Parts;
  bool Swapped = false;
  for (PlaceId P : N.placeIds()) {
    const PetriNet::Place Pl = N.place(P);
    const bool First = P.index() == 0;
    std::vector<TransitionId> Prod(Pl.Producers.begin(), Pl.Producers.end());
    std::vector<TransitionId> Cons(Pl.Consumers.begin(), Pl.Consumers.end());
    if (E == Edit::Swap) {
      swapFirstPair(Prod, Swapped);
      swapFirstPair(Cons, Swapped);
    }
    Parts.addPlace(First && E == Edit::NameByte ? editedName(Pl.Name)
                                                : std::string(Pl.Name),
                   Pl.InitialTokens + (First && E == Edit::Token), Prod,
                   Cons);
  }
  for (TransitionId T : N.transitionIds()) {
    const PetriNet::Transition Tr = N.transition(T);
    std::vector<PlaceId> In(Tr.InputPlaces.begin(), Tr.InputPlaces.end());
    std::vector<PlaceId> Out(Tr.OutputPlaces.begin(), Tr.OutputPlaces.end());
    if (E == Edit::Swap) {
      swapFirstPair(In, Swapped);
      swapFirstPair(Out, Swapped);
    }
    Parts.addTransition(Tr.Name,
                        Tr.ExecTime + (T.index() == 0 && E == Edit::ExecTime),
                        In, Out);
  }
  if (E == Edit::Swap && !Swapped)
    return std::nullopt;
  return PetriNet::fromParts(std::move(Parts));
}

/// \p G with node 0's execution time or name edited.
std::optional<DataflowGraph> editGraph(const DataflowGraph &G, Edit E) {
  if (G.numNodes() == 0 || (E != Edit::ExecTime && E != Edit::NameByte))
    return std::nullopt;
  DataflowGraph Out = G;
  const DataflowGraph::Node N = G.node(NodeId(0u));
  if (E == Edit::ExecTime)
    Out.setExecTime(NodeId(0u), N.ExecTime + 1);
  else
    Out.setName(NodeId(0u), editedName(N.Name));
  return Out;
}

/// \p S rebuilt with its first kernel op's slot moved, or its first two
/// kernel ops swapped.
std::optional<SoftwarePipelineSchedule>
editSchedule(const SoftwarePipelineSchedule &S, Edit E) {
  std::vector<SoftwarePipelineSchedule::KernelOp> Kernel = S.kernel();
  bool Done = false;
  if (E == Edit::KernelSlot && !Kernel.empty()) {
    Kernel[0].Slot = (Kernel[0].Slot + 1) % S.kernelLength();
    Done = true;
  } else if (E == Edit::Swap) {
    swapFirstPair(Kernel, Done);
  }
  if (!Done)
    return std::nullopt;
  SoftwarePipelineSchedule Out(S.numTransitions(), S.prologueEnd(),
                               S.kernelLength(), S.iterationsPerKernel());
  for (const auto &Op : S.prologue())
    Out.addPrologueOp(Op.Time, Op.T, Op.Iteration);
  for (const auto &Op : Kernel)
    Out.addKernelOp(Op.Slot, Op.T, Op.FirstIteration);
  Out.finish();
  return Out;
}

/// \p P rebuilt with op 0's name or execution time edited, or over an
/// edited schedule.
std::optional<LoopProgram> editProgram(const LoopProgram &P, Edit E) {
  std::shared_ptr<const SoftwarePipelineSchedule> Sched;
  if (E == Edit::KernelSlot || E == Edit::Swap) {
    std::optional<SoftwarePipelineSchedule> S = editSchedule(P.schedule(), E);
    if (!S)
      return std::nullopt;
    Sched = std::make_shared<const SoftwarePipelineSchedule>(std::move(*S));
  } else if (E == Edit::NameByte || E == Edit::ExecTime) {
    Sched = std::make_shared<const SoftwarePipelineSchedule>(P.schedule());
  } else {
    return std::nullopt;
  }
  LoopProgram Out(std::move(Sched));
  bool First = true;
  for (const VmOp &Op : P.ops()) {
    Out.addOp(Op.Kind,
              First && E == Edit::NameByte ? editedName(Op.Name)
                                           : std::string(Op.Name),
              Op.ExecTime + (First && E == Edit::ExecTime));
    First = false;
    for (const OperandRef &O : Op.Operands)
      Out.addOperand(O);
    for (const WriteRef &W : Op.Writes)
      Out.addWrite(W);
    for (std::string_view C : Op.Captures)
      Out.addCapture(C);
  }
  Out.setNumRegisters(P.numRegisters());
  return Out;
}

/// Adds \p A and every single-field edit of it to \p Table.
void addWithEdits(IdentityTable &Table, PassKind K, const void *A,
                  const std::string &What) {
  Table.add(K, A, What);
  for (Edit E : AllEdits) {
    const std::string Name = What + " edit " + std::to_string(int(E));
    auto Add = [&](const auto &Edited) { Table.add(K, &Edited, Name); };
    switch (K) {
    case PassKind::Lower:
    case PassKind::Import:
      if (auto G = editGraph(*static_cast<const DataflowGraph *>(A), E))
        Add(*G);
      break;
    case PassKind::Transform: {
      TransformedGraph T = *static_cast<const TransformedGraph *>(A);
      if (auto G = editGraph(T.Graph, E)) {
        T.Graph = std::move(*G);
        T.GraphHash = artifactHash(T.Graph);
        Add(T);
      }
      break;
    }
    case PassKind::Sdsp: {
      const auto &S = *static_cast<const SdspArtifact *>(A);
      std::vector<Sdsp::Ack> Acks = S.S.ackRecords();
      bool Done = false;
      if (E == Edit::AckSlot && !Acks.empty()) {
        ++Acks[0].Slots;
        Done = true;
      } else if (E == Edit::Swap) {
        swapFirstPair(Acks, Done);
      }
      if (Done)
        Add(SdspArtifact{Sdsp::withAcks(S.S.sharedGraph(), Acks), S.Storage});
      if (auto G = editGraph(S.S.graph(), E))
        Add(SdspArtifact{
            Sdsp::withAcks(std::make_shared<const DataflowGraph>(std::move(*G)),
                           S.S.ackRecords()),
            S.Storage});
      break;
    }
    case PassKind::SdspPn: {
      SdspPn Pn = *static_cast<const SdspPn *>(A);
      if (auto N = editNet(Pn.Net, E)) {
        SdspPn Edited = Pn;
        Edited.Net = std::move(*N);
        Add(Edited);
      }
      bool Done = false;
      if (E == Edit::Swap && swapFirstPair(Pn.TransitionToNode, Done))
        Add(Pn);
      break;
    }
    case PassKind::Scp: {
      ScpPn Scp = *static_cast<const ScpPn *>(A);
      if (auto N = editNet(Scp.Net, E)) {
        Scp.Net = std::move(*N);
        Add(Scp);
      }
      break;
    }
    case PassKind::Rate: {
      RateReport R = *static_cast<const RateReport *>(A);
      bool Done = false;
      if (E == Edit::Swap && swapFirstPair(R.CriticalTransitions, Done))
        Add(R);
      break;
    }
    case PassKind::Frustum: {
      FrustumInfo F = *static_cast<const FrustumInfo *>(A);
      bool Done = false;
      if (E == Edit::Token && F.State.M.size() > 0) {
        F.State.M.produce(PlaceId(0u));
        Done = true;
      } else if (E == Edit::Trace || E == Edit::Swap) {
        // The trace rebuilt row by row, with the first row's first
        // firing renumbered, or the first two firings of the first row
        // that has two swapped.
        FiringTrace Edited;
        for (StepView Rec : F.Trace) {
          std::vector<TransitionId> Fired(Rec.Fired.begin(), Rec.Fired.end());
          if (E == Edit::Trace && !Done && !Fired.empty()) {
            Fired[0] = TransitionId(Fired[0].index() + 1);
            Done = true;
          } else if (E == Edit::Swap) {
            swapFirstPair(Fired, Done);
          }
          Edited.append(StepView(Rec.Time, Rec.Completed, Fired));
          if (E == Edit::Trace && !Done)
            break;
        }
        F.Trace = std::move(Edited);
      }
      if (Done)
        Add(F);
      break;
    }
    case PassKind::Schedule:
      if (auto S = editSchedule(
              *static_cast<const SoftwarePipelineSchedule *>(A), E))
        Add(*S);
      break;
    case PassKind::Codegen:
      if (auto P = editProgram(*static_cast<const LoopProgram *>(A), E))
        Add(*P);
      break;
    case PassKind::ImportPnml: {
      ExternalNet Ext = *static_cast<const ExternalNet *>(A);
      if (auto N = editNet(Ext.Net, E)) {
        ExternalNet Edited = Ext;
        Edited.Net = std::move(*N);
        Add(Edited);
      }
      if (E == Edit::NameByte) {
        Ext.NetId = editedName(Ext.NetId);
        Add(Ext);
      }
      break;
    }
    case PassKind::ExportPnml: {
      PnmlText T = *static_cast<const PnmlText *>(A);
      if (E == Edit::NameByte) {
        T.Text = editedName(T.Text);
        Add(T);
      }
      break;
    }
    case PassKind::Verify:
      break;
    }
  }
}

TEST(ArtifactHashGolden, EqualHashesExactlyWhenEncodingsAreEqual) {
  RecordingStore Store;
  runGoldenSet(Store);
  // Every import of the corpus that parses, and what follows it.
  SessionConfig Config;
  Config.EnableCache = true;
  Config.Store = &Store;
  for (const auto &Entry :
       std::filesystem::directory_iterator(SDSP_PNML_CORPUS_DIR)) {
    std::ifstream In(Entry.path(), std::ios::binary);
    std::ostringstream Text;
    Text << In.rdbuf();
    CompilationSession S(Config);
    Expected<ArtifactRef<ExternalNet>> Ext = S.importPnml(Text.str());
    if (!Ext)
      continue;
    (void)S.computeRate(*Ext);
    (void)S.searchFrustum(*Ext, FrustumOptions{});
    (void)S.exportPnml(*Ext);
  }

  IdentityTable Table;
  for (size_t I = 0; I < Store.Artifacts.size(); ++I) {
    const auto &[K, Value] = Store.Artifacts[I];
    addWithEdits(Table, K, Value.get(),
                 std::string(passInfo(K).Id) + " #" + std::to_string(I));
  }
  // The edits reached every kind and mostly made new artifacts.
  EXPECT_GT(Table.Artifacts, 3 * Store.Artifacts.size());
  EXPECT_GT(Table.distinct(), 2 * Store.Artifacts.size());
}

} // namespace
