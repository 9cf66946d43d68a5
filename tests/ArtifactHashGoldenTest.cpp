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
//===----------------------------------------------------------------------===//

#include "core/ArtifactCodec.h"
#include "core/ArtifactStore.h"
#include "core/Session.h"
#include "livermore/Livermore.h"
#include "support/Bytes.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace sdsp;

namespace {

/// A store that never hits and records every publish as one table row.
class RecordingStore final : public ArtifactStore {
public:
  std::string Case;
  std::vector<std::string> Rows;

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
                  static_cast<unsigned long long>(
                      fnv1a64(Bytes.data(), Bytes.size())));
    Rows.push_back(Row);
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

std::vector<std::string> recomputeTable() {
  RecordingStore Store;
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

} // namespace
