//===- tests/GoldenEquivalenceTest.cpp - Fast engine vs reference oracle ---===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
//
// The fast-path simulation engine (incremental enabledness, bit-packed
// markings, event-driven leaping, packed-state tables) must be
// behaviorally invisible: detectFrustumChecked and the retained naive
// detectFrustumReference have to return byte-identical results — same
// frustum boundaries, same repeated state, same per-step trace, same
// firing counts, and the same diagnostics on failure.  This suite pins
// that equivalence on the six Livermore loops of Section 5 (plain
// SDSP-PNs with one to three buffer slots, and SCP machines with one
// and two pipelines under FIFO and LIFO policies, the run place gated
// wherever it has two or more consumers), on multi-token buffers
// (unrolled loops at capacity 2, a fork-join net whose 40-token buffer
// drains), and on a 200-net fuzz corpus covering unit and non-unit
// execution times, multi-token (non-safe) markings, and budget
// exhaustion.
//
//===----------------------------------------------------------------------===//

#include "core/Frustum.h"

#include "TestUtil.h"
#include "core/ScpModel.h"
#include "core/Sdsp.h"
#include "core/SdspPn.h"
#include "dataflow/Unroll.h"
#include "livermore/Livermore.h"
#include "loopir/Lowering.h"
#include "petri/EngineLayout.h"
#include "gtest/gtest.h"

#include <utility>

using namespace sdsp;
using namespace sdsp::testutil;

namespace {

/// Asserts the optimized and reference detectors agree byte for byte on
/// \p Net: identical FrustumInfo on success, identical status code and
/// message on failure.  Policies are per-engine instances (a policy is
/// stateful), expected to be configured identically.
void expectGolden(const PetriNet &Net, FiringPolicy *OptPolicy,
                  FiringPolicy *RefPolicy, FrustumBudget Budget,
                  const std::string &Label) {
  Expected<FrustumInfo> Opt = detectFrustumChecked(Net, OptPolicy, Budget);
  Expected<FrustumInfo> Ref = detectFrustumReference(Net, RefPolicy, Budget);
  ASSERT_EQ(Opt.ok(), Ref.ok()) << Label;
  if (!Opt) {
    EXPECT_EQ(Opt.status().code(), Ref.status().code()) << Label;
    EXPECT_EQ(Opt.status().message(), Ref.status().message()) << Label;
    return;
  }
  EXPECT_EQ(Opt->StartTime, Ref->StartTime) << Label;
  EXPECT_EQ(Opt->RepeatTime, Ref->RepeatTime) << Label;
  EXPECT_TRUE(Opt->State == Ref->State) << Label;
  EXPECT_EQ(Opt->FiringCounts, Ref->FiringCounts) << Label;
  ASSERT_EQ(Opt->Trace.size(), Ref->Trace.size()) << Label;
  for (size_t I = 0; I < Opt->Trace.size(); ++I) {
    StepView A = Opt->Trace[I];
    StepView B = Ref->Trace[I];
    EXPECT_EQ(A.Time, B.Time) << Label << " step " << I;
    EXPECT_EQ(idList(A.Completed), idList(B.Completed))
        << Label << " step " << I;
    EXPECT_EQ(idList(A.Fired), idList(B.Fired)) << Label << " step " << I;
  }
}

void expectGolden(const PetriNet &Net, const std::string &Label) {
  expectGolden(Net, nullptr, nullptr, FrustumBudget{}, Label);
}

/// A bundled kernel, unrolled \p Unroll times and compiled to an
/// SDSP-PN with \p Capacity slots per buffer.
SdspPn compileLivermore(const std::string &Id, uint32_t Capacity = 1,
                        uint32_t Unroll = 1) {
  const LivermoreKernel *K = findKernel(Id);
  EXPECT_NE(K, nullptr) << Id;
  DiagnosticEngine Diags;
  auto G = compileLoop(K->Source, Diags);
  EXPECT_TRUE(G.has_value()) << Id;
  DataflowGraph Body = Unroll > 1 ? unrollLoop(*G, Unroll) : std::move(*G);
  return buildSdspPn(Sdsp::standard(std::move(Body), Capacity));
}

const char *LivermoreIds[] = {"loop1", "loop7",  "loop12",
                              "loop3", "loop5", "loop9lcd"};

/// The SCP machine cases: the six kernels, and loop7 unrolled eight
/// times, whose more than 64 transitions make the enabled set, and so
/// the run place's gate mask, several words wide.
const std::pair<const char *, uint32_t> ScpCases[] = {
    {"loop1", 1}, {"loop7", 1},    {"loop12", 1}, {"loop3", 1},
    {"loop5", 1}, {"loop9lcd", 1}, {"loop7", 8}};

/// The SCP machine of depth 2 with \p Pipelines pipelines for kernel
/// \p Id unrolled \p Unroll times.  With two or more SDSP transitions
/// the run place has more consumers than the enabled set has words (one
/// word up to 64 transitions), so every case but loop12, which has a
/// single SDSP transition, runs with it gated.
ScpPn buildScp(const char *Id, uint32_t Unroll, uint32_t Pipelines,
               std::string &Label) {
  ScpPn Scp = buildScpPn(compileLivermore(Id, 1, Unroll),
                         /*PipelineDepth=*/2, Pipelines);
  Label = std::string(Id) + " x" + std::to_string(Unroll) + "/pipes" +
          std::to_string(Pipelines);
  bool Gated = EngineLayout(Scp.Net).GateOf[Scp.RunPlace.index()] !=
               EngineLayout::NoGate;
  EXPECT_EQ(Gated, Scp.numSdspTransitions() >= 2) << Label;
  return Scp;
}

TEST(GoldenEquivalence, LivermoreSdspPn) {
  // Capacity 2 and 3: every ack place starts with several tokens, so
  // the engine runs on exact counts and keeps the count planes.
  for (const char *Id : LivermoreIds)
    for (uint32_t Capacity : {1u, 2u, 3u}) {
      SdspPn Pn = compileLivermore(Id, Capacity);
      expectGolden(Pn.Net,
                   std::string(Id) + "/cap" + std::to_string(Capacity));
    }
}

TEST(GoldenEquivalence, LivermoreScpFifo) {
  for (auto [Id, Unroll] : ScpCases)
    for (uint32_t Pipelines : {1u, 2u}) {
      std::string Label;
      ScpPn Scp = buildScp(Id, Unroll, Pipelines, Label);
      auto OptPolicy = Scp.makeFifoPolicy();
      auto RefPolicy = Scp.makeFifoPolicy();
      expectGolden(Scp.Net, OptPolicy.get(), RefPolicy.get(),
                   FrustumBudget{}, Label + "/scp-fifo");
    }
}

TEST(GoldenEquivalence, LivermoreScpLifo) {
  for (auto [Id, Unroll] : ScpCases)
    for (uint32_t Pipelines : {1u, 2u}) {
      std::string Label;
      ScpPn Scp = buildScp(Id, Unroll, Pipelines, Label);
      auto OptPolicy = Scp.makeLifoPolicy();
      auto RefPolicy = Scp.makeLifoPolicy();
      expectGolden(Scp.Net, OptPolicy.get(), RefPolicy.get(),
                   FrustumBudget{}, Label + "/scp-lifo");
    }
}

TEST(GoldenEquivalence, FuzzMarkedGraphs) {
  // Mixed execution times (1-3) exercise the non-unit drain, the finish
  // ring, and event-driven leaping; chords add shared structure.
  Rng R(0x60'1d'e4'01ull);
  for (int Case = 0; Case < 120; ++Case) {
    size_t N = static_cast<size_t>(R.range(3, 12));
    size_t Chords = static_cast<size_t>(R.range(0, 4));
    PetriNet Net = buildRandomMarkedGraph(R, N, Chords);
    expectGolden(Net, "fuzz-mg-" + std::to_string(Case));
  }
}

TEST(GoldenEquivalence, FuzzUnitRings) {
  // Single-token unit rings run the bit-marking pure-marked-graph fast
  // path end to end.
  for (int Case = 0; Case < 40; ++Case) {
    PetriNet Net = buildRing(static_cast<size_t>(3 + Case % 9), 1);
    expectGolden(Net, "fuzz-ring1-" + std::to_string(Case));
  }
}

TEST(GoldenEquivalence, FuzzMultiTokenRings) {
  // Two or more tokens on one place break safeness: the engine must
  // abandon bit marking for exact counts and still match the oracle.
  Rng R(0xbeef'cafeull);
  for (int Case = 0; Case < 40; ++Case) {
    size_t N = static_cast<size_t>(R.range(2, 8));
    uint32_t Tokens = static_cast<uint32_t>(R.range(2, 4));
    PetriNet Net = buildRing(N, Tokens);
    expectGolden(Net, "fuzz-ringk-" + std::to_string(Case));
  }
}

TEST(GoldenEquivalence, UnrolledCapacityTwo) {
  // Unrolled loops at capacity 2: about half the places hold two
  // tokens.
  for (auto [Id, Unroll] : {std::pair<const char *, uint32_t>{"l2", 16},
                            {"loop9lcd", 8}}) {
    SdspPn Pn = compileLivermore(Id, 2, Unroll);
    expectGolden(Pn.Net, std::string(Id) + " x" + std::to_string(Unroll));
  }
}

TEST(GoldenEquivalence, ForkJoinDeepBufferDrains) {
  // A fork-join marked graph: fork feeds 100 stations (times 1-3), each
  // returning its token through a two-slot buffer, except station 0
  // (time 4), whose buffer starts with 40 tokens.
  PetriNetBuilder NB;
  TransitionId Fork = NB.addTransition("fork");
  PlaceId DeepBuf;
  for (uint32_t I = 0; I < 100; ++I) {
    std::string Id = std::to_string(I);
    TransitionId Station =
        NB.addTransition("s" + Id, I == 0 ? 4 : 1 + I % 3);
    PlaceId In = NB.addPlace("in" + Id, 0);
    PlaceId Buf = NB.addPlace("buf" + Id, I == 0 ? 40 : 2);
    if (I == 0)
      DeepBuf = Buf;
    NB.addArc(Fork, In);
    NB.addArc(In, Station);
    NB.addArc(Station, Buf);
    NB.addArc(Buf, Fork);
  }
  PetriNet Net = NB.build();
  expectGolden(Net, "fork-join");
  // Station 0 is the slowest, so by the time a state repeats its
  // buffer is empty.
  Expected<FrustumInfo> Ref = detectFrustumReference(Net, nullptr, {});
  ASSERT_TRUE(Ref.ok());
  EXPECT_EQ(Ref->State.M.tokens(DeepBuf), 0u);
}

TEST(GoldenEquivalence, BudgetDiagnosticsMatch) {
  // Exhausted budgets must produce the same BudgetExceeded message
  // (steps simulated, firings observed) from both detectors.
  Rng R(0x5eedull);
  for (int Case = 0; Case < 6; ++Case) {
    PetriNet Net = buildRandomMarkedGraph(R, 6, 2);
    expectGolden(Net, nullptr, nullptr, FrustumBudget::steps(3),
                 "budget-" + std::to_string(Case));
  }
}

} // namespace
