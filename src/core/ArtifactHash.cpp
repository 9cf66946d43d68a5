//===- core/ArtifactHash.cpp - Content hashes of pipeline artifacts --------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "core/ArtifactHash.h"

#include "codegen/LoopProgram.h"
#include "core/Frustum.h"
#include "core/RateAnalysis.h"
#include "core/ScpModel.h"
#include "core/Schedule.h"
#include "core/Sdsp.h"
#include "core/SdspPn.h"
#include "dataflow/DataflowGraph.h"
#include "dataflow/Transforms.h"
#include "petri/PetriNet.h"

using namespace sdsp;

namespace {

/// Distinct seeds per artifact kind so e.g. an empty graph and an empty
/// net never collide.
enum Seed : uint64_t {
  SeedSource = 0x5d5370a001ULL,
  SeedGraph = 0x5d5370a002ULL,
  SeedStats = 0x5d5370a003ULL,
  SeedNet = 0x5d5370a005ULL,
  SeedSdspPn = 0x5d5370a006ULL,
  SeedScp = 0x5d5370a007ULL,
  SeedRate = 0x5d5370a008ULL,
  SeedFrustum = 0x5d5370a009ULL,
  SeedSchedule = ScheduleHashSeed,
  SeedProgram = 0x5d5370a00bULL,
};

void hashRational(HashStream &HS, const Rational &R) {
  HS.i64(R.num()).i64(R.den());
}

} // namespace

uint64_t sdsp::artifactHash(const std::string &Source) {
  return HashStream(SeedSource).str(Source).hash();
}

uint64_t sdsp::artifactHash(const DataflowGraph &G) {
  HashStream HS(SeedGraph);
  G.hashContent(HS);
  return HS.hash();
}

uint64_t sdsp::artifactHash(const TransformStats &S) {
  return HashStream(SeedStats)
      .u64(S.ConstantsFolded)
      .u64(S.SubexpressionsMerged)
      .u64(S.DeadNodesRemoved)
      .u64(S.AlgebraicRewrites)
      .u64(S.NodesBefore)
      .u64(S.NodesAfter)
      .hash();
}

uint64_t sdsp::artifactHash(const PetriNet &Net) {
  HashStream HS(SeedNet);
  Net.hashContent(HS);
  return HS.hash();
}

uint64_t sdsp::artifactHash(const SdspPn &Pn) {
  HashStream HS(SeedSdspPn);
  Pn.Net.hashContent(HS);
  HS.ids(Pn.NodeToTransition)
      .ids(Pn.TransitionToNode)
      .ids(Pn.ArcToPlace)
      .ids(Pn.AckPlaces);
  return HS.hash();
}

uint64_t sdsp::artifactHash(const ScpPn &Scp) {
  HashStream HS(SeedScp);
  Scp.Net.hashContent(HS);
  HS.u64(Scp.PipelineDepth | uint64_t{Scp.NumPipelines} << 32)
      .u64(Scp.RunPlace.isValid() ? Scp.RunPlace.index() : ~0ull)
      .ids(Scp.SdspTransitions)
      .ids(Scp.DummyTransitions);
  // The flags, 64 to a word.
  const std::vector<bool> &Flags = Scp.IsSdspTransition;
  HS.u64(Flags.size());
  for (size_t I = 0; I < Flags.size(); I += 64) {
    uint64_t W = 0;
    for (size_t J = I; J < Flags.size() && J < I + 64; ++J)
      W |= uint64_t{Flags[J]} << (J - I);
    HS.u64(W);
  }
  return HS.hash();
}

uint64_t sdsp::artifactHash(const RateReport &R) {
  HashStream HS(SeedRate);
  hashRational(HS, R.CycleTime);
  hashRational(HS, R.OptimalRate);
  HS.ids(R.CriticalTransitions).u64(R.NumCriticalCycles);
  return HS.hash();
}

uint64_t sdsp::artifactHash(const FrustumInfo &F) {
  HashStream HS(SeedFrustum);
  HS.u64(F.StartTime)
      .u64(F.RepeatTime)
      .u32s(F.State.M.counts())
      .u32s(F.State.Residual)
      .u32s(F.State.PolicyFingerprint);
  HS.u64(F.Trace.size());
  for (StepView Rec : F.Trace)
    HS.u64(Rec.Time).ids(Rec.Completed).ids(Rec.Fired);
  HS.u32s(F.FiringCounts);
  return HS.hash();
}

uint64_t sdsp::artifactHash(const SoftwarePipelineSchedule &S) {
  HashStream HS(SeedSchedule);
  HS.u64(S.numTransitions())
      .u64(S.prologueEnd())
      .u64(S.kernelLength())
      .u64(S.iterationsPerKernel());
  // The firings in canonical order (core/Schedule.h).
  HS.u64(S.numPrologueOps());
  S.forEachPrologueOp([&](TimeStep Time, TransitionId T, uint64_t Iteration) {
    HS.u64(Time).u64(T.index()).u64(Iteration);
  });
  HS.u64(S.numKernelOps());
  S.forEachKernelOp([&](uint32_t Slot, TransitionId T, uint64_t Iteration) {
    HS.u64(Slot | uint64_t{T.index()} << 32).u64(Iteration);
  });
  return HS.hash();
}

uint64_t sdsp::artifactHash(const LoopProgram &P) {
  return artifactHash(P, artifactHash(P.schedule()));
}

uint64_t sdsp::artifactHash(const LoopProgram &P, uint64_t ScheduleHash) {
  HashStream HS(SeedProgram);
  P.hashContent(HS);
  HS.u64(ScheduleHash);
  return HS.hash();
}

uint64_t sdsp::artifactSizeBytes(const std::string &Source) {
  return Source.size();
}

uint64_t sdsp::artifactSizeBytes(const DataflowGraph &G) {
  return G.sizeBytes();
}

uint64_t sdsp::artifactSizeBytes(const Sdsp &S) {
  // Per ack: its path's range and slots, then the path itself.
  uint64_t B = S.graph().sizeBytes() + S.acks().size() * 3 * sizeof(uint32_t);
  for (Sdsp::AckView A : S.acks())
    B += A.Path.size() * sizeof(ArcId);
  return B;
}

uint64_t sdsp::artifactSizeBytes(const PetriNet &Net) {
  return Net.sizeBytes();
}

uint64_t sdsp::artifactSizeBytes(const SdspPn &Pn) {
  return Pn.Net.sizeBytes() +
         Pn.NodeToTransition.size() * sizeof(TransitionId) +
         Pn.TransitionToNode.size() * sizeof(NodeId) +
         Pn.ArcToPlace.size() * sizeof(PlaceId) +
         Pn.AckPlaces.size() * sizeof(PlaceId);
}

uint64_t sdsp::artifactSizeBytes(const ScpPn &Scp) {
  return Scp.Net.sizeBytes() +
         (Scp.SdspTransitions.size() + Scp.DummyTransitions.size()) *
             sizeof(TransitionId) +
         Scp.IsSdspTransition.size() / 8 + sizeof(ScpPn);
}

uint64_t sdsp::artifactSizeBytes(const RateReport &R) {
  return sizeof(RateReport) +
         R.CriticalTransitions.size() * sizeof(TransitionId);
}

uint64_t sdsp::artifactSizeBytes(const FrustumInfo &F) {
  return sizeof(FrustumInfo) + F.State.M.size() * sizeof(uint32_t) +
         F.State.Residual.size() * sizeof(TimeUnits) +
         F.State.PolicyFingerprint.size() * sizeof(uint32_t) +
         F.Trace.sizeBytes() +
         F.FiringCounts.size() * sizeof(uint32_t);
}

uint64_t sdsp::artifactSizeBytes(const SoftwarePipelineSchedule &S) {
  return sizeof(SoftwarePipelineSchedule) + S.sizeBytes();
}

uint64_t sdsp::artifactSizeBytes(const LoopProgram &P) {
  return sizeof(LoopProgram) + P.sizeBytes() +
         artifactSizeBytes(P.schedule());
}
