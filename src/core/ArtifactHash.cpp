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

#include <cstring>

using namespace sdsp;

namespace {

/// Distinct seeds per artifact kind so e.g. an empty graph and an empty
/// net never collide.
enum Seed : uint64_t {
  SeedSource = 0x5d5370a001ULL,
  SeedGraph = 0x5d5370a002ULL,
  SeedStats = 0x5d5370a003ULL,
  SeedSdsp = 0x5d5370a004ULL,
  SeedNet = 0x5d5370a005ULL,
  SeedSdspPn = 0x5d5370a006ULL,
  SeedScp = 0x5d5370a007ULL,
  SeedRate = 0x5d5370a008ULL,
  SeedFrustum = 0x5d5370a009ULL,
  SeedSchedule = 0x5d5370a00aULL,
  SeedProgram = 0x5d5370a00bULL,
};

void hashRational(HashStream &HS, const Rational &R) {
  HS.i64(R.num()).i64(R.den());
}

void hashNet(HashStream &HS, const PetriNet &Net) {
  HS.u64(Net.numPlaces()).u64(Net.numTransitions());
  for (PlaceId P : Net.placeIds()) {
    const PetriNet::Place &Pl = Net.place(P);
    HS.str(Pl.Name).u64(Pl.InitialTokens).u64(Pl.Producers.size())
        .u64(Pl.Consumers.size());
    for (TransitionId T : Pl.Producers)
      HS.u64(T.index());
    for (TransitionId T : Pl.Consumers)
      HS.u64(T.index());
  }
  for (TransitionId T : Net.transitionIds()) {
    const PetriNet::Transition &Tr = Net.transition(T);
    HS.str(Tr.Name).u64(Tr.ExecTime);
    for (PlaceId P : Tr.InputPlaces)
      HS.u64(P.index());
    for (PlaceId P : Tr.OutputPlaces)
      HS.u64(P.index());
  }
}

void hashGraph(HashStream &HS, const DataflowGraph &G) {
  HS.u64(G.numNodes()).u64(G.numArcs());
  for (NodeId N : G.nodeIds()) {
    const DataflowGraph::Node &Node = G.node(N);
    HS.u64(static_cast<uint64_t>(Node.Kind))
        .str(Node.Name)
        .f64(Node.ConstValue)
        .u64(Node.ExecTime)
        .u64(Node.Operands.size())
        .u64(Node.Fanout.size());
    for (ArcId A : Node.Operands)
      HS.u64(A.isValid() ? A.index() : ~0ull);
    for (ArcId A : Node.Fanout)
      HS.u64(A.index());
  }
  for (ArcId A : G.arcIds()) {
    const DataflowGraph::Arc &Arc = G.arc(A);
    HS.u64(Arc.From.index())
        .u64(Arc.FromPort)
        .u64(Arc.To.index())
        .u64(Arc.ToPort)
        .u64(Arc.Distance)
        .u64(Arc.InitialValues.size());
    for (double V : Arc.InitialValues)
      HS.f64(V);
  }
}

void hashSchedule(HashStream &HS, const SoftwarePipelineSchedule &S) {
  HS.u64(S.prologueEnd()).u64(S.kernelLength()).u64(S.iterationsPerKernel());
  HS.u64(S.prologue().size()).u64(S.kernel().size());
  for (const SoftwarePipelineSchedule::PrologueOp &Op : S.prologue())
    HS.u64(Op.Time).u64(Op.T.index()).u64(Op.Iteration);
  for (const SoftwarePipelineSchedule::KernelOp &Op : S.kernel())
    HS.u64(Op.Slot).u64(Op.T.index()).u64(Op.FirstIteration);
}

uint64_t stepRecordsBytes(const std::vector<StepRecord> &Trace) {
  uint64_t B = Trace.size() * sizeof(StepRecord);
  for (const StepRecord &R : Trace)
    B += (R.Completed.size() + R.Fired.size()) * sizeof(TransitionId);
  return B;
}

} // namespace

HashStream &HashStream::u64(uint64_t V) {
  // splitmix64 finalizer on the value, folded in boost-combine style:
  // cheap, well mixed, and independent of std::hash.
  V += 0x9e3779b97f4a7c15ULL;
  V = (V ^ (V >> 30)) * 0xbf58476d1ce4e5b9ULL;
  V = (V ^ (V >> 27)) * 0x94d049bb133111ebULL;
  V ^= V >> 31;
  H ^= V + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
  return *this;
}

HashStream &HashStream::f64(double V) {
  uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(V));
  std::memcpy(&Bits, &V, sizeof(Bits));
  return u64(Bits);
}

HashStream &HashStream::str(std::string_view S) {
  u64(S.size());
  // FNV-1a over the bytes, then mixed in as one word.
  uint64_t F = 0xcbf29ce484222325ULL;
  for (unsigned char C : S)
    F = (F ^ C) * 0x100000001b3ULL;
  return u64(F);
}

uint64_t sdsp::artifactHash(const std::string &Source) {
  HashStream HS(SeedSource);
  HS.str(Source);
  return HS.hash();
}

uint64_t sdsp::artifactHash(const DataflowGraph &G) {
  HashStream HS(SeedGraph);
  hashGraph(HS, G);
  return HS.hash();
}

uint64_t sdsp::artifactHash(const TransformStats &S) {
  HashStream HS(SeedStats);
  HS.u64(S.ConstantsFolded)
      .u64(S.SubexpressionsMerged)
      .u64(S.DeadNodesRemoved)
      .u64(S.AlgebraicRewrites)
      .u64(S.NodesBefore)
      .u64(S.NodesAfter);
  return HS.hash();
}

uint64_t sdsp::artifactHash(const Sdsp &S) {
  HashStream HS(SeedSdsp);
  hashGraph(HS, S.graph());
  HS.u64(S.acks().size());
  for (Sdsp::AckView A : S.acks()) {
    HS.u64(A.Slots).u64(A.Path.size());
    for (ArcId Arc : A.Path)
      HS.u64(Arc.index());
  }
  return HS.hash();
}

uint64_t sdsp::artifactHash(const PetriNet &Net) {
  HashStream HS(SeedNet);
  hashNet(HS, Net);
  return HS.hash();
}

uint64_t sdsp::artifactHash(const SdspPn &Pn) {
  HashStream HS(SeedSdspPn);
  hashNet(HS, Pn.Net);
  HS.u64(Pn.NodeToTransition.size());
  for (TransitionId T : Pn.NodeToTransition)
    HS.u64(T.isValid() ? T.index() : ~0ull);
  for (NodeId N : Pn.TransitionToNode)
    HS.u64(N.index());
  HS.u64(Pn.ArcToPlace.size());
  for (PlaceId P : Pn.ArcToPlace)
    HS.u64(P.isValid() ? P.index() : ~0ull);
  for (PlaceId P : Pn.AckPlaces)
    HS.u64(P.index());
  return HS.hash();
}

uint64_t sdsp::artifactHash(const ScpPn &Scp) {
  HashStream HS(SeedScp);
  hashNet(HS, Scp.Net);
  HS.u64(Scp.PipelineDepth).u64(Scp.NumPipelines).u64(Scp.RunPlace.index());
  HS.u64(Scp.SdspTransitions.size());
  for (TransitionId T : Scp.SdspTransitions)
    HS.u64(T.index());
  for (TransitionId T : Scp.DummyTransitions)
    HS.u64(T.index());
  for (bool B : Scp.IsSdspTransition)
    HS.u64(B);
  return HS.hash();
}

uint64_t sdsp::artifactHash(const RateReport &R) {
  HashStream HS(SeedRate);
  hashRational(HS, R.CycleTime);
  hashRational(HS, R.OptimalRate);
  HS.u64(R.CriticalTransitions.size());
  for (TransitionId T : R.CriticalTransitions)
    HS.u64(T.index());
  HS.u64(R.NumCriticalCycles);
  return HS.hash();
}

uint64_t sdsp::artifactHash(const FrustumInfo &F) {
  HashStream HS(SeedFrustum);
  HS.u64(F.StartTime).u64(F.RepeatTime);
  HS.u64(F.State.M.size());
  for (size_t I = 0; I < F.State.M.size(); ++I)
    HS.u64(F.State.M.tokens(PlaceId(I)));
  HS.u64(F.State.Residual.size());
  for (TimeUnits R : F.State.Residual)
    HS.u64(R);
  HS.u64(F.State.PolicyFingerprint.size());
  for (uint32_t V : F.State.PolicyFingerprint)
    HS.u64(V);
  HS.u64(F.Trace.size());
  for (const StepRecord &Rec : F.Trace) {
    HS.u64(Rec.Time).u64(Rec.Completed.size()).u64(Rec.Fired.size());
    for (TransitionId T : Rec.Completed)
      HS.u64(T.index());
    for (TransitionId T : Rec.Fired)
      HS.u64(T.index());
  }
  HS.u64(F.FiringCounts.size());
  for (uint32_t C : F.FiringCounts)
    HS.u64(C);
  return HS.hash();
}

uint64_t sdsp::artifactHash(const SoftwarePipelineSchedule &S) {
  HashStream HS(SeedSchedule);
  hashSchedule(HS, S);
  return HS.hash();
}

uint64_t sdsp::artifactHash(const LoopProgram &P) {
  HashStream HS(SeedProgram);
  HS.u64(P.numRegisters()).u64(P.ops().size());
  for (const VmOp &Op : P.ops()) {
    HS.u64(static_cast<uint64_t>(Op.Kind)).str(Op.Name).u64(Op.ExecTime);
    HS.u64(Op.Operands.size());
    for (const OperandRef &O : Op.Operands) {
      HS.u64(static_cast<uint64_t>(O.K))
          .u64(O.Base)
          .u64(O.Capacity)
          .u64(O.Distance)
          .str(O.StreamName)
          .f64(O.Value)
          .u64(O.InitialValues.size());
      for (double V : O.InitialValues)
        HS.f64(V);
    }
    HS.u64(Op.Writes.size());
    for (const WriteRef &W : Op.Writes)
      HS.u64(W.Base).u64(W.Capacity).u64(W.Port);
    HS.u64(Op.Captures.size());
    for (std::string_view C : Op.Captures)
      HS.str(C);
  }
  hashSchedule(HS, P.schedule());
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
         stepRecordsBytes(F.Trace) +
         F.FiringCounts.size() * sizeof(uint32_t);
}

uint64_t sdsp::artifactSizeBytes(const SoftwarePipelineSchedule &S) {
  return sizeof(SoftwarePipelineSchedule) +
         S.prologue().size() * sizeof(SoftwarePipelineSchedule::PrologueOp) +
         S.kernel().size() * sizeof(SoftwarePipelineSchedule::KernelOp);
}

uint64_t sdsp::artifactSizeBytes(const LoopProgram &P) {
  return sizeof(LoopProgram) + P.sizeBytes() +
         artifactSizeBytes(P.schedule());
}
