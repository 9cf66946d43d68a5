//===- core/ArtifactCodec.cpp - Binary artifact serialization -------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "core/ArtifactCodec.h"

#include "core/ArtifactHash.h"
#include "core/Frustum.h"
#include "core/RateAnalysis.h"
#include "core/ScpModel.h"
#include "core/SdspPn.h"
#include "dataflow/Ops.h"

#include <unordered_map>

using namespace sdsp;

namespace {

constexpr uint8_t MaxOpKind = static_cast<uint8_t>(OpKind::Merge);

template <typename IdT> void putId(ByteWriter &W, IdT V) {
  W.u32(V.isValid() ? V.index() : IdT::InvalidValue);
}

/// Reads an id that must index a table of \p Limit entries.
template <typename IdT> bool getId(ByteReader &R, uint64_t Limit, IdT &Out) {
  uint32_t Raw = R.u32();
  if (!R.ok() || Raw >= Limit)
    return false;
  Out = IdT(Raw);
  return true;
}

/// Reads an id that may be the invalid sentinel.
template <typename IdT>
bool getIdOrInvalid(ByteReader &R, uint64_t Limit, IdT &Out) {
  uint32_t Raw = R.u32();
  if (!R.ok())
    return false;
  if (Raw == IdT::InvalidValue) {
    Out = IdT::invalid();
    return true;
  }
  if (Raw >= Limit)
    return false;
  Out = IdT(Raw);
  return true;
}

/// Writes a vector or span of ids.
template <typename IdRange> void putIdVec(ByteWriter &W, const IdRange &V) {
  W.u64(V.size());
  for (auto Id : V)
    putId(W, Id);
}

template <typename IdT>
bool getIdVec(ByteReader &R, uint64_t Limit, bool AllowInvalid,
              std::vector<IdT> &Out) {
  uint64_t N = R.seqLen(4);
  if (!R.ok())
    return false;
  Out.clear();
  Out.reserve(N);
  for (uint64_t I = 0; I < N; ++I) {
    IdT Id;
    bool Ok = AllowInvalid ? getIdOrInvalid(R, Limit, Id)
                           : getId(R, Limit, Id);
    if (!Ok)
      return false;
    Out.push_back(Id);
  }
  return true;
}

//===----------------------------------------------------------------------===//
// DataflowGraph
//===----------------------------------------------------------------------===//

void encodeGraph(const DataflowGraph &G, ByteWriter &W) {
  W.u64(G.numNodes());
  for (NodeId N : G.nodeIds()) {
    const DataflowGraph::Node Node = G.node(N);
    W.u8(static_cast<uint8_t>(Node.Kind));
    W.str(Node.Name);
    W.f64(Node.ConstValue);
    W.u32(Node.ExecTime);
  }
  // Arcs in ArcId order == creation order: replaying connect() calls in
  // this order reproduces the fanout lists and operand slots exactly.
  W.u64(G.numArcs());
  for (ArcId A : G.arcIds()) {
    const DataflowGraph::Arc Arc = G.arc(A);
    W.u32(Arc.From.index());
    W.u32(Arc.FromPort);
    W.u32(Arc.To.index());
    W.u32(Arc.ToPort);
    W.u64(Arc.InitialValues.size());
    for (double V : Arc.InitialValues)
      W.f64(V);
  }
}

bool decodeGraph(ByteReader &R, DataflowGraph &G) {
  uint64_t NumNodes = R.seqLen(14);
  if (!R.ok())
    return false;
  for (uint64_t I = 0; I < NumNodes; ++I) {
    uint8_t RawKind = R.u8();
    std::string_view Name = R.strView();
    double ConstValue = R.f64();
    uint32_t ExecTime = R.u32();
    if (!R.ok() || RawKind > MaxOpKind || ExecTime < 1 || Name.empty())
      return false;
    OpKind Kind = static_cast<OpKind>(RawKind);
    NodeId N = Kind == OpKind::Const ? G.addConst(ConstValue, Name)
                                     : G.addNode(Kind, Name);
    G.setExecTime(N, ExecTime);
  }
  uint64_t NumArcs = R.seqLen(24);
  if (!R.ok())
    return false;
  std::vector<double> Init;
  for (uint64_t I = 0; I < NumArcs; ++I) {
    uint32_t From = R.u32();
    uint32_t FromPort = R.u32();
    uint32_t To = R.u32();
    uint32_t ToPort = R.u32();
    uint64_t NumInit = R.seqLen(8);
    if (!R.ok() || From >= NumNodes || To >= NumNodes)
      return false;
    const DataflowGraph::Node Dst = G.node(NodeId(To));
    if (FromPort >= opResults(G.node(NodeId(From)).Kind) ||
        ToPort >= Dst.Operands.size() || Dst.Operands[ToPort].isValid())
      return false;
    Init.clear();
    for (uint64_t J = 0; J < NumInit; ++J)
      Init.push_back(R.f64());
    if (!R.ok())
      return false;
    if (Init.empty())
      G.connect(NodeId(From), FromPort, NodeId(To), ToPort);
    else
      G.connectFeedback(NodeId(From), FromPort, NodeId(To), ToPort, Init);
  }
  return true;
}

//===----------------------------------------------------------------------===//
// PetriNet
//===----------------------------------------------------------------------===//

void encodeNet(const PetriNet &Net, ByteWriter &W) {
  // Adjacency vectors travel verbatim: the interleaving of the original
  // addArc() calls is not recoverable from the final structure, and the
  // content hash covers the vectors' exact orders.
  W.u64(Net.numPlaces());
  for (PlaceId P : Net.placeIds()) {
    const PetriNet::Place &Place = Net.place(P);
    W.str(Place.Name);
    W.u32(Place.InitialTokens);
    putIdVec(W, Place.Producers);
    putIdVec(W, Place.Consumers);
  }
  W.u64(Net.numTransitions());
  for (TransitionId T : Net.transitionIds()) {
    const PetriNet::Transition &Transition = Net.transition(T);
    W.str(Transition.Name);
    W.u32(Transition.ExecTime);
    putIdVec(W, Transition.InputPlaces);
    putIdVec(W, Transition.OutputPlaces);
  }
}

/// Reads a whole net with permissive per-list bounds (the place-side
/// transition ids stream before the transition count is known), then
/// cross-validates every reference once both table sizes are available.
bool decodeNetImpl(ByteReader &R, PetriNet &Out) {
  uint64_t NumPlaces = R.seqLen(28);
  if (!R.ok())
    return false;
  PetriNet::Parts Parts;
  constexpr uint64_t Permissive = Id<TransitionTag>::InvalidValue;
  std::vector<TransitionId> Producers, Consumers;
  for (uint64_t I = 0; I < NumPlaces; ++I) {
    std::string_view Name = R.strView();
    uint32_t Tokens = R.u32();
    if (!R.ok() || !getIdVec(R, Permissive, false, Producers) ||
        !getIdVec(R, Permissive, false, Consumers))
      return false;
    Parts.addPlace(Name, Tokens, Producers, Consumers);
  }
  uint64_t NumTransitions = R.seqLen(28);
  if (!R.ok())
    return false;
  std::vector<PlaceId> Inputs, Outputs;
  for (uint64_t I = 0; I < NumTransitions; ++I) {
    std::string_view Name = R.strView();
    TimeUnits ExecTime = R.u32();
    if (!R.ok() || !getIdVec(R, NumPlaces, false, Inputs) ||
        !getIdVec(R, NumPlaces, false, Outputs))
      return false;
    Parts.addTransition(Name, ExecTime, Inputs, Outputs);
  }
  PetriNet Net = PetriNet::fromParts(std::move(Parts));
  // Range-check the place-side transition ids now that the count is
  // known, and check bidirectional consistency: every arc must appear
  // exactly as often on its place as on its transition.
  auto PairKey = [](uint32_t T, uint32_t P) {
    return (static_cast<uint64_t>(T) << 32) | P;
  };
  std::unordered_map<uint64_t, int64_t> Consume, Produce;
  for (uint32_t PI = 0; PI < NumPlaces; ++PI) {
    const PetriNet::Place &Pl = Net.place(PlaceId(PI));
    for (TransitionId T : Pl.Producers) {
      if (T.index() >= NumTransitions)
        return false;
      ++Produce[PairKey(T.index(), PI)];
    }
    for (TransitionId T : Pl.Consumers) {
      if (T.index() >= NumTransitions)
        return false;
      ++Consume[PairKey(T.index(), PI)];
    }
  }
  for (uint32_t TI = 0; TI < NumTransitions; ++TI) {
    const PetriNet::Transition &Tr = Net.transition(TransitionId(TI));
    for (PlaceId P : Tr.InputPlaces)
      --Consume[PairKey(TI, P.index())];
    for (PlaceId P : Tr.OutputPlaces)
      --Produce[PairKey(TI, P.index())];
  }
  for (const auto &[Key, Count] : Consume)
    if (Count != 0)
      return false;
  for (const auto &[Key, Count] : Produce)
    if (Count != 0)
      return false;
  Out = std::move(Net);
  return true;
}

//===----------------------------------------------------------------------===//
// Sdsp / SdspArtifact
//===----------------------------------------------------------------------===//

void encodeSdsp(const Sdsp &S, ByteWriter &W) {
  encodeGraph(S.graph(), W);
  W.u64(S.acks().size());
  for (Sdsp::AckView A : S.acks()) {
    putIdVec(W, A.Path);
    W.u32(A.Slots);
  }
}

bool decodeSdsp(ByteReader &R, std::shared_ptr<Sdsp> &Out) {
  auto G = std::make_shared<DataflowGraph>();
  if (!decodeGraph(R, *G))
    return false;
  uint64_t NumAcks = R.seqLen(12);
  if (!R.ok())
    return false;
  // Re-establish the withAcks() invariants before the asserting
  // constructor sees the data: paths chain head-to-tail over interior
  // non-self-loop arcs, each covered exactly once, each cycle tokened.
  std::vector<unsigned> Covered(G->numArcs(), 0);
  auto Interior = [&](ArcId AI) {
    const DataflowGraph::Arc Arc = G->arc(AI);
    return !isBoundaryOp(G->node(Arc.From).Kind) &&
           !isBoundaryOp(G->node(Arc.To).Kind);
  };
  Sdsp::AckList Acks;
  std::vector<ArcId> Path;
  for (uint64_t I = 0; I < NumAcks; ++I) {
    if (!getIdVec(R, G->numArcs(), false, Path))
      return false;
    uint32_t Slots = R.u32();
    if (!R.ok() || Path.empty())
      return false;
    uint64_t Resident = 0;
    for (size_t J = 0; J < Path.size(); ++J) {
      const DataflowGraph::Arc Arc = G->arc(Path[J]);
      if (!Interior(Path[J]) || Arc.From == Arc.To)
        return false;
      if (J + 1 < Path.size() && Arc.To != G->arc(Path[J + 1]).From)
        return false;
      Resident += Arc.Distance;
      ++Covered[Path[J].index()];
    }
    if (Slots + Resident < 1)
      return false;
    Acks.add(Path, Slots);
  }
  for (ArcId AI : G->arcIds()) {
    const DataflowGraph::Arc Arc = G->arc(AI);
    if (!Interior(AI) || Arc.From == Arc.To)
      continue;
    if (Covered[AI.index()] != 1)
      return false;
  }
  Out = std::make_shared<Sdsp>(Sdsp::withAcks(std::move(G), std::move(Acks)));
  return true;
}

void encodeSdspArtifact(const SdspArtifact &S, ByteWriter &W) {
  encodeSdsp(S.S, W);
  W.u8(S.Storage.has_value() ? 1 : 0);
  if (S.Storage) {
    W.u64(S.Storage->Before);
    W.u64(S.Storage->After);
    W.u64(static_cast<uint64_t>(S.Storage->OptimalRate.num()));
    W.u64(static_cast<uint64_t>(S.Storage->OptimalRate.den()));
  }
}

//===----------------------------------------------------------------------===//
// Rational
//===----------------------------------------------------------------------===//

void encodeRational(Rational V, ByteWriter &W) {
  W.u64(static_cast<uint64_t>(V.num()));
  W.u64(static_cast<uint64_t>(V.den()));
}

bool decodeRational(ByteReader &R, Rational &Out) {
  int64_t Num = static_cast<int64_t>(R.u64());
  int64_t Den = static_cast<int64_t>(R.u64());
  if (!R.ok() || Den < 1)
    return false;
  Out = Rational(Num, Den);
  // Stored rationals are already in lowest terms; one that is not was
  // not produced by this codec.
  return Out.num() == Num && Out.den() == Den;
}

//===----------------------------------------------------------------------===//
// Schedule
//===----------------------------------------------------------------------===//

void encodeSchedule(const SoftwarePipelineSchedule &S, ByteWriter &W) {
  // The firings in canonical order (core/Schedule.h), each with its
  // iteration; the decoder rebuilds the index from them.
  W.u64(S.numTransitions());
  W.u64(S.prologueEnd());
  W.u64(S.kernelLength());
  W.u32(S.iterationsPerKernel());
  W.u64(S.numPrologueOps());
  S.forEachPrologueOp([&](TimeStep Time, TransitionId T, uint64_t Iteration) {
    W.u64(Time);
    W.u32(T.index());
    W.u64(Iteration);
  });
  W.u64(S.numKernelOps());
  S.forEachKernelOp([&](uint32_t Slot, TransitionId T, uint64_t Iteration) {
    W.u32(Slot);
    W.u32(T.index());
    W.u64(Iteration);
  });
}

bool decodeSchedule(ByteReader &R,
                    std::shared_ptr<SoftwarePipelineSchedule> &Out) {
  // Every transition owns k >= 1 kernel ops of 16 bytes each, so the
  // remaining buffer bounds the count before anything is allocated.
  uint64_t NumTransitions = R.seqLen(16);
  uint64_t Start = R.u64();
  uint64_t Period = R.u64();
  uint32_t K = R.u32();
  if (!R.ok() || Period < 1 || K < 1)
    return false;
  SoftwarePipelineSchedule::Builder B(static_cast<size_t>(NumTransitions),
                                      Start, Period, K);
  // The encoder writes the firings in canonical order, strictly
  // ascending by (time, id) and then by (slot, id), each transition's
  // iterations counting up from 0; a stream in any other order was not
  // written by it.  The prologue is read twice: to check and count it,
  // then to fill the index.
  uint64_t NumPrologue = R.seqLen(20);
  if (!R.ok())
    return false;
  ByteReader Prologue = R;
  uint64_t PrevKey = 0;
  uint32_t PrevT = 0;
  auto Ascends = [&](uint64_t I, uint64_t Key, uint32_t T) {
    bool Up = I == 0 || Key > PrevKey || (Key == PrevKey && T > PrevT);
    PrevKey = Key;
    PrevT = T;
    return Up;
  };
  for (uint64_t I = 0; I < NumPrologue; ++I) {
    uint64_t Time = R.u64();
    uint32_t T = R.u32();
    uint64_t Iteration = R.u64();
    if (!R.ok() || T >= NumTransitions || Time >= Start ||
        !Ascends(I, Time, T) || Iteration != B.counted(TransitionId(T)))
      return false;
    B.countPrologue(TransitionId(T));
  }
  uint64_t NumKernel = R.seqLen(16);
  uint64_t KernelOps = 0;
  if (!R.ok() ||
      __builtin_mul_overflow(NumTransitions, uint64_t{K}, &KernelOps) ||
      NumKernel != KernelOps)
    return false;
  B.startFill();
  for (uint64_t I = 0; I < NumPrologue; ++I) {
    uint64_t Time = Prologue.u64();
    uint32_t T = Prologue.u32();
    Prologue.u64();
    B.addPrologue(TransitionId(T), Time);
  }
  for (uint64_t I = 0; I < NumKernel; ++I) {
    uint32_t Slot = R.u32();
    uint32_t T = R.u32();
    uint64_t FirstIteration = R.u64();
    if (!R.ok() || T >= NumTransitions || !Ascends(I, Slot, T) ||
        FirstIteration != B.filled(TransitionId(T)) ||
        !B.addKernel(TransitionId(T), Slot))
      return false;
  }
  // startTime() indexes k kernel slots per transition.
  if (!B.complete())
    return false;
  Out = std::make_shared<SoftwarePipelineSchedule>(B.finish());
  return true;
}

//===----------------------------------------------------------------------===//
// LoopProgram
//===----------------------------------------------------------------------===//

void encodeProgram(const LoopProgram &P, ByteWriter &W) {
  W.u64(P.ops().size());
  for (const VmOp &Op : P.ops()) {
    W.u8(static_cast<uint8_t>(Op.Kind));
    W.str(Op.Name);
    W.u32(Op.ExecTime);
    W.u64(Op.Operands.size());
    for (const OperandRef &O : Op.Operands) {
      W.u8(static_cast<uint8_t>(O.K));
      W.u32(O.Base);
      W.u32(O.Capacity);
      W.u32(O.Distance);
      W.u64(O.InitialValues.size());
      for (double V : O.InitialValues)
        W.f64(V);
      W.str(O.StreamName);
      W.f64(O.Value);
    }
    W.u64(Op.Writes.size());
    for (const WriteRef &Wr : Op.Writes) {
      W.u32(Wr.Base);
      W.u32(Wr.Capacity);
      W.u32(Wr.Port);
    }
    W.u64(Op.Captures.size());
    for (std::string_view C : Op.Captures)
      W.str(C);
  }
  encodeSchedule(P.schedule(), W);
  W.u32(P.numRegisters());
}

/// Checks what executeLoopProgram and emitC index by: one op per
/// schedule transition, only compute operators, each with its operator's
/// operand count; rings and writes inside the register file, rings with
/// at least one slot and an initial value per unit of distance, writes
/// from a result port the operator has.
bool validProgram(const LoopProgram &P) {
  const uint64_t NumRegisters = P.numRegisters();
  if (P.schedule().numTransitions() != P.ops().size())
    return false;
  for (const VmOp &Op : P.ops()) {
    if (isBoundaryOp(Op.Kind) || Op.Operands.size() != opArity(Op.Kind))
      return false;
    for (const OperandRef &O : Op.Operands)
      if (O.K == OperandRef::Kind::Ring &&
          (O.Capacity < 1 || O.InitialValues.size() < O.Distance ||
           uint64_t(O.Base) + O.Capacity > NumRegisters))
        return false;
    for (const WriteRef &Wr : Op.Writes)
      if (Wr.Port >= opResults(Op.Kind) ||
          uint64_t(Wr.Base) + Wr.Capacity > NumRegisters)
        return false;
  }
  return true;
}

bool decodeProgram(ByteReader &R, std::shared_ptr<LoopProgram> &Out) {
  uint64_t NumOps = R.seqLen(30);
  if (!R.ok())
    return false;
  // The schedule follows the ops; the program receives it once decoded.
  auto P = std::make_shared<LoopProgram>(nullptr);
  std::vector<double> Init;
  for (uint64_t I = 0; I < NumOps; ++I) {
    uint8_t RawKind = R.u8();
    std::string_view Name = R.strView();
    uint32_t ExecTime = R.u32();
    if (!R.ok() || RawKind > MaxOpKind)
      return false;
    P->addOp(static_cast<OpKind>(RawKind), Name, ExecTime);
    uint64_t NumOperands = R.seqLen(33);
    if (!R.ok())
      return false;
    for (uint64_t J = 0; J < NumOperands; ++J) {
      OperandRef O;
      uint8_t K = R.u8();
      O.Base = R.u32();
      O.Capacity = R.u32();
      O.Distance = R.u32();
      uint64_t NumInit = R.seqLen(8);
      if (!R.ok() || K > static_cast<uint8_t>(OperandRef::Kind::Immediate))
        return false;
      O.K = static_cast<OperandRef::Kind>(K);
      Init.clear();
      for (uint64_t V = 0; V < NumInit; ++V)
        Init.push_back(R.f64());
      O.InitialValues = Init;
      O.StreamName = R.strView();
      O.Value = R.f64();
      if (!R.ok())
        return false;
      P->addOperand(O);
    }
    uint64_t NumWrites = R.seqLen(12);
    if (!R.ok())
      return false;
    for (uint64_t J = 0; J < NumWrites; ++J) {
      WriteRef Wr;
      Wr.Base = R.u32();
      Wr.Capacity = R.u32();
      Wr.Port = R.u32();
      if (!R.ok() || Wr.Capacity < 1)
        return false;
      P->addWrite(Wr);
    }
    uint64_t NumCaptures = R.seqLen(8);
    if (!R.ok())
      return false;
    for (uint64_t J = 0; J < NumCaptures; ++J) {
      std::string_view C = R.strView();
      if (!R.ok())
        return false;
      P->addCapture(C);
    }
  }
  std::shared_ptr<SoftwarePipelineSchedule> Sched;
  if (!decodeSchedule(R, Sched))
    return false;
  uint32_t NumRegisters = R.u32();
  if (!R.ok())
    return false;
  P->setSchedule(std::move(Sched));
  P->setNumRegisters(NumRegisters);
  if (!validProgram(*P))
    return false;
  Out = std::move(P);
  return true;
}

//===----------------------------------------------------------------------===//
// FrustumInfo
//===----------------------------------------------------------------------===//

void encodeU32Vec(ByteWriter &W, const std::vector<uint32_t> &V) {
  W.u64(V.size());
  for (uint32_t X : V)
    W.u32(X);
}

bool decodeU32Vec(ByteReader &R, std::vector<uint32_t> &Out) {
  uint64_t N = R.seqLen(4);
  if (!R.ok())
    return false;
  Out.clear();
  Out.reserve(N);
  for (uint64_t I = 0; I < N; ++I)
    Out.push_back(R.u32());
  return R.ok();
}

void encodeFrustum(const FrustumInfo &F, ByteWriter &W) {
  W.u64(F.StartTime);
  W.u64(F.RepeatTime);
  W.u64(F.State.M.size());
  for (size_t I = 0; I < F.State.M.size(); ++I)
    W.u32(F.State.M.tokens(PlaceId(I)));
  encodeU32Vec(W, F.State.Residual);
  encodeU32Vec(W, F.State.PolicyFingerprint);
  W.u64(F.Trace.size());
  for (StepView S : F.Trace) {
    W.u64(S.Time);
    putIdVec(W, S.Completed);
    putIdVec(W, S.Fired);
  }
  encodeU32Vec(W, F.FiringCounts);
}

bool decodeFrustum(ByteReader &R, std::shared_ptr<FrustumInfo> &Out) {
  auto F = std::make_shared<FrustumInfo>();
  F->StartTime = R.u64();
  F->RepeatTime = R.u64();
  uint64_t NumPlaces = R.seqLen(4);
  if (!R.ok())
    return false;
  F->State.M = Marking(NumPlaces);
  for (uint64_t I = 0; I < NumPlaces; ++I)
    F->State.M.setTokens(PlaceId(I), R.u32());
  if (!decodeU32Vec(R, F->State.Residual) ||
      !decodeU32Vec(R, F->State.PolicyFingerprint))
    return false;
  uint64_t NumTransitions = F->State.Residual.size();
  uint64_t NumSteps = R.seqLen(24);
  if (!R.ok())
    return false;
  F->Trace.reserveRows(NumSteps);
  std::vector<TransitionId> Completed, Fired;
  for (uint64_t I = 0; I < NumSteps; ++I) {
    TimeStep Time = R.u64();
    if (!R.ok() || !getIdVec(R, NumTransitions, false, Completed) ||
        !getIdVec(R, NumTransitions, false, Fired))
      return false;
    F->Trace.append(StepView(Time, Completed, Fired));
  }
  if (!decodeU32Vec(R, F->FiringCounts))
    return false;
  Out = std::move(F);
  return true;
}

//===----------------------------------------------------------------------===//
// SdspPn / ScpPn / RateReport
//===----------------------------------------------------------------------===//

void encodeSdspPn(const SdspPn &Pn, ByteWriter &W) {
  encodeNet(Pn.Net, W);
  putIdVec(W, Pn.NodeToTransition);
  putIdVec(W, Pn.TransitionToNode);
  putIdVec(W, Pn.ArcToPlace);
  putIdVec(W, Pn.AckPlaces);
}

bool decodeSdspPn(ByteReader &R, std::shared_ptr<SdspPn> &Out) {
  auto Pn = std::make_shared<SdspPn>();
  if (!decodeNetImpl(R, Pn->Net))
    return false;
  uint64_t NT = Pn->Net.numTransitions();
  uint64_t NP = Pn->Net.numPlaces();
  constexpr uint64_t AnyNode = Id<NodeTag>::InvalidValue;
  if (!getIdVec(R, NT, true, Pn->NodeToTransition) ||
      !getIdVec(R, AnyNode, true, Pn->TransitionToNode) ||
      !getIdVec(R, NP, true, Pn->ArcToPlace) ||
      !getIdVec(R, NP, false, Pn->AckPlaces))
    return false;
  Out = std::move(Pn);
  return true;
}

void encodeScpPn(const ScpPn &Scp, ByteWriter &W) {
  encodeNet(Scp.Net, W);
  W.u32(Scp.PipelineDepth);
  W.u32(Scp.NumPipelines);
  putId(W, Scp.RunPlace);
  putIdVec(W, Scp.SdspTransitions);
  putIdVec(W, Scp.DummyTransitions);
  W.u64(Scp.IsSdspTransition.size());
  for (bool B : Scp.IsSdspTransition)
    W.u8(B ? 1 : 0);
}

bool decodeScpPn(ByteReader &R, std::shared_ptr<ScpPn> &Out) {
  auto Scp = std::make_shared<ScpPn>();
  if (!decodeNetImpl(R, Scp->Net))
    return false;
  Scp->PipelineDepth = R.u32();
  Scp->NumPipelines = R.u32();
  if (!R.ok() ||
      !getIdOrInvalid(R, Scp->Net.numPlaces(), Scp->RunPlace) ||
      !getIdVec(R, Scp->Net.numTransitions(), false, Scp->SdspTransitions) ||
      !getIdVec(R, Scp->Net.numTransitions(), false, Scp->DummyTransitions))
    return false;
  uint64_t N = R.seqLen(1);
  if (!R.ok())
    return false;
  Scp->IsSdspTransition.clear();
  Scp->IsSdspTransition.reserve(N);
  for (uint64_t I = 0; I < N; ++I) {
    uint8_t B = R.u8();
    if (B > 1)
      return false;
    Scp->IsSdspTransition.push_back(B != 0);
  }
  if (!R.ok())
    return false;
  Out = std::move(Scp);
  return true;
}

void encodeRate(const RateReport &Rep, ByteWriter &W) {
  encodeRational(Rep.CycleTime, W);
  encodeRational(Rep.OptimalRate, W);
  putIdVec(W, Rep.CriticalTransitions);
  W.u64(Rep.NumCriticalCycles);
}

bool decodeRate(ByteReader &R, std::shared_ptr<RateReport> &Out) {
  auto Rep = std::make_shared<RateReport>();
  constexpr uint64_t AnyTransition = Id<TransitionTag>::InvalidValue;
  if (!decodeRational(R, Rep->CycleTime) ||
      !decodeRational(R, Rep->OptimalRate) ||
      !getIdVec(R, AnyTransition, false, Rep->CriticalTransitions))
    return false;
  Rep->NumCriticalCycles = R.u64();
  if (!R.ok())
    return false;
  Out = std::move(Rep);
  return true;
}

//===----------------------------------------------------------------------===//
// ExternalNet / PnmlText
//===----------------------------------------------------------------------===//

void encodeExternalNet(const ExternalNet &E, ByteWriter &W) {
  encodeNet(E.Net, W);
  W.str(E.NetId);
  W.u8(E.Class.MarkedGraph ? 1 : 0);
  W.u8(E.Class.Live ? 1 : 0);
  W.u8(E.Class.Safe ? 1 : 0);
  W.u8(E.Class.Persistent ? 1 : 0);
  W.u8(E.Class.StronglyConnected ? 1 : 0);
  W.u8(E.Class.Consistent ? 1 : 0);
}

bool decodeExternalNet(ByteReader &R, std::shared_ptr<ExternalNet> &Out) {
  auto E = std::make_shared<ExternalNet>();
  if (!decodeNetImpl(R, E->Net))
    return false;
  E->NetId = R.str();
  uint8_t Bits[6];
  for (uint8_t &B : Bits) {
    B = R.u8();
    if (B > 1)
      return false;
  }
  if (!R.ok() || E->NetId.empty())
    return false;
  E->Class.MarkedGraph = Bits[0];
  E->Class.Live = Bits[1];
  E->Class.Safe = Bits[2];
  E->Class.Persistent = Bits[3];
  E->Class.StronglyConnected = Bits[4];
  E->Class.Consistent = Bits[5];
  Out = std::move(E);
  return true;
}

void encodePnmlText(const PnmlText &P, ByteWriter &W) {
  W.str(P.Text);
  W.str(P.NetId);
  W.u8(static_cast<uint8_t>(P.Flavor));
}

bool decodePnmlText(ByteReader &R, std::shared_ptr<PnmlText> &Out) {
  auto P = std::make_shared<PnmlText>();
  P->Text = R.str();
  P->NetId = R.str();
  uint8_t Flavor = R.u8();
  if (!R.ok() || Flavor > static_cast<uint8_t>(PnmlFlavor::Frustum) ||
      P->Text.empty() || P->NetId.empty())
    return false;
  P->Flavor = static_cast<PnmlFlavor>(Flavor);
  Out = std::move(P);
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Public dispatch
//===----------------------------------------------------------------------===//

bool sdsp::passHasCodec(PassKind K) { return passInfo(K).Cached; }

void sdsp::encodeArtifact(PassKind K, const void *Artifact, ByteWriter &W) {
  switch (K) {
  case PassKind::Lower:
  case PassKind::Import:
    encodeGraph(*static_cast<const DataflowGraph *>(Artifact), W);
    return;
  case PassKind::Transform: {
    const auto &T = *static_cast<const TransformedGraph *>(Artifact);
    encodeGraph(T.Graph, W);
    W.u64(T.Stats.ConstantsFolded);
    W.u64(T.Stats.SubexpressionsMerged);
    W.u64(T.Stats.DeadNodesRemoved);
    W.u64(T.Stats.AlgebraicRewrites);
    W.u64(T.Stats.NodesBefore);
    W.u64(T.Stats.NodesAfter);
    return;
  }
  case PassKind::Sdsp:
    encodeSdspArtifact(*static_cast<const SdspArtifact *>(Artifact), W);
    return;
  case PassKind::SdspPn:
    encodeSdspPn(*static_cast<const SdspPn *>(Artifact), W);
    return;
  case PassKind::Rate:
    encodeRate(*static_cast<const RateReport *>(Artifact), W);
    return;
  case PassKind::Scp:
    encodeScpPn(*static_cast<const ScpPn *>(Artifact), W);
    return;
  case PassKind::Frustum:
    encodeFrustum(*static_cast<const FrustumInfo *>(Artifact), W);
    return;
  case PassKind::Schedule:
    encodeSchedule(*static_cast<const SoftwarePipelineSchedule *>(Artifact),
                   W);
    return;
  case PassKind::Codegen:
    encodeProgram(*static_cast<const LoopProgram *>(Artifact), W);
    return;
  case PassKind::ImportPnml:
    encodeExternalNet(*static_cast<const ExternalNet *>(Artifact), W);
    return;
  case PassKind::ExportPnml:
    encodePnmlText(*static_cast<const PnmlText *>(Artifact), W);
    return;
  case PassKind::Verify:
    break;
  }
  SDSP_UNREACHABLE("encodeArtifact called for a pass with no codec");
}

std::shared_ptr<const void> sdsp::decodeArtifact(PassKind K, ByteReader &R) {
  switch (K) {
  case PassKind::Lower:
  case PassKind::Import: {
    auto G = std::make_shared<DataflowGraph>();
    if (!decodeGraph(R, *G))
      return nullptr;
    return G;
  }
  case PassKind::Transform: {
    auto T = std::make_shared<TransformedGraph>();
    if (!decodeGraph(R, T->Graph))
      return nullptr;
    T->GraphHash = artifactHash(T->Graph);
    T->Stats.ConstantsFolded = static_cast<size_t>(R.u64());
    T->Stats.SubexpressionsMerged = static_cast<size_t>(R.u64());
    T->Stats.DeadNodesRemoved = static_cast<size_t>(R.u64());
    T->Stats.AlgebraicRewrites = static_cast<size_t>(R.u64());
    T->Stats.NodesBefore = static_cast<size_t>(R.u64());
    T->Stats.NodesAfter = static_cast<size_t>(R.u64());
    if (!R.ok())
      return nullptr;
    return T;
  }
  case PassKind::Sdsp: {
    std::shared_ptr<Sdsp> S;
    if (!decodeSdsp(R, S))
      return nullptr;
    auto A = std::make_shared<SdspArtifact>(SdspArtifact{std::move(*S), {}});
    uint8_t Has = R.u8();
    if (!R.ok() || Has > 1)
      return nullptr;
    if (Has) {
      StorageOptSummary Sum;
      Sum.Before = R.u64();
      Sum.After = R.u64();
      if (!decodeRational(R, Sum.OptimalRate) || !R.ok())
        return nullptr;
      A->Storage = Sum;
    }
    return A;
  }
  case PassKind::SdspPn: {
    std::shared_ptr<SdspPn> Pn;
    if (!decodeSdspPn(R, Pn))
      return nullptr;
    return Pn;
  }
  case PassKind::Rate: {
    std::shared_ptr<RateReport> Rep;
    if (!decodeRate(R, Rep))
      return nullptr;
    return Rep;
  }
  case PassKind::Scp: {
    std::shared_ptr<ScpPn> Scp;
    if (!decodeScpPn(R, Scp))
      return nullptr;
    return Scp;
  }
  case PassKind::Frustum: {
    std::shared_ptr<FrustumInfo> F;
    if (!decodeFrustum(R, F))
      return nullptr;
    return F;
  }
  case PassKind::Schedule: {
    std::shared_ptr<SoftwarePipelineSchedule> S;
    if (!decodeSchedule(R, S))
      return nullptr;
    return S;
  }
  case PassKind::Codegen: {
    std::shared_ptr<LoopProgram> P;
    if (!decodeProgram(R, P))
      return nullptr;
    return P;
  }
  case PassKind::ImportPnml: {
    std::shared_ptr<ExternalNet> E;
    if (!decodeExternalNet(R, E))
      return nullptr;
    return E;
  }
  case PassKind::ExportPnml: {
    std::shared_ptr<PnmlText> P;
    if (!decodePnmlText(R, P))
      return nullptr;
    return P;
  }
  case PassKind::Verify:
    break;
  }
  return nullptr;
}

uint64_t sdsp::artifactContentHash(PassKind K, const void *Artifact) {
  switch (K) {
  case PassKind::Lower:
  case PassKind::Import:
    return artifactHash(*static_cast<const DataflowGraph *>(Artifact));
  case PassKind::Transform:
    return artifactHash(*static_cast<const TransformedGraph *>(Artifact));
  case PassKind::Sdsp:
    return artifactHash(*static_cast<const SdspArtifact *>(Artifact));
  case PassKind::SdspPn:
    return artifactHash(*static_cast<const SdspPn *>(Artifact));
  case PassKind::Rate:
    return artifactHash(*static_cast<const RateReport *>(Artifact));
  case PassKind::Scp:
    return artifactHash(*static_cast<const ScpPn *>(Artifact));
  case PassKind::Frustum:
    return artifactHash(*static_cast<const FrustumInfo *>(Artifact));
  case PassKind::Schedule:
    return artifactHash(
        *static_cast<const SoftwarePipelineSchedule *>(Artifact));
  case PassKind::Codegen:
    return artifactHash(*static_cast<const LoopProgram *>(Artifact));
  case PassKind::ImportPnml:
    return artifactHash(*static_cast<const ExternalNet *>(Artifact));
  case PassKind::ExportPnml:
    return artifactHash(*static_cast<const PnmlText *>(Artifact));
  case PassKind::Verify:
    break;
  }
  SDSP_UNREACHABLE("artifactContentHash called for a pass with no codec");
}
