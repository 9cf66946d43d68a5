//===- codegen/Codegen.cpp - Schedule to program lowering ------------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "codegen/Codegen.h"

#include <cassert>

using namespace sdsp;

LoopProgram sdsp::generateLoopProgram(const Sdsp &S, const SdspPn &Pn,
                                      const SoftwarePipelineSchedule &Sched) {
  return generateLoopProgram(
      S, Pn, std::make_shared<const SoftwarePipelineSchedule>(Sched));
}

LoopProgram sdsp::generateLoopProgram(
    const Sdsp &S, const SdspPn &Pn,
    std::shared_ptr<const SoftwarePipelineSchedule> Sched) {
  const DataflowGraph &G = S.graph();

  // Register allocation: a ring per acknowledgement buffer, shared by
  // every arc the acknowledgement covers.
  struct RingInfo {
    uint32_t Base = 0;
    uint32_t Capacity = 1;
  };
  std::vector<RingInfo> ArcRing(G.numArcs());
  std::vector<bool> HasRing(G.numArcs(), false);
  uint32_t NextReg = 0;

  for (Sdsp::AckView Ack : S.acks()) {
    uint64_t Resident = 0;
    for (ArcId A : Ack.Path)
      Resident += G.arc(A).Distance;
    uint32_t Capacity = Ack.Slots + static_cast<uint32_t>(Resident);
    assert((Ack.Path.size() == 1 || Capacity == 1) &&
           "chain acknowledgements are single-slot by construction");
    RingInfo Info{NextReg, Capacity};
    NextReg += Capacity;
    for (ArcId A : Ack.Path) {
      ArcRing[A.index()] = Info;
      HasRing[A.index()] = true;
    }
  }
  // Self-feedback windows: a ring of `distance` registers, no ack.
  for (ArcId A : G.arcIds()) {
    const DataflowGraph::Arc &Arc = G.arc(A);
    if (!S.isInteriorArc(A) || Arc.From != Arc.To)
      continue;
    ArcRing[A.index()] = RingInfo{NextReg, Arc.Distance};
    HasRing[A.index()] = true;
    NextReg += Arc.Distance;
  }
  assert(NextReg == S.storageLocations() &&
         "register count must equal the Section 6 storage accounting");

  // One VmOp per transition, in transition order.
  LoopProgram Program(std::move(Sched));
  size_t NumOperands = 0, NumFanout = 0, NameBytes = 0;
  for (NodeId N : Pn.TransitionToNode) {
    const DataflowGraph::Node Node = G.node(N);
    NumOperands += Node.Operands.size();
    NumFanout += Node.Fanout.size();
    NameBytes += Node.Name.size();
    for (ArcId AI : Node.Operands)
      NameBytes += G.node(G.arc(AI).From).Name.size();
    for (ArcId AI : Node.Fanout)
      NameBytes += G.node(G.arc(AI).To).Name.size();
  }
  Program.reserve(Pn.TransitionToNode.size(), NumOperands, NumFanout,
                  NumFanout, NameBytes);
  for (NodeId N : Pn.TransitionToNode) {
    const DataflowGraph::Node Node = G.node(N);
    Program.addOp(Node.Kind, Node.Name, Node.ExecTime);

    for (ArcId AI : Node.Operands) {
      const DataflowGraph::Arc Arc = G.arc(AI);
      const DataflowGraph::Node Src = G.node(Arc.From);
      if (Src.Kind == OpKind::Input) {
        Program.addOperand(
            {.K = OperandRef::Kind::Stream, .StreamName = Src.Name});
        continue;
      }
      if (Src.Kind == OpKind::Const) {
        Program.addOperand(
            {.K = OperandRef::Kind::Immediate, .Value = Src.ConstValue});
        continue;
      }
      assert(HasRing[AI.index()] && "interior operand without a buffer");
      const RingInfo &Ring = ArcRing[AI.index()];
      Program.addOperand({.K = OperandRef::Kind::Ring,
                          .Base = Ring.Base,
                          .Capacity = Ring.Capacity,
                          .Distance = Arc.Distance,
                          .InitialValues = Arc.InitialValues});
    }

    for (ArcId AI : Node.Fanout) {
      const DataflowGraph::Arc Arc = G.arc(AI);
      const DataflowGraph::Node Dst = G.node(Arc.To);
      if (Dst.Kind == OpKind::Output) {
        assert(Arc.FromPort == 0 &&
               "outputs from switch ports are not supported yet");
        Program.addCapture(Dst.Name);
        continue;
      }
      if (isBoundaryOp(Dst.Kind))
        continue;
      assert(HasRing[AI.index()] && "interior fanout without a buffer");
      const RingInfo &Ring = ArcRing[AI.index()];
      Program.addWrite(WriteRef{Ring.Base, Ring.Capacity, Arc.FromPort});
    }
  }
  Program.setNumRegisters(NextReg);
  return Program;
}
