//===- codegen/LoopProgram.cpp - Pipelined loop programs -------------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "codegen/LoopProgram.h"

#include "support/HashStream.h"
#include "support/Status.h"

#include <cassert>
#include <limits>
#include <ostream>

using namespace sdsp;

LoopProgram::NameRange LoopProgram::addName(std::string_view Name) {
  NameRange R;
  R.Begin = static_cast<uint32_t>(Names.size());
  Names.append(Name);
  SDSP_CHECK(Names.size() <= std::numeric_limits<uint32_t>::max(),
             "program names exceed the 4 GiB arena");
  R.End = static_cast<uint32_t>(Names.size());
  return R;
}

void LoopProgram::addOp(OpKind Kind, std::string_view Name,
                        uint32_t ExecTime) {
  OpRecord R;
  R.Kind = Kind;
  R.ExecTime = ExecTime;
  R.Name = addName(Name);
  R.OperandBegin = R.OperandEnd = static_cast<uint32_t>(Operands.size());
  R.WriteBegin = R.WriteEnd = static_cast<uint32_t>(Writes.size());
  R.CaptureBegin = R.CaptureEnd = static_cast<uint32_t>(Captures.size());
  Ops.push_back(R);
}

void LoopProgram::addOperand(const OperandRef &O) {
  assert(!Ops.empty() && "operand added before its op");
  OperandRecord R;
  R.K = O.K;
  R.Base = O.Base;
  R.Capacity = O.Capacity;
  R.Distance = O.Distance;
  R.InitBegin = static_cast<uint32_t>(InitValues.size());
  InitValues.insert(InitValues.end(), O.InitialValues.begin(),
                    O.InitialValues.end());
  R.InitEnd = static_cast<uint32_t>(InitValues.size());
  R.StreamName = addName(O.StreamName);
  R.Value = O.Value;
  Operands.push_back(R);
  Ops.back().OperandEnd = static_cast<uint32_t>(Operands.size());
}

void LoopProgram::addWrite(WriteRef W) {
  assert(!Ops.empty() && "write added before its op");
  Writes.push_back(W);
  Ops.back().WriteEnd = static_cast<uint32_t>(Writes.size());
}

void LoopProgram::addCapture(std::string_view StreamName) {
  assert(!Ops.empty() && "capture added before its op");
  Captures.push_back(addName(StreamName));
  Ops.back().CaptureEnd = static_cast<uint32_t>(Captures.size());
}

void LoopProgram::reserve(size_t NumOps, size_t NumOperands, size_t NumWrites,
                          size_t NumCaptures, size_t NameBytes) {
  Ops.reserve(NumOps);
  Operands.reserve(NumOperands);
  Writes.reserve(NumWrites);
  Captures.reserve(NumCaptures);
  Names.reserve(NameBytes);
}

void LoopProgram::hashContent(HashStream &HS) const {
  HS.u64(NumRegisters).u64(Ops.size());
  for (const OpRecord &R : Ops)
    HS.u64(static_cast<uint64_t>(R.Kind) | uint64_t{R.ExecTime} << 32)
        .str(name(R.Name))
        .u64((R.OperandEnd - R.OperandBegin) |
             uint64_t{R.WriteEnd - R.WriteBegin} << 32)
        .u64(R.CaptureEnd - R.CaptureBegin);
  HS.u64(Operands.size());
  for (const OperandRecord &O : Operands)
    HS.u64(static_cast<uint64_t>(O.K) | uint64_t{O.Base} << 32)
        .u64(O.Capacity | uint64_t{O.Distance} << 32)
        .u64(O.InitEnd - O.InitBegin)
        .str(name(O.StreamName))
        .f64(O.Value);
  // Operands append their initial values, so the arena is exactly every
  // operand's values in operand order.
  HS.f64s(InitValues).u32Records(std::span<const WriteRef>(Writes));
  HS.u64(Captures.size());
  for (NameRange C : Captures)
    HS.str(name(C));
}

VmOp LoopProgram::view(const VmOp *, size_t I) const {
  const OpRecord &R = Ops[I];
  return {R.Kind,
          name(R.Name),
          R.ExecTime,
          {this, R.OperandBegin, R.OperandEnd},
          {Writes.data() + R.WriteBegin, Writes.data() + R.WriteEnd},
          {this, R.CaptureBegin, R.CaptureEnd}};
}

OperandRef LoopProgram::view(const OperandRef *, size_t I) const {
  const OperandRecord &R = Operands[I];
  return {R.K,
          R.Base,
          R.Capacity,
          R.Distance,
          {InitValues.data() + R.InitBegin, InitValues.data() + R.InitEnd},
          name(R.StreamName),
          R.Value};
}

uint64_t LoopProgram::sizeBytes() const {
  return Ops.size() * sizeof(OpRecord) +
         Operands.size() * sizeof(OperandRecord) +
         Writes.size() * sizeof(WriteRef) +
         Captures.size() * sizeof(NameRange) + Names.size() +
         InitValues.size() * sizeof(double);
}

void LoopProgram::print(std::ostream &OS) const {
  OS << "loop program: " << Ops.size() << " ops, " << NumRegisters
     << " registers, kernel p=" << Sched->kernelLength()
     << " k=" << Sched->iterationsPerKernel() << "\n";
  for (size_t I = 0; I < Ops.size(); ++I) {
    const VmOp Op = ops()[I];
    OS << "  " << Op.Name << ": " << opName(Op.Kind) << " ";
    for (size_t P = 0; P < Op.Operands.size(); ++P) {
      if (P)
        OS << ", ";
      const OperandRef O = Op.Operands[P];
      switch (O.K) {
      case OperandRef::Kind::Ring:
        OS << "r" << O.Base;
        if (O.Capacity > 1)
          OS << "[(m-" << O.Distance << ")%" << O.Capacity << "]";
        else if (O.Distance > 0)
          OS << "@m-" << O.Distance;
        break;
      case OperandRef::Kind::Stream:
        OS << O.StreamName << "[m]";
        break;
      case OperandRef::Kind::Immediate:
        OS << "#" << O.Value;
        break;
      }
    }
    OS << " ->";
    for (const WriteRef &W : Op.Writes) {
      OS << " r" << W.Base;
      if (W.Capacity > 1)
        OS << "[m%" << W.Capacity << "]";
    }
    for (std::string_view C : Op.Captures)
      OS << " out(" << C << ")";
    OS << "   ; slot " << Sched->startTime(TransitionId(I), 0) << "+\n";
  }
}
