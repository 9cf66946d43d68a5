//===- codegen/Vm.cpp - Cycle-accurate loop-program execution --------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "codegen/Vm.h"

#include <algorithm>
#include <cassert>
#include <string>

using namespace sdsp;

namespace {

/// Evaluates one op instance, filling up to two result ports.
void evalOp(const VmOp &Op, const std::vector<TokenValue> &Operands,
            TokenValue Results[2]) {
  switch (Op.Kind) {
  case OpKind::Switch: {
    TokenValue Ctrl = Operands[0], Data = Operands[1];
    if (Ctrl.IsDummy || Data.IsDummy) {
      Results[0] = TokenValue::dummy();
      Results[1] = TokenValue::dummy();
      break;
    }
    bool TakeTrue = Ctrl.Num != 0.0;
    Results[0] = TakeTrue ? Data : TokenValue::dummy();
    Results[1] = TakeTrue ? TokenValue::dummy() : Data;
    break;
  }
  case OpKind::Merge: {
    TokenValue Ctrl = Operands[0];
    if (Ctrl.IsDummy)
      Results[0] = TokenValue::dummy();
    else
      Results[0] = (Ctrl.Num != 0.0) ? Operands[1] : Operands[2];
    break;
  }
  default:
    Results[0] = evalSimpleOp(Op.Kind, Operands.data());
    break;
  }
}

} // namespace

Expected<VmResult> sdsp::executeLoopProgramChecked(const LoopProgram &Program,
                                                   const StreamMap &Inputs,
                                                   size_t Iterations) {
  const auto Ops = Program.ops();

  // Every operand's input stream, resolved once: operand J of op I reads
  // StreamOf[FirstOperand[I] + J] (null unless it is a stream operand;
  // a run of zero iterations reads none).
  std::vector<size_t> FirstOperand(Ops.size());
  std::vector<const double *> StreamOf;
  for (uint32_t I = 0; I < Ops.size(); ++I) {
    FirstOperand[I] = StreamOf.size();
    for (const OperandRef &O : Ops[I].Operands) {
      const double *Values = nullptr;
      if (O.K == OperandRef::Kind::Stream && Iterations > 0) {
        std::string Name(O.StreamName);
        auto It = Inputs.find(Name);
        if (It == Inputs.end())
          return Status::error(ErrorCode::InvalidInput, "vm",
                               "op '" + std::string(Ops[I].Name) +
                                   "' reads input stream '" + Name +
                                   "', which the run does not supply");
        if (It->second.size() < Iterations)
          return Status::error(
              ErrorCode::InvalidInput, "vm",
              "input stream '" + Name + "' holds " +
                  std::to_string(It->second.size()) +
                  " values, fewer than the " + std::to_string(Iterations) +
                  " iterations run");
        Values = It->second.data();
      }
      StreamOf.push_back(Values);
    }
  }

  // Event list: (time, phase 0=write 1=read, op, iteration).
  struct Event {
    TimeStep Time;
    uint8_t Phase;
    uint32_t Op;
    uint64_t Iter;
  };
  std::vector<Event> Events;
  Events.reserve(Ops.size() * Iterations * 2);
  for (uint32_t I = 0; I < Ops.size(); ++I) {
    const uint32_t ExecTime = Ops[I].ExecTime;
    for (uint64_t M = 0; M < Iterations; ++M) {
      TimeStep Start = Program.startTime(I, M);
      Events.push_back(Event{Start, 1, I, M});
      Events.push_back(Event{Start + ExecTime, 0, I, M});
    }
  }
  std::sort(Events.begin(), Events.end(),
            [](const Event &A, const Event &B) {
              if (A.Time != B.Time)
                return A.Time < B.Time;
              if (A.Phase != B.Phase)
                return A.Phase < B.Phase;
              if (A.Op != B.Op)
                return A.Op < B.Op;
              return A.Iter < B.Iter;
            });

  std::vector<TokenValue> Regs(Program.numRegisters());
  // In-flight results: per op, the pending (read-computed) value pair.
  struct Pending {
    TokenValue Results[2];
    bool Valid = false;
  };
  std::vector<Pending> InFlight(Ops.size());

  VmResult Result;
  std::vector<TokenValue> Operands;

  for (const Event &E : Events) {
    const VmOp Op = Ops[E.Op];
    if (E.Phase == 1) {
      // Read phase: gather operands and compute; result commits later.
      Operands.clear();
      const double *const *Stream = StreamOf.data() + FirstOperand[E.Op];
      for (const OperandRef &O : Op.Operands) {
        switch (O.K) {
        case OperandRef::Kind::Ring:
          if (E.Iter < O.Distance)
            Operands.push_back(
                TokenValue::real(O.InitialValues[E.Iter]));
          else
            Operands.push_back(
                Regs[O.Base + (E.Iter - O.Distance) % O.Capacity]);
          break;
        case OperandRef::Kind::Stream:
          Operands.push_back(TokenValue::real((*Stream)[E.Iter]));
          break;
        case OperandRef::Kind::Immediate:
          Operands.push_back(TokenValue::real(O.Value));
          break;
        }
        ++Stream;
      }
      assert(!InFlight[E.Op].Valid && "op issued while still in flight");
      evalOp(Op, Operands, InFlight[E.Op].Results);
      InFlight[E.Op].Valid = true;
      continue;
    }

    // Write phase: commit registers and captures.
    assert(InFlight[E.Op].Valid && "write without a matching read");
    for (const WriteRef &W : Op.Writes)
      Regs[W.Base + E.Iter % W.Capacity] =
          InFlight[E.Op].Results[W.Port];
    for (std::string_view Capture : Op.Captures) {
      const TokenValue &V = InFlight[E.Op].Results[0];
      std::string Name(Capture);
      Result.Outputs[Name].push_back(V.IsDummy ? 0.0 : V.Num);
      Result.DummyMask[Name].push_back(V.IsDummy);
    }
    InFlight[E.Op].Valid = false;
    Result.Cycles = std::max(Result.Cycles, E.Time);
  }
  return Result;
}

VmResult sdsp::executeLoopProgram(const LoopProgram &Program,
                                  const StreamMap &Inputs,
                                  size_t Iterations) {
  Expected<VmResult> R =
      executeLoopProgramChecked(Program, Inputs, Iterations);
  SDSP_CHECK(R, "every input stream the program reads is supplied, with "
                "a value per iteration");
  return std::move(*R);
}
