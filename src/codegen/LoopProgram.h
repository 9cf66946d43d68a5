//===- codegen/LoopProgram.h - Pipelined loop programs ----------*- C++ -*-===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The code generator's target: a register-transfer program that
/// realizes a software-pipelined loop on a simple in-order machine.
/// Each buffer of the SDSP (one storage location per acknowledgement
/// slot, Section 6) becomes a VM register ring; a chain-covering
/// acknowledgement becomes a *shared* register — producing executable
/// evidence that the storage optimizer's allocation really suffices.
///
/// One VmOp per compute node of the loop body; start times come from
/// the SoftwarePipelineSchedule the program shares (the schedule pass's
/// artifact, never a copy), so the same program object describes
/// prologue, kernel, and the infinite unrolling.
///
/// Layout.  A program is stored flat: ops, operands and writes are
/// fixed-size records in three arrays, each op naming its rows of the
/// other two and of the capture list, and every name and initial value
/// lives in one arena.  Building, copying and freeing a program
/// therefore cost a constant number of allocations, whatever its size.
/// ops() hands out views (VmOp, OperandRef, capture names) into the
/// arrays, valid while the program lives and is not modified.
///
//===----------------------------------------------------------------------===//

#ifndef SDSP_CODEGEN_LOOPPROGRAM_H
#define SDSP_CODEGEN_LOOPPROGRAM_H

#include "core/Schedule.h"
#include "dataflow/Ops.h"
#include "support/ViewRange.h"

#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace sdsp {

class HashStream;
class LoopProgram;

/// Where an operand's value comes from at iteration m: a view into the
/// program.
struct OperandRef {
  enum class Kind : uint8_t {
    /// A register ring: slot Base + ((m - Distance) mod Capacity),
    /// or InitialValues[m] while m < Distance.
    Ring,
    /// The named input stream, element m.
    Stream,
    /// A literal.
    Immediate,
  };

  Kind K = Kind::Immediate;
  // Ring fields.
  uint32_t Base = 0;
  uint32_t Capacity = 1;
  uint32_t Distance = 0;
  std::span<const double> InitialValues = {};
  // Stream field.
  std::string_view StreamName = {};
  // Immediate field.
  double Value = 0.0;
};

/// A register ring written by an op: slot Base + (m mod Capacity),
/// receiving the op's result port \p Port (switch has two ports).
struct WriteRef {
  uint32_t Base = 0;
  uint32_t Capacity = 1;
  uint32_t Port = 0;
};

/// One loop-body operation: a view into the program.
struct VmOp {
  /// The dataflow operator to apply.
  OpKind Kind = OpKind::Identity;
  std::string_view Name;
  /// Execution time (write lands at start + ExecTime).
  uint32_t ExecTime = 1;
  /// Operands in port order.
  ViewRange<LoopProgram, OperandRef> Operands;
  /// Register rings receiving the result (one per interior fanout arc;
  /// chain-sharing may alias them).
  std::span<const WriteRef> Writes;
  /// Output streams capturing the result.
  ViewRange<LoopProgram, std::string_view> Captures;
};

/// A compiled software-pipelined loop.  Built op by op: addOp() starts
/// an op, and the add*() calls after it fill that op's lists.
class LoopProgram {
public:
  explicit LoopProgram(std::shared_ptr<const SoftwarePipelineSchedule> Sched)
      : Sched(std::move(Sched)) {}

  /// Starts the next op.
  void addOp(OpKind Kind, std::string_view Name, uint32_t ExecTime);
  /// Appends an operand to the last op, copying what \p O views.
  void addOperand(const OperandRef &O);
  /// Appends a register write to the last op.
  void addWrite(WriteRef W);
  /// Appends an output stream capturing the last op's result.
  void addCapture(std::string_view StreamName);

  /// Makes room for the given numbers of ops, operands, writes, captures
  /// and name bytes.
  void reserve(size_t Ops, size_t Operands, size_t Writes, size_t Captures,
               size_t NameBytes);

  void setNumRegisters(uint32_t N) { NumRegisters = N; }
  /// Replaces the schedule (the artifact decoder reads it after the ops).
  void setSchedule(std::shared_ptr<const SoftwarePipelineSchedule> S) {
    Sched = std::move(S);
  }

  ViewRange<LoopProgram, VmOp> ops() const { return {this, 0, Ops.size()}; }
  const SoftwarePipelineSchedule &schedule() const { return *Sched; }

  /// Total value registers — equals the SDSP's storage locations.
  uint32_t numRegisters() const { return NumRegisters; }

  /// Start time of op \p Index at iteration \p M (ops are indexed like
  /// the SDSP-PN's transitions).
  TimeStep startTime(size_t Index, uint64_t M) const {
    return Sched->startTime(TransitionId(Index), M);
  }

  /// Bytes held by the program's arrays, not counting the shared
  /// schedule (the artifact-size accounting).
  uint64_t sizeBytes() const;

  /// Feeds the program's own content to \p HS: the register count, one
  /// record per op (operator, execution time, name by value, row
  /// counts), one per operand, all initial values and writes whole, and
  /// the capture names.  The schedule is not fed.
  void hashContent(HashStream &HS) const;

  /// Pretty-prints an assembly-like listing.
  void print(std::ostream &OS) const;

private:
  template <typename, typename> friend class ViewRange;

  // Row I of the op, operand and capture tables, as ViewRange reads it.
  VmOp view(const VmOp *, size_t I) const;
  OperandRef view(const OperandRef *, size_t I) const;
  std::string_view view(const std::string_view *, size_t I) const {
    return name(Captures[I]);
  }

  /// A byte range of the name arena.
  struct NameRange {
    uint32_t Begin = 0;
    uint32_t End = 0;
  };

  struct OpRecord {
    OpKind Kind = OpKind::Identity;
    uint32_t ExecTime = 1;
    NameRange Name;
    /// This op's rows of Operands, Writes and Captures.
    uint32_t OperandBegin = 0, OperandEnd = 0;
    uint32_t WriteBegin = 0, WriteEnd = 0;
    uint32_t CaptureBegin = 0, CaptureEnd = 0;
  };

  struct OperandRecord {
    OperandRef::Kind K = OperandRef::Kind::Immediate;
    uint32_t Base = 0;
    uint32_t Capacity = 1;
    uint32_t Distance = 0;
    /// Initial values: InitValues[InitBegin .. InitEnd).
    uint32_t InitBegin = 0;
    uint32_t InitEnd = 0;
    NameRange StreamName;
    double Value = 0.0;
  };

  std::string_view name(NameRange R) const {
    return {Names.data() + R.Begin, R.End - R.Begin};
  }
  NameRange addName(std::string_view Name);

  std::vector<OpRecord> Ops;
  std::vector<OperandRecord> Operands;
  std::vector<WriteRef> Writes;
  std::vector<NameRange> Captures;
  std::string Names;
  std::vector<double> InitValues;
  std::shared_ptr<const SoftwarePipelineSchedule> Sched;
  uint32_t NumRegisters = 0;
};

} // namespace sdsp

#endif // SDSP_CODEGEN_LOOPPROGRAM_H
