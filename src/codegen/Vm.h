//===- codegen/Vm.h - Cycle-accurate loop-program execution -----*- C++ -*-===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a LoopProgram cycle-accurately: op (i, m) reads its
/// operands at schedule start time and commits its result registers at
/// start + exec time, with all writes of a cycle preceding its reads
/// (matching the engine's completions-before-firings phase order).  If
/// the schedule or the register allocation were wrong — a value read
/// before it lands, or a shared chain register clobbered early — the
/// outputs would diverge from the functional interpreter; the tests
/// compare them on every kernel.
///
//===----------------------------------------------------------------------===//

#ifndef SDSP_CODEGEN_VM_H
#define SDSP_CODEGEN_VM_H

#include "codegen/LoopProgram.h"
#include "dataflow/Interpreter.h"
#include "support/Status.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sdsp {

/// Result of a VM run.
struct VmResult {
  /// Output streams, one value per iteration (dummies as 0).
  StreamMap Outputs;
  /// Dummy flags per output stream.
  std::map<std::string, std::vector<bool>> DummyMask;
  /// Total cycles from time 0 to the last write.
  TimeStep Cycles = 0;
};

/// Runs \p Iterations loop iterations of \p Program on \p Inputs.
/// Unless \p Iterations is 0, every stream an operand reads must be in
/// \p Inputs with at least \p Iterations values: a stream missing or
/// too short fails with InvalidInput naming it (stage "vm") before
/// anything runs.  A program
/// read from a store is checked against the graph it was compiled
/// from, not against the streams a run supplies, so this is where a
/// run meets them.
Expected<VmResult> executeLoopProgramChecked(const LoopProgram &Program,
                                             const StreamMap &Inputs,
                                             size_t Iterations);

/// executeLoopProgramChecked for callers that supply every stream: a
/// missing or short stream is an SDSP_CHECK failure.
VmResult executeLoopProgram(const LoopProgram &Program,
                            const StreamMap &Inputs, size_t Iterations);

} // namespace sdsp

#endif // SDSP_CODEGEN_VM_H
