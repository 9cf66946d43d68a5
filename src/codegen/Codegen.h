//===- codegen/Codegen.h - Schedule to program lowering ---------*- C++ -*-===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers (SDSP, schedule) into an executable LoopProgram.  Register
/// allocation follows Section 6 exactly: each acknowledgement gets a
/// register ring of `slots + resident tokens` entries (its buffer), and
/// all data arcs covered by one chain acknowledgement *share* the
/// chain's single register — the storage optimizer's claim made
/// machine-checkable (the VM computes correct values, see Vm.h).
/// Self-feedback windows get a ring of `distance` registers.
///
/// The total register count therefore equals Sdsp::storageLocations().
///
//===----------------------------------------------------------------------===//

#ifndef SDSP_CODEGEN_CODEGEN_H
#define SDSP_CODEGEN_CODEGEN_H

#include "codegen/LoopProgram.h"
#include "core/SdspPn.h"

namespace sdsp {

/// Generates the loop program for \p S under \p Sched (derived from
/// \p Pn's frustum), which the program shares.  Ops are indexed like
/// \p Pn's transitions.  Requires every Output node to be fed by a
/// compute node (the loopir frontend guarantees this except for direct
/// stream aliases, which assert).
LoopProgram
generateLoopProgram(const Sdsp &S, const SdspPn &Pn,
                    std::shared_ptr<const SoftwarePipelineSchedule> Sched);

/// The same over a schedule the program keeps a copy of.
LoopProgram generateLoopProgram(const Sdsp &S, const SdspPn &Pn,
                                const SoftwarePipelineSchedule &Sched);

} // namespace sdsp

#endif // SDSP_CODEGEN_CODEGEN_H
