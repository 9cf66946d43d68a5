//===- core/SdspPn.h - SDSP to Petri-net translation ------------*- C++ -*-===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 3.2's translation: "to convert a SDSP to a Petri net, we
/// insert a place on each arc; for any arc that initially holds a token
/// in the SDSP, a token is assigned to the corresponding place."
///
/// Concretely: one transition per compute node (execution time = the
/// node's), one *data place* per interior data arc (initial tokens = the
/// arc's iteration distance, i.e. its initial value window), and one
/// *ack place* per acknowledgement arc (initial tokens = free buffer
/// slots).  Boundary nodes (Input/Const/Output) are always available and
/// are omitted, as in the paper's simplified figures.
///
/// The two properties claimed in Section 3.2 — the initial marking is
/// live and safe (for capacity 1), and the result is a marked graph —
/// are verified by the test suite via petri/MarkedGraph.h.
///
//===----------------------------------------------------------------------===//

#ifndef SDSP_CORE_SDSPPN_H
#define SDSP_CORE_SDSPPN_H

#include "core/Sdsp.h"
#include "petri/PetriNet.h"
#include "support/CancelToken.h"

#include <vector>

namespace sdsp {

class FaultContext;

/// The SDSP-PN plus the correspondence back to the dataflow graph.
struct SdspPn {
  PetriNet Net;
  /// Per dataflow NodeId: the transition, or invalid for boundary nodes.
  std::vector<TransitionId> NodeToTransition;
  /// Per transition index: the originating dataflow node.
  std::vector<NodeId> TransitionToNode;
  /// Per dataflow ArcId: the data place, or invalid for boundary arcs.
  std::vector<PlaceId> ArcToPlace;
  /// Ack place per Sdsp::Ack (same order as Sdsp::acks()).
  std::vector<PlaceId> AckPlaces;

  /// Number of transitions, the paper's n.
  size_t numTransitions() const { return Net.numTransitions(); }
};

/// Places and transitions the translation adds between two polls:
/// before each batch it checks the `sdsp-pn:batch` fault site, then
/// the cancel token.
constexpr size_t SdspPnBatch = 4096;

/// Translates \p S into its SDSP-PN after validating it
/// (validateSdsp; InvalidGraph on failure) and checks the resulting
/// initial marking is live (InvalidNet on a token-free cycle — e.g. a
/// capacity exhausted by a feedback window whose consumer the producer
/// also feeds forward).  Marked-graph structure is an internal
/// postcondition (SDSP_CHECK).
///
/// Before each SdspPnBatch places or transitions (transitions first,
/// then data places, then ack places) it checks the `sdsp-pn:batch`
/// site of \p Faults (when given), then polls \p Cancel, failing with
/// stage "sdsp-pn".
Expected<SdspPn> buildSdspPnChecked(const Sdsp &S,
                                    const CancelToken &Cancel = {},
                                    FaultContext *Faults = nullptr);

/// Legacy convenience: buildSdspPnChecked that aborts (in every build
/// type) instead of returning the error.
SdspPn buildSdspPn(const Sdsp &S);

/// The cycles of the SDSP's chained acknowledgements in its SDSP-PN, as
/// witnesses for the safety check (CycleWitnesses in
/// petri/MarkedGraph.h): walk I is the data places of a chained ack's
/// covered chain, head to tail, then its ack place.  At capacity 1 the
/// walk holds the chain's distances plus the ack's free slots, one token
/// in all, which makes each place of a storage-minimized chain safe
/// without a search.  An ack over one arc is left out: its cycle is the
/// data/ack pair the reverse-partner witness covers.
struct AckCycles {
  std::vector<uint32_t> Start;
  std::vector<PlaceId> Places;
};

/// Lists the cycles of \p S's acks over more than one arc in \p Pn, its
/// SDSP-PN.  In the pipeline only storage minimization chains acks:
/// without it the result is empty and nothing is allocated, with it two
/// allocations, whatever the size.
AckCycles ackCycles(const Sdsp &S, const SdspPn &Pn);

} // namespace sdsp

#endif // SDSP_CORE_SDSPPN_H
