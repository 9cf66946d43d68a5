//===- petri/Pnml.h - PNML interchange for timed P/T nets -------*- C++ -*-===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// PNML (Petri Net Markup Language) import/export for the
/// place/transition subset this model can represent — arc multiplicity
/// 1, integer initial markings, deterministic integer execution times
/// (docs/INTEROP.md).  PNML is how the wider Petri-net tool ecosystem
/// exchanges nets, so this is the door third-party timed marked graphs
/// walk through to reach the frustum/rate pipeline, and how SDSP-PNs,
/// behavior graphs, and frustums leave it.
///
/// The reader is a small dependency-free XML parser hardened against
/// hostile input (tests/pnml-corpus/).  One pass over the bytes checks
/// the document and builds the net as it goes: places and transitions
/// as their end tags close, arcs from a pending list once every node is
/// known.  It keeps no table of the document's elements, and decodes
/// only the values the net needs.  It resolves only the five predefined
/// entities plus numeric character references (no DOCTYPE, so no
/// entity-expansion bombs), bounds nesting depth and node count, and
/// reports every rejection as a structured [InvalidInput] with the
/// offending line.  Anything the model cannot represent — arc weights
/// above 1, place-to-place arcs, zero execution times, markings beyond
/// uint32 — is rejected the same way rather than silently truncated.
///
/// The writer emits one canonical byte form (fixed declaration,
/// indentation, attribute order, and id scheme), chosen so that
/// export -> import -> export is byte-identical; the pnml-interop CI
/// gate (tools/CheckPnmlRoundTrip.cmake) pins exactly that over every
/// example SDSP-PN and corpus net.  Execution times travel in a
/// <toolspecific tool="sdsp"> annotation; TINA-style <delay> children
/// are accepted on import as a fallback.
///
//===----------------------------------------------------------------------===//

#ifndef SDSP_PETRI_PNML_H
#define SDSP_PETRI_PNML_H

#include "petri/EarliestFiring.h"
#include "petri/PetriNet.h"
#include "support/CancelToken.h"
#include "support/Status.h"

#include <iosfwd>
#include <string>
#include <vector>

namespace sdsp {

/// A net parsed from a PNML document.
struct PnmlNet {
  PetriNet Net;
  /// The <net> element's id attribute ("net" when absent); preserved so
  /// a re-export keeps the document's identity.
  std::string NetId;
};

/// Parses the P/T + timing subset of PNML from \p Text.  The document
/// must hold exactly one <net>; <page> nesting is flattened.  Element
/// and attribute names are matched by local name, so namespace-prefixed
/// documents import too.  Rejections are [InvalidInput] with stage
/// "pnml" (the catalog is in docs/ERRORS.md).  Any well-formedness
/// rejection wins over every import rejection.  The reader polls
/// \p Cancel at its start, once per 64 KiB scanned (which builds the
/// places and transitions) and once per 4,096 arcs resolved, and stops
/// with its Cancelled or DeadlineExceeded status, stage "pnml".  A
/// document of more than \p MaxElements elements is rejected as
/// hostile; the default bound is the one every untrusted document gets.
inline constexpr size_t PnmlMaxElements = size_t(1) << 20;
Expected<PnmlNet> parsePnml(const std::string &Text,
                            const CancelToken &Cancel = {},
                            size_t MaxElements = PnmlMaxElements);

/// Writes \p Net to \p OS in the canonical PNML form: places then
/// transitions then arcs, ids p0../t0../a0.. in index order, every node
/// carrying a <name>, execution times as <toolspecific tool="sdsp">
/// (omitted when 1), initial markings omitted when 0.  Canonical means
/// printPnml(parsePnml(printPnml(N)).Net) == printPnml(N) byte for
/// byte.
void printPnml(const PetriNet &Net, std::ostream &OS,
               const std::string &NetId);

/// The canonical form as one string, built in place; printPnml writes
/// it to its stream.
std::string pnmlString(const PetriNet &Net, const std::string &NetId);

/// Whether the canonical exports of (\p A, \p IdA) and (\p B, \p IdB)
/// are the same bytes, compared on exactly the fields the writer prints:
/// the net id, each place's name and tokens, each transition's name,
/// execution time and input and output lists in order.  The place-side
/// producer and consumer lists are not printed, so their order does not
/// count.
bool samePnmlExport(const PetriNet &A, const std::string &IdA,
                    const PetriNet &B, const std::string &IdB);

/// Builds the occurrence net of an earliest-firing execution — the
/// behavior graph of Section 3.3 materialized as a P/T net, so it can
/// be exported through printPnml and re-read by any PNML tool.  Each
/// firing of transition t (occurrence h, start time u) becomes a
/// transition "t#h@u" keeping t's execution time; each token's
/// residence in place p (produced at u) becomes a place "p@u" with one
/// arc from its producing firing and one to its consuming firing.
/// Restricting to [\p From, \p To) keeps only firings starting in the
/// window; tokens whose producer falls outside it surface as initial
/// marking (they are simply present when the window opens).  Pass
/// From=0, To=~0 for the whole trace; [StartTime, RepeatTime) for the
/// cyclic frustum.
PetriNet behaviorNet(const PetriNet &Net, const FiringTrace &Trace,
                     TimeStep From, TimeStep To);

} // namespace sdsp

#endif // SDSP_PETRI_PNML_H
