//===- core/Sdsp.h - Static dataflow software pipelines ---------*- C++ -*-===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SDSP of Section 3.2: a loop dataflow graph G = (V, E, E~, F, F~)
/// equipped with acknowledgement arcs that enforce bounded buffering.
/// This class adds the F / F~ structure to a DataflowGraph.
///
/// Acknowledgement structure.  Each *interior* data arc (both endpoints
/// compute nodes; Input/Const/Output nodes are loop boundary and never
/// constrain the schedule) is covered by exactly one acknowledgement
/// arc.  The standard construction pairs every data arc with its own
/// reverse ack — the textbook static-dataflow one-token-per-arc rule,
/// and exactly what Figures 1(d)/2(d) draw.  The storage optimizer of
/// Section 6 instead lets one ack cover a *chain* of data arcs (Fig. 4
/// replaces the acks B->A and D->B with a single D->A), so the Ack
/// record holds the covered path.
///
/// Storage accounting follows Section 6: one storage location per
/// data/ack pair per buffer slot; storageLocations() is what Table "Fig
/// 4" compares before/after optimization.
///
/// Layout.  The graph is shared, never copied, and every ack's covered
/// path lives in one compressed-sparse-row array, so copying an SDSP
/// costs a constant number of allocations.  acks() hands out views into
/// it, valid while the SDSP lives and is not assigned to.
///
//===----------------------------------------------------------------------===//

#ifndef SDSP_CORE_SDSP_H
#define SDSP_CORE_SDSP_H

#include "dataflow/DataflowGraph.h"
#include "support/Status.h"
#include "support/ViewRange.h"

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace sdsp {

/// True if \p Kind marks a loop-boundary node (array fetch/store or
/// literal): such nodes are always ready and are omitted from the
/// Petri-net model, matching the paper's simplified graphs.
bool isBoundaryOp(OpKind Kind);

/// A dataflow graph plus acknowledgement arcs: the unit the Petri-net
/// translation consumes.
class Sdsp {
public:
  /// One acknowledgement arc covering a directed chain of interior data
  /// arcs, as withAcks() takes it.  The ack runs from the consumer of
  /// Path.back() to the producer of Path.front().
  struct Ack {
    /// Covered data arcs, head to tail (consecutive: arc[i].To ==
    /// arc[i+1].From).  A single-element path is the standard per-arc
    /// acknowledgement.
    std::vector<ArcId> Path;
    /// Initially free buffer slots (ack tokens).  For a forward chain
    /// with capacity c this is c; for a feedback arc with distance d
    /// and capacity c it is c - d (the d slots holding initial values
    /// are occupied).
    uint32_t Slots = 1;
  };

  /// One stored acknowledgement: a view into the SDSP.
  struct AckView {
    std::span<const ArcId> Path;
    uint32_t Slots = 1;
  };

  /// Acknowledgements in order: built by add(), read through acks().
  class AckList {
  public:
    /// Appends an ack covering \p Path with \p Slots free slots.
    void add(std::span<const ArcId> Path, uint32_t Slots);

    size_t size() const { return Records.size(); }

  private:
    friend class Sdsp;
    template <typename, typename> friend class ViewRange;

    AckView view(const AckView *, size_t I) const {
      return {{PathArcs.data() + Records[I].PathBegin,
               PathArcs.data() + Records[I].PathEnd},
              Records[I].Slots};
    }

    struct Record {
      uint32_t PathBegin = 0;
      uint32_t PathEnd = 0;
      uint32_t Slots = 1;
    };
    std::vector<Record> Records;
    std::vector<ArcId> PathArcs;
  };

  /// Builds the standard SDSP: one ack per interior data arc, capacity
  /// \p Capacity per buffer (1 = the paper's static dataflow rule;
  /// larger values model the FIFO-queued extension of Section 7).
  /// Feedback arcs get capacity max(Capacity, Distance).
  static Sdsp standard(DataflowGraph G, uint32_t Capacity = 1);
  /// The same over a shared graph, which the SDSP then holds without a
  /// copy (the session passes the transform artifact's graph).
  static Sdsp standard(std::shared_ptr<const DataflowGraph> G,
                       uint32_t Capacity = 1);

  /// Builds an SDSP with an explicit acknowledgement structure (used by
  /// the storage optimizer and the artifact decoder).  Every interior
  /// data arc must be covered exactly once.
  static Sdsp withAcks(std::shared_ptr<const DataflowGraph> G, AckList Acks);
  static Sdsp withAcks(std::shared_ptr<const DataflowGraph> G,
                       const std::vector<Ack> &Acks);
  static Sdsp withAcks(DataflowGraph G, const std::vector<Ack> &Acks);

  const DataflowGraph &graph() const { return *G; }
  /// The graph, shared: copying an SDSP never copies it.
  const std::shared_ptr<const DataflowGraph> &sharedGraph() const {
    return G;
  }
  ViewRange<AckList, AckView> acks() const {
    return {&Acks, 0, Acks.size()};
  }
  /// The acknowledgements as owned records, for building another SDSP.
  std::vector<Ack> ackRecords() const;

  /// Feeds the acknowledgements to \p HS: their count, one word per ack
  /// (slots and path length), then every path's arcs whole.  The graph
  /// is not fed: hashes of an SDSP fold in its graph's hash.
  void hashAcks(HashStream &HS) const;

  /// True if arc \p A connects two compute nodes (is part of the
  /// Petri-net model).
  bool isInteriorArc(ArcId A) const;

  /// All interior data arcs.
  std::vector<ArcId> interiorArcs() const;

  /// Number of compute (non-boundary) nodes: the paper's "size of loop
  /// body" n.
  size_t loopBodySize() const;

  /// Total storage locations (Section 6): per ack, slots plus the
  /// tokens initially resident on the covered chain.
  uint64_t storageLocations() const;

private:
  std::shared_ptr<const DataflowGraph> G;
  AckList Acks;

  explicit Sdsp(std::shared_ptr<const DataflowGraph> G) : G(std::move(G)) {}
};

/// Re-checks the structural invariants of \p S without asserting: the
/// graph is well formed (InvalidGraph otherwise) and the
/// acknowledgement structure is consistent — every interior,
/// non-self-loop data arc covered exactly once by a head-to-tail chain
/// whose cycle carries at least one token (InvalidGraph otherwise).
/// Construction establishes these with assert()s; this is the
/// Release-proof validation the guarded pipeline runs on untrusted
/// inputs.
Status validateSdsp(const Sdsp &S);

} // namespace sdsp

#endif // SDSP_CORE_SDSP_H
