//===- petri/MarkedGraph.h - Marked-graph structure & theorems -*- C++ -*-===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Marked graphs (Appendix A.5): Petri nets in which every place has
/// exactly one producer and one consumer.  SDSP-PNs are marked graphs, so
/// most of the paper's analysis happens in the contracted *transition
/// graph*: vertices are transitions, and each place p with .p = {u} and
/// p. = {v} becomes an edge u -> v annotated with its token count.
///
/// The classical results used by the paper (Commoner/Holt/Even/Pnueli):
///   - A marking is live iff every simple cycle carries at least 1 token
///     (Thm A.5.1).
///   - A live marking is safe iff every edge lies on a simple cycle with
///     token count exactly 1 (Thm A.5.2).
///   - Token counts of simple cycles are invariant under firing.
///
/// MarkedGraphView is that transition graph, stored flat like the net
/// itself (petri/PetriNet.h): one edge record per place plus compressed-
/// sparse-row out- and in-edge arrays, so building one costs a constant
/// number of allocations.  Rate analysis and the analytic engine build
/// one; the theorem checks below build none: they read the net's own
/// adjacency lists, since in a marked graph a transition's output places
/// are its out-edges and each place's one consumer is the edge's head.
///
//===----------------------------------------------------------------------===//

#ifndef SDSP_PETRI_MARKEDGRAPH_H
#define SDSP_PETRI_MARKEDGRAPH_H

#include "petri/PetriNet.h"
#include "support/Status.h"

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

namespace sdsp {

class CancelToken;
class FaultContext;

/// The transition graph of a marked graph: one directed edge per place,
/// edge I standing for place I.  The view is flat: the edges, plus each
/// transition's out- and in-edge indices in compressed-sparse-row
/// arrays (in place order), built in two passes over the net.  It reads
/// the net it was built from, which must outlive it.
class MarkedGraphView {
public:
  /// One edge of the contracted graph, i.e. one place of the net.
  struct Edge {
    TransitionId From;
    TransitionId To;
    PlaceId Via;
    uint32_t Tokens;
  };

  /// Builds the view.  \p Net must satisfy isMarkedGraph(Net).
  explicit MarkedGraphView(const PetriNet &Net);

  /// Fallible single-pass build: returns std::nullopt when \p Net is
  /// not a marked graph instead of requiring a separate isMarkedGraph
  /// pre-pass (which re-reads every place; at 10^5-10^6 transitions
  /// the duplicate sweep is measurable).
  static std::optional<MarkedGraphView> tryBuild(const PetriNet &Net);

  const PetriNet &net() const { return Net; }

  size_t numVertices() const { return Net.numTransitions(); }
  size_t numEdges() const { return Edges.size(); }

  const std::vector<Edge> &edges() const { return Edges; }
  const Edge &edge(size_t I) const { return Edges[I]; }

  /// Outgoing edge indices of transition \p T, ascending.
  std::span<const uint32_t> outEdges(TransitionId T) const {
    return {OutEdges.data() + OutStart[T.index()],
            OutEdges.data() + OutStart[T.index() + 1]};
  }
  /// Incoming edge indices of transition \p T, ascending.
  std::span<const uint32_t> inEdges(TransitionId T) const {
    return {InEdges.data() + InStart[T.index()],
            InEdges.data() + InStart[T.index() + 1]};
  }

private:
  struct Unchecked {};
  MarkedGraphView(const PetriNet &Net, Unchecked) : Net(Net) {}

  /// Builds the adjacency; false when a place breaks the one-producer/
  /// one-consumer shape (the view is then partially built and must be
  /// discarded).
  bool init();

  const PetriNet &Net;
  std::vector<Edge> Edges;
  /// Transition T's out-edges are OutEdges[OutStart[T] .. OutStart[T +
  /// 1]); likewise for in-edges.
  std::vector<uint32_t> OutStart, OutEdges;
  std::vector<uint32_t> InStart, InEdges;
};

/// True iff every place of \p Net has exactly one producer and one
/// consumer (Definition A.5.1).
bool isMarkedGraph(const PetriNet &Net);

/// Thm A.5.1 check: the initial marking is live iff every simple cycle
/// carries at least one token.  Equivalently (and far cheaper): the
/// subgraph restricted to token-free edges is acyclic, which Kahn's
/// algorithm decides by ordering every transition.  One pass over the
/// net's lists and one allocation.  \p Net must be a marked graph.
bool isLiveMarkedGraph(const PetriNet &Net);

/// Thm A.5.2 check: a live marking is safe iff every edge lies on a
/// simple cycle with token count exactly 1.  An edge (u, v, k) with
/// k >= 2 fails at once; any other needs a return walk v -> u carrying
/// at most 1 - k tokens.
///
/// Most edges are proven by a witness, a closed walk through the edge
/// with one token in all, found or checked in O(N + E):
///   - the cycles a caller offers (SafetyCheckOptions::Witnesses);
///   - a reverse partner: a place v -> u beside the edge u -> v, the two
///     holding one token together (every data/ack pair of a capacity-1
///     SDSP-PN), or a one-token self-loop;
///   - a strongly connected component whose places hold one token in
///     total: a cycle through the edge stays inside it, so it carries at
///     most that token, and liveness gives it at least one (rings).
/// An edge between two components lies on no cycle: not safe.
///
/// The edges no witness covers go to the sweep, which answers them
/// together by word-parallel reachability over a two-layer "token
/// budget" graph: layer 0 holds walks that used no token, layer 1 walks
/// that used one.  A token-free edge stays within its layer; a one-token
/// edge leads from layer 0 to layer 1.  Liveness makes the token-free
/// edges a DAG, so one topological order serves both layers.  The
/// sources are the heads of the uncovered edges, taken in topological
/// order 64 at a time, one bit each of a uint64_t per transition and
/// layer.  Each batch makes two sweeps over reused scratch words: layer
/// 0 from the batch's first source on, then layer 1 up to its last,
/// seeded through the one-token edges.  Edge (u, v, k) into a source v
/// is covered iff v's bit is set in u's layer-0 word (k = 1) or in
/// either of u's words (k = 0); the first batch with an uncovered edge
/// returns false.
///
/// Cost: O(N + E) for the witnesses, plus O((N + E) * ceil(S / 64))
/// word operations for S swept sources; O(N + E) memory.  No linear
/// bound is on offer for the sweep: checking any set of reachability
/// pairs in a DAG reduces to this check (each pair becomes a one-token
/// back edge, and every DAG edge gets a one-token reverse edge).
///
/// \p Net must be a live marked graph.  Returns false when it is not: a
/// place without exactly one producer and one consumer, or a token-free
/// cycle (Kahn's order then misses a transition).  Each call adds 1 to
/// the `marked_graph.safe.checks` counter, the places its witnesses
/// covered to `marked_graph.safe.covered_places`, the sources it swept
/// to `marked_graph.safe.swept_sources` and the edges its sweeps
/// scanned to `marked_graph.safe.edge_scans` (docs/OBSERVABILITY.md).
bool isSafeMarkedGraph(const PetriNet &Net);

/// Closed walks a caller offers the safety check as one-token cycles:
/// walk I is the places Places[Start[I] .. Start[I + 1]), in order, each
/// place's consumer the next place's producer and the last place's
/// consumer the first one's producer.  A walk that is not closed, or
/// whose places do not hold exactly one token in all, covers nothing.
struct CycleWitnesses {
  std::span<const uint32_t> Start;
  std::span<const PlaceId> Places;
};

/// What the safety check takes beyond the net: offered witnesses, and
/// where its sweep may stop.  Before each 64-source batch the sweep
/// checks \p FaultSite in \p Faults (when both are given) and polls
/// \p Cancel, so a deadline overshoots by at most one batch.
struct SafetyCheckOptions {
  CycleWitnesses Witnesses;
  const CancelToken *Cancel = nullptr;
  /// The stage a cancelled sweep's status names; required with Cancel.
  std::string_view Stage;
  FaultContext *Faults = nullptr;
  std::string_view FaultSite;
};

/// isSafeMarkedGraph with witnesses and polls.  Returns the verdict, or
/// the status that stopped the sweep: the token's Cancelled or
/// DeadlineExceeded, or an injected fault.
Expected<bool> checkSafeMarkedGraph(const PetriNet &Net,
                                    const SafetyCheckOptions &Opts);

/// The verdicts import classification reports for a marked graph.
struct MarkedGraphVerdicts {
  /// Thm A.5.1 (isLiveMarkedGraph).
  bool Live = false;
  /// Thm A.5.2 (isSafeMarkedGraph); false unless Live.
  bool Safe = false;
  /// The transition graph is one strongly connected component.
  bool StronglyConnected = false;
};

/// Liveness, safety and strong connectivity of \p Net, which must be a
/// marked graph, from one Kahn pass and one component search shared
/// with the safety witnesses.  The safety check runs (and counts) only
/// on a live net whose places hold at most one token each; \p Opts is
/// as for checkSafeMarkedGraph.
Expected<MarkedGraphVerdicts>
classifyMarkedGraph(const PetriNet &Net, const SafetyCheckOptions &Opts);

/// True iff \p Net is structurally persistent: no place has more than
/// one consumer (sufficient condition; marked graphs always satisfy it).
bool isStructurallyPersistent(const PetriNet &Net);

/// Returns a transition of the (unique) strongly connected component
/// containing all cycles if the whole graph is strongly connected, or
/// std::nullopt otherwise.  SDSP-PNs are strongly connected because each
/// data arc is paired with an acknowledgement arc.
std::optional<TransitionId> stronglyConnectedRoot(const MarkedGraphView &G);

} // namespace sdsp

#endif // SDSP_PETRI_MARKEDGRAPH_H
