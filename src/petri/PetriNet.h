//===- petri/PetriNet.h - Timed place/transition nets -----------*- C++ -*-===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The timed Petri net (PN, Omega) of Appendix A: a set of places, a set
/// of transitions, directed arcs between them, an initial marking, and a
/// non-negative integer execution time per transition (Ramchandani's
/// deterministic timing).  Arc multiplicity is 1 throughout, as in the
/// paper.
///
/// Assumption A.6.1 (two firings of one transition never overlap) is
/// enforced by the execution engine rather than by materializing the
/// implicit self-loop place, so structural queries see exactly the arcs
/// the paper draws.
///
/// Layout.  A net's structure is fixed once built, so it is stored flat:
/// places and transitions are fixed-size records, every name lives in
/// one character arena, and the four adjacency lists (producers and
/// consumers per place, input and output places per transition) are
/// compressed-sparse-row arrays.  Building, copying, hashing and freeing
/// a net therefore cost a constant number of allocations, whatever its
/// size.  Nets are assembled by a PetriNetBuilder; place() and
/// transition() hand out small views into the arrays, valid while the
/// net lives and is not assigned to.
///
//===----------------------------------------------------------------------===//

#ifndef SDSP_PETRI_PETRINET_H
#define SDSP_PETRI_PETRINET_H

#include "petri/Marking.h"
#include "support/Ids.h"

#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace sdsp {

struct TransitionTag {};
/// Identifies a transition within one PetriNet.
using TransitionId = Id<TransitionTag>;

/// Execution (firing) time of a transition, in machine cycles.
using TimeUnits = uint32_t;

class HashStream;
class PetriNetBuilder;

/// A timed place/transition net, immutable in structure once built (see
/// PetriNetBuilder).  The class itself holds no dynamic marking;
/// execution state lives in the engine (see EarliestFiring.h) so one net
/// can back many simulations.
class PetriNet {
public:
  /// A place and its static connectivity: a view into the net.
  struct Place {
    std::string_view Name;
    uint32_t InitialTokens = 0;
    /// Transitions producing into this place (".p" in the paper's dot
    /// notation).
    std::span<const TransitionId> Producers;
    /// Transitions consuming from this place ("p." in the paper).
    std::span<const TransitionId> Consumers;
  };

  /// A transition and its static connectivity: a view into the net.
  struct Transition {
    std::string_view Name;
    TimeUnits ExecTime = 1;
    std::span<const PlaceId> InputPlaces;
    std::span<const PlaceId> OutputPlaces;
  };

  /// One adjacency list as the net stores it: row R is
  /// Items[Start[R] .. Start[R + 1]), and Start has one entry per row
  /// plus one.  The spans alias the net's own arrays.
  template <typename IdT> struct Rows {
    std::span<const uint32_t> Start;
    std::span<const IdT> Items;
  };

  class Parts;

  /// Finishes a net from its parts (see PetriNet::Parts).
  static PetriNet fromParts(Parts P);

  /// Changes the initial token count of \p P.
  void setInitialTokens(PlaceId P, uint32_t Tokens) {
    Places[P.index()].Value = Tokens;
  }

  /// Changes the execution time of \p T.
  void setExecTime(TransitionId T, TimeUnits ExecTime) {
    Transitions[T.index()].Value = ExecTime;
  }

  size_t numPlaces() const { return Places.size(); }
  size_t numTransitions() const { return Transitions.size(); }

  Place place(PlaceId P) const {
    const size_t I = P.index();
    return {name(Places[I]), Places[I].Value, Producers.row(I),
            Consumers.row(I)};
  }
  Transition transition(TransitionId T) const {
    const size_t I = T.index();
    return {name(Transitions[I]), Transitions[I].Value, InputPlaces.row(I),
            OutputPlaces.row(I)};
  }

  /// Every transition's input places, every transition's output places
  /// and every place's consumers, whole (valid like place() and
  /// transition()).
  Rows<PlaceId> inputPlaceRows() const { return InputPlaces.rows(); }
  Rows<PlaceId> outputPlaceRows() const { return OutputPlaces.rows(); }
  Rows<TransitionId> consumerRows() const { return Consumers.rows(); }

  /// Builds the initial marking M0 from the per-place token counts.
  Marking initialMarking() const;

  /// Sum of all execution times; the value sum of any simple path or
  /// cycle is bounded by this (used by the theoretical bound checks).
  uint64_t totalExecTime() const;

  /// True if \p T is enabled by \p M (every input place marked).
  bool isEnabled(TransitionId T, const Marking &M) const;

  /// Fires \p T atomically in \p M: consumes one token per input place
  /// and produces one per output place.  \p T must be enabled.
  void fire(TransitionId T, Marking &M) const;

  /// Enumerates all place ids (dense, 0..numPlaces-1).
  std::vector<PlaceId> placeIds() const;
  /// Enumerates all transition ids (dense, 0..numTransitions-1).
  std::vector<TransitionId> transitionIds() const;

  /// Bytes held by the net's arrays (the artifact-size accounting).
  uint64_t sizeBytes() const;

  /// Feeds the net's content to \p HS: every place, then every
  /// transition (name by value, then token count or execution time),
  /// then the four adjacency lists, each as its row ends and its items
  /// whole.
  void hashContent(HashStream &HS) const;

  /// Renders the net (structure + initial marking) in DOT syntax:
  /// circles for places, boxes for transitions, token counts as labels.
  void printDot(std::ostream &OS, const std::string &GraphName) const;

private:
  friend class PetriNetBuilder;

  /// One place or transition: its name's range in the arena and its
  /// initial tokens (places) or execution time (transitions).
  struct Record {
    uint32_t NameBegin = 0;
    uint32_t NameEnd = 0;
    uint32_t Value = 0;
  };

  /// One adjacency list per row, in compressed-sparse-row form: row R
  /// is Items[Start[R] .. Start[R + 1]).  Start is empty while there are
  /// no rows.
  template <typename IdT> struct Csr {
    std::vector<uint32_t> Start;
    std::vector<IdT> Items;

    std::span<const IdT> row(size_t R) const {
      return {Items.data() + Start[R], Items.data() + Start[R + 1]};
    }
    Rows<IdT> rows() const {
      static constexpr uint32_t NoRows[1] = {0};
      return {Start.empty() ? std::span<const uint32_t>(NoRows)
                            : std::span<const uint32_t>(Start),
              Items};
    }
    /// Appends one row holding \p Row.
    void append(std::span<const IdT> Row);
    /// Feeds the row ends (Start without its leading 0, which is
    /// absent while there are no rows) and the items.
    void hashContent(HashStream &HS) const;
    /// Refills \p Rows rows from \p Pairs: row RowOf(X) gains ItemOf(X),
    /// and each row keeps its pairs in their order in \p Pairs.
    template <typename Pair, typename RowFn, typename ItemFn>
    void assign(size_t Rows, const std::vector<Pair> &Pairs, RowFn RowOf,
                ItemFn ItemOf);
  };

  std::string_view name(const Record &N) const {
    return {Names.data() + N.NameBegin, N.NameEnd - N.NameBegin};
  }

  /// Appends \p NameParts to the arena as one name.
  Record newRecord(std::initializer_list<std::string_view> NameParts,
                   uint32_t Value);

  std::string Names;
  std::vector<Record> Places;
  std::vector<Record> Transitions;
  Csr<TransitionId> Producers, Consumers;
  Csr<PlaceId> InputPlaces, OutputPlaces;
};

/// A net assembled node by node with every adjacency list given whole.
/// This is the persistent artifact store's decoder entry point
/// (core/ArtifactCodec.cpp): per-arc replay cannot reproduce the
/// original adjacency-list interleaving from the final structure, and
/// content hashes depend on it, so deserialization restores the lists
/// verbatim.  The caller must validate every cross-reference (ids in
/// range, arcs present on both endpoints) before trusting the net.
class PetriNet::Parts {
public:
  void addPlace(std::string_view Name, uint32_t InitialTokens,
                std::span<const TransitionId> Producers,
                std::span<const TransitionId> Consumers);
  void addTransition(std::string_view Name, TimeUnits ExecTime,
                     std::span<const PlaceId> InputPlaces,
                     std::span<const PlaceId> OutputPlaces);

private:
  friend class PetriNet;
  PetriNet Net;
};

/// Assembles a PetriNet: create places and transitions, connect them
/// with arcs, then build().  Every adjacency list of the built net keeps
/// its arcs in the order addArc() added them.
class PetriNetBuilder {
public:
  /// Creates a place named \p Name carrying \p InitialTokens initially.
  PlaceId addPlace(std::string_view Name, uint32_t InitialTokens = 0);
  /// Creates a place named by the concatenation of \p NameParts, written
  /// straight into the name arena.
  PlaceId addPlace(std::initializer_list<std::string_view> NameParts,
                   uint32_t InitialTokens);

  /// Creates a transition named \p Name with execution time \p ExecTime.
  TransitionId addTransition(std::string_view Name, TimeUnits ExecTime = 1);
  /// Creates a transition named by the concatenation of \p NameParts.
  TransitionId addTransition(std::initializer_list<std::string_view> NameParts,
                             TimeUnits ExecTime);

  /// Adds the consumption arc \p P -> \p T.
  void addArc(PlaceId P, TransitionId T) {
    assert(P.index() < numPlaces() && T.index() < numTransitions() &&
           "arc endpoint out of range");
    Consumes.push_back({P, T});
  }
  /// Adds the production arc \p T -> \p P.
  void addArc(TransitionId T, PlaceId P) {
    assert(P.index() < numPlaces() && T.index() < numTransitions() &&
           "arc endpoint out of range");
    Produces.push_back({P, T});
  }

  size_t numPlaces() const { return Net.numPlaces(); }
  size_t numTransitions() const { return Net.numTransitions(); }

  /// Finishes the net; the builder is left empty.
  PetriNet build();

private:
  struct Arc {
    PlaceId P;
    TransitionId T;
  };

  /// The net under construction: names and records are final; the
  /// adjacency is filled from the arc lists by build().
  PetriNet Net;
  std::vector<Arc> Consumes, Produces;
};

} // namespace sdsp

#endif // SDSP_PETRI_PETRINET_H
