//===- dataflow/DataflowGraph.h - Static dataflow graph IR ------*- C++ -*-===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The program representation of Section 3.2: a loop body as a static
/// dataflow graph G = (V, E, E~, F, F~).  This IR stores the node set V
/// and the data arcs — E (forward, within one iteration) and E~
/// (feedback, carrying loop-carried dependences to later iterations).
/// The acknowledgement arc sets F and F~ are not stored here: they are
/// derived by SDSP construction (core/Sdsp.h), where the storage
/// discipline (one-token-per-arc, or deeper FIFO buffers) is chosen.
///
/// Each arc has a *distance*: forward arcs have distance 0; a feedback
/// arc with distance d carries the producer's value from iteration i to
/// iteration i + d and holds d initial values.  The paper fixes d = 1
/// ("loop-carried dependences are from one iteration to the next");
/// d > 1 is supported as a documented extension.
///
/// Layout.  A graph is stored flat: nodes and arcs are fixed-size
/// records, each node keeps its operand arcs in inline slots (arity is
/// at most 3) and its fanout as a list threaded through the arc records
/// in creation order, every name lives in one character arena, and every
/// feedback arc's initial values live in one arena of doubles.
/// Building, copying, hashing and freeing a graph therefore cost a
/// constant number of allocations, whatever its size.  node() and arc()
/// hand out small views into the arrays, valid while the graph lives and
/// is not modified.
///
//===----------------------------------------------------------------------===//

#ifndef SDSP_DATAFLOW_DATAFLOWGRAPH_H
#define SDSP_DATAFLOW_DATAFLOWGRAPH_H

#include "dataflow/Ops.h"
#include "support/Ids.h"

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <iterator>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace sdsp {

class HashStream;

struct NodeTag {};
using NodeId = Id<NodeTag>;
struct ArcTag {};
using ArcId = Id<ArcTag>;

/// A single-assignment dataflow graph for a loop body.
class DataflowGraph {
  /// Largest operand count of any operator (merge).
  static constexpr unsigned MaxArity = 3;
  static constexpr uint32_t NoArc = ArcId::InvalidValue;

  struct ArcRecord {
    NodeId From;
    NodeId To;
    uint32_t FromPort = 0;
    uint32_t ToPort = 0;
    uint32_t Distance = 0;
    /// First of Distance initial values in the value arena.
    uint32_t InitBegin = 0;
    /// Next arc in From's fanout list, or NoArc.
    uint32_t NextOut = NoArc;
  };

public:
  /// A node's outgoing data arcs, in creation order.
  class FanoutRange {
  public:
    class iterator {
    public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = ArcId;
      using difference_type = std::ptrdiff_t;
      using pointer = const ArcId *;
      using reference = ArcId;

      iterator() = default;
      ArcId operator*() const { return ArcId(At); }
      iterator &operator++() {
        At = Arcs[At].NextOut;
        return *this;
      }
      iterator operator++(int) {
        iterator Old = *this;
        ++*this;
        return Old;
      }
      friend bool operator==(const iterator &A, const iterator &B) {
        return A.At == B.At;
      }

    private:
      friend class FanoutRange;
      iterator(const ArcRecord *Arcs, uint32_t At) : Arcs(Arcs), At(At) {}
      const ArcRecord *Arcs = nullptr;
      uint32_t At = NoArc;
    };

    iterator begin() const { return iterator(Arcs, First); }
    iterator end() const { return iterator(Arcs, NoArc); }
    size_t size() const { return Count; }
    bool empty() const { return Count == 0; }

  private:
    friend class DataflowGraph;
    FanoutRange(const ArcRecord *Arcs, uint32_t First, uint32_t Count)
        : Arcs(Arcs), First(First), Count(Count) {}
    const ArcRecord *Arcs;
    uint32_t First;
    uint32_t Count;
  };

  /// One operator instance: a view into the graph.
  struct Node {
    OpKind Kind;
    /// Display name; also the stream name for Input/Output nodes.
    std::string_view Name;
    /// Constant payload (Const nodes only).
    double ConstValue = 0.0;
    /// Execution time in cycles (tau_i); the paper uses 1.
    uint32_t ExecTime = 1;
    /// Incoming data arc per operand port (size == opArity(Kind));
    /// invalid while the port is unconnected.
    std::span<const ArcId> Operands;
    /// Outgoing data arcs, in creation order.
    FanoutRange Fanout;
  };

  /// One data arc: a view into the graph.
  struct Arc {
    NodeId From;
    /// Producing result port of From (only Switch has port 1).
    uint32_t FromPort = 0;
    NodeId To;
    /// Operand port of To.
    uint32_t ToPort = 0;
    /// Iteration distance: 0 = forward arc (E), >= 1 = feedback arc
    /// (E~) carrying that many initial values.
    uint32_t Distance = 0;
    /// Initial values on a feedback arc (size == Distance).
    std::span<const double> InitialValues;

    bool isFeedback() const { return Distance > 0; }
  };

  /// Creates a node; its operand ports start unconnected.  An empty
  /// \p Name is replaced by the operator name and the node's index.
  NodeId addNode(OpKind Kind, std::string_view Name = {});

  /// Creates a Const node producing \p Value.
  NodeId addConst(double Value, std::string_view Name = {});

  /// Connects result port \p FromPort of \p From to operand port
  /// \p ToPort of \p To as a forward arc.
  ArcId connect(NodeId From, uint32_t FromPort, NodeId To, uint32_t ToPort);

  /// Connects as a feedback arc with distance InitialValues.size().
  ArcId connectFeedback(NodeId From, uint32_t FromPort, NodeId To,
                        uint32_t ToPort,
                        std::span<const double> InitialValues);
  ArcId connectFeedback(NodeId From, uint32_t FromPort, NodeId To,
                        uint32_t ToPort,
                        std::initializer_list<double> InitialValues) {
    return connectFeedback(From, FromPort, To, ToPort,
                           std::span<const double>(InitialValues.begin(),
                                                   InitialValues.size()));
  }

  void setExecTime(NodeId N, uint32_t Cycles);

  /// Renames \p N (display name / stream name).
  void setName(NodeId N, std::string_view Name);

  size_t numNodes() const { return Nodes.size(); }
  size_t numArcs() const { return Arcs.size(); }

  Node node(NodeId N) const {
    const NodeRecord &R = Nodes[N.index()];
    return {R.Kind,
            {Names.data() + R.NameBegin, R.NameEnd - R.NameBegin},
            R.ConstValue,
            R.ExecTime,
            {R.Operands, R.Arity},
            FanoutRange(Arcs.data(), R.FirstOut, R.NumOut)};
  }
  Arc arc(ArcId A) const {
    const ArcRecord &R = Arcs[A.index()];
    return {R.From,     R.FromPort, R.To, R.ToPort, R.Distance,
            {InitValues.data() + R.InitBegin, R.Distance}};
  }

  IdRange<NodeId> nodeIds() const { return IdRange<NodeId>(Nodes.size()); }
  IdRange<ArcId> arcIds() const { return IdRange<ArcId>(Arcs.size()); }

  /// Number of nodes that execute repeatedly, i.e. the paper's "size of
  /// loop body" n.  All nodes in this IR are repetitive, so this is
  /// numNodes().
  size_t loopBodySize() const { return Nodes.size(); }

  /// True if the loop has at least one feedback arc, i.e. a
  /// loop-carried dependence (a DO loop as opposed to a DOALL loop).
  bool hasLoopCarriedDependence() const;

  /// Nodes in a topological order of the forward (distance-0) subgraph.
  /// The forward subgraph must be acyclic (checked by validate()).
  std::vector<NodeId> forwardTopoOrder() const;

  /// Makes room for the given numbers of nodes, arcs, name bytes and
  /// initial values.
  void reserve(size_t NumNodes, size_t NumArcs, size_t NameBytes,
               size_t NumInitValues);

  /// Bytes held by the graph's arrays (the artifact-size accounting).
  uint64_t sizeBytes() const;

  /// Feeds the graph's content to \p HS: every node (operator,
  /// execution time, constant, name by value), every arc (endpoints,
  /// ports, distance), then all initial values whole.  Operand slots
  /// and fanout lists follow from the arcs and are not fed.
  void hashContent(HashStream &HS) const;

  /// Renders the graph in DOT syntax: solid arcs for forward data,
  /// dashed for feedback.
  void printDot(std::ostream &OS, const std::string &GraphName) const;

private:
  struct NodeRecord {
    OpKind Kind = OpKind::Identity;
    /// opArity(Kind), kept so node() costs no call.
    uint8_t Arity = 0;
    uint32_t NameBegin = 0;
    uint32_t NameEnd = 0;
    uint32_t ExecTime = 1;
    double ConstValue = 0.0;
    ArcId Operands[MaxArity];
    /// Fanout list: first and last arc (NoArc while empty) and length.
    uint32_t FirstOut = NoArc;
    uint32_t LastOut = NoArc;
    uint32_t NumOut = 0;
  };

  std::vector<NodeRecord> Nodes;
  std::vector<ArcRecord> Arcs;
  std::string Names;
  std::vector<double> InitValues;

  ArcId addArc(NodeId From, uint32_t FromPort, NodeId To, uint32_t ToPort,
               std::span<const double> InitialValues);
  /// Points \p R's name at \p Name, appended to the arena.
  void assignName(NodeRecord &R, std::string_view Name);
};

} // namespace sdsp

#endif // SDSP_DATAFLOW_DATAFLOWGRAPH_H
