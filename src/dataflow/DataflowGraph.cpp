//===- dataflow/DataflowGraph.cpp - Static dataflow graph IR ---------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "dataflow/DataflowGraph.h"

#include "support/Dot.h"
#include "support/HashStream.h"
#include "support/Status.h"

#include <cassert>
#include <limits>
#include <ostream>

using namespace sdsp;

void DataflowGraph::assignName(NodeRecord &R, std::string_view Name) {
  R.NameBegin = static_cast<uint32_t>(Names.size());
  Names.append(Name);
  SDSP_CHECK(Names.size() <= std::numeric_limits<uint32_t>::max(),
             "graph names exceed the 4 GiB arena");
  R.NameEnd = static_cast<uint32_t>(Names.size());
}

NodeId DataflowGraph::addNode(OpKind Kind, std::string_view Name) {
  NodeId N(Nodes.size());
  NodeRecord R;
  R.Kind = Kind;
  R.Arity = static_cast<uint8_t>(opArity(Kind));
  if (Name.empty()) {
    std::string Default = opName(Kind) + std::to_string(N.index());
    assignName(R, Default);
  } else {
    assignName(R, Name);
  }
  Nodes.push_back(R);
  return N;
}

NodeId DataflowGraph::addConst(double Value, std::string_view Name) {
  NodeId N = Name.empty() ? addNode(OpKind::Const, std::to_string(Value))
                          : addNode(OpKind::Const, Name);
  Nodes[N.index()].ConstValue = Value;
  return N;
}

ArcId DataflowGraph::addArc(NodeId From, uint32_t FromPort, NodeId To,
                            uint32_t ToPort,
                            std::span<const double> InitialValues) {
  assert(FromPort < opResults(Nodes[From.index()].Kind) &&
         "result port out of range");
  assert(ToPort < opArity(Nodes[To.index()].Kind) &&
         "operand port out of range");
  assert(!Nodes[To.index()].Operands[ToPort].isValid() &&
         "operand port already connected");
  ArcId Id(Arcs.size());
  ArcRecord A;
  A.From = From;
  A.To = To;
  A.FromPort = FromPort;
  A.ToPort = ToPort;
  A.Distance = static_cast<uint32_t>(InitialValues.size());
  A.InitBegin = static_cast<uint32_t>(InitValues.size());
  InitValues.insert(InitValues.end(), InitialValues.begin(),
                    InitialValues.end());
  Arcs.push_back(A);
  NodeRecord &Src = Nodes[From.index()];
  if (Src.NumOut == 0)
    Src.FirstOut = Id.index();
  else
    Arcs[Src.LastOut].NextOut = Id.index();
  Src.LastOut = Id.index();
  ++Src.NumOut;
  Nodes[To.index()].Operands[ToPort] = Id;
  return Id;
}

ArcId DataflowGraph::connect(NodeId From, uint32_t FromPort, NodeId To,
                             uint32_t ToPort) {
  return addArc(From, FromPort, To, ToPort, {});
}

ArcId DataflowGraph::connectFeedback(NodeId From, uint32_t FromPort,
                                     NodeId To, uint32_t ToPort,
                                     std::span<const double> InitialValues) {
  assert(!InitialValues.empty() && "feedback arc needs initial values");
  return addArc(From, FromPort, To, ToPort, InitialValues);
}

void DataflowGraph::setExecTime(NodeId N, uint32_t Cycles) {
  assert(Cycles >= 1 && "execution times must be positive");
  Nodes[N.index()].ExecTime = Cycles;
}

void DataflowGraph::setName(NodeId N, std::string_view Name) {
  // The old name's bytes stay in the arena, unreferenced.
  assignName(Nodes[N.index()], Name);
}

bool DataflowGraph::hasLoopCarriedDependence() const {
  for (const ArcRecord &A : Arcs)
    if (A.Distance > 0)
      return true;
  return false;
}

std::vector<NodeId> DataflowGraph::forwardTopoOrder() const {
  std::vector<uint32_t> InDegree(Nodes.size(), 0);
  for (const ArcRecord &A : Arcs)
    if (A.Distance == 0)
      ++InDegree[A.To.index()];

  std::vector<NodeId> Order;
  Order.reserve(Nodes.size());
  std::vector<size_t> Ready;
  for (size_t I = 0; I < Nodes.size(); ++I)
    if (InDegree[I] == 0)
      Ready.push_back(I);
  while (!Ready.empty()) {
    size_t V = Ready.back();
    Ready.pop_back();
    Order.push_back(NodeId(V));
    for (ArcId AI : node(NodeId(V)).Fanout) {
      const ArcRecord &A = Arcs[AI.index()];
      if (A.Distance > 0)
        continue;
      if (--InDegree[A.To.index()] == 0)
        Ready.push_back(A.To.index());
    }
  }
  assert(Order.size() == Nodes.size() &&
         "forward subgraph has a cycle; run validate()");
  return Order;
}

void DataflowGraph::reserve(size_t NumNodes, size_t NumArcs,
                            size_t NameBytes, size_t NumInitValues) {
  Nodes.reserve(NumNodes);
  Arcs.reserve(NumArcs);
  Names.reserve(NameBytes);
  InitValues.reserve(NumInitValues);
}

uint64_t DataflowGraph::sizeBytes() const {
  return Nodes.size() * sizeof(NodeRecord) + Arcs.size() * sizeof(ArcRecord) +
         Names.size() + InitValues.size() * sizeof(double);
}

void DataflowGraph::hashContent(HashStream &HS) const {
  HS.u64(Nodes.size());
  for (const NodeRecord &R : Nodes)
    HS.u64(static_cast<uint64_t>(R.Kind) | uint64_t{R.ExecTime} << 32)
        .f64(R.ConstValue)
        .str({Names.data() + R.NameBegin, R.NameEnd - R.NameBegin});
  HS.u64(Arcs.size());
  for (const ArcRecord &A : Arcs)
    HS.u64(A.From.index() | uint64_t{A.To.index()} << 32)
        .u64(A.FromPort | uint64_t{A.ToPort} << 32)
        .u64(A.Distance);
  // Arcs append their initial values, so the arena is exactly every
  // arc's values in arc order.
  HS.f64s(InitValues);
}

void DataflowGraph::printDot(std::ostream &OS,
                             const std::string &GraphName) const {
  DotWriter Dot(OS, GraphName);
  Dot.graphAttr("rankdir", "TB");
  for (size_t I = 0; I < Nodes.size(); ++I) {
    const Node N = node(NodeId(I));
    std::string Label(N.Name);
    if (N.Kind != OpKind::Const && N.Name != opName(N.Kind))
      Label += "\\n" + std::string(opName(N.Kind));
    Dot.node("n" + std::to_string(I), Label, "shape=ellipse");
  }
  for (const ArcRecord &A : Arcs) {
    std::string Attrs = A.Distance > 0 ? "style=dashed" : "";
    std::string Label;
    if (A.Distance > 0)
      Label = "d=" + std::to_string(A.Distance);
    Dot.edge("n" + std::to_string(A.From.index()),
             "n" + std::to_string(A.To.index()), Label, Attrs);
  }
}
