//===- dataflow/Validate.cpp - Well-formedness checks ----------------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "dataflow/Validate.h"

using namespace sdsp;

std::vector<ValidationError> sdsp::validate(const DataflowGraph &G) {
  std::vector<ValidationError> Errors;
  auto Error = [&](std::string Msg) {
    Errors.push_back(ValidationError{std::move(Msg)});
  };

  for (NodeId N : G.nodeIds()) {
    const DataflowGraph::Node Node = G.node(N);
    const std::string_view Name = Node.Name;
    if (Node.ExecTime < 1)
      Error("node " + std::string(Name) + " has execution time 0");
    for (size_t Port = 0; Port < Node.Operands.size(); ++Port)
      if (!Node.Operands[Port].isValid())
        Error("node " + std::string(Name) + " operand port " +
              std::to_string(Port) + " is unconnected");
    if (opResults(Node.Kind) > 0 && Node.Fanout.empty() &&
        Node.Kind != OpKind::Input)
      Error("node " + std::string(Name) + " computes a value nobody uses");
  }

  // The forward subgraph must be acyclic: Kahn's algorithm must consume
  // every node.
  {
    std::vector<uint32_t> InDegree(G.numNodes(), 0);
    for (ArcId AI : G.arcIds()) {
      const DataflowGraph::Arc A = G.arc(AI);
      if (!A.isFeedback())
        ++InDegree[A.To.index()];
    }
    std::vector<size_t> Ready;
    for (size_t I = 0; I < G.numNodes(); ++I)
      if (InDegree[I] == 0)
        Ready.push_back(I);
    size_t Seen = 0;
    while (!Ready.empty()) {
      size_t V = Ready.back();
      Ready.pop_back();
      ++Seen;
      for (ArcId AI : G.node(NodeId(V)).Fanout) {
        const DataflowGraph::Arc &A = G.arc(AI);
        if (A.isFeedback())
          continue;
        if (--InDegree[A.To.index()] == 0)
          Ready.push_back(A.To.index());
      }
    }
    if (Seen != G.numNodes())
      Error("forward arcs form a cycle: a dependence cycle must cross an "
            "iteration boundary via a feedback arc");
  }

  return Errors;
}

bool sdsp::isWellFormed(const DataflowGraph &G) { return validate(G).empty(); }

Status sdsp::validationStatus(const DataflowGraph &G,
                              const std::string &Stage) {
  std::vector<ValidationError> Errors = validate(G);
  if (Errors.empty())
    return Status::ok();
  std::string Msg = "malformed dataflow graph: ";
  for (size_t I = 0; I < Errors.size(); ++I) {
    if (I > 0)
      Msg += "; ";
    Msg += Errors[I].Message;
  }
  return Status::error(ErrorCode::InvalidGraph, Stage, std::move(Msg));
}
