//===- dataflow/Interpreter.cpp - Functional reference execution -----------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "dataflow/Interpreter.h"

#include "dataflow/Validate.h"

#include <cassert>

using namespace sdsp;

namespace {

/// Rolling per-node value history deep enough for the largest feedback
/// distance.
class History {
public:
  History(size_t NumNodes, size_t Depth)
      : Depth(Depth), Slots(NumNodes * Depth * 2) {}

  TokenValue &at(NodeId N, uint32_t Port, size_t Iteration) {
    return Slots[(N.index() * Depth + Iteration % Depth) * 2 + Port];
  }

private:
  size_t Depth;
  std::vector<TokenValue> Slots;
};

} // namespace

Expected<InterpResult> sdsp::interpretChecked(const DataflowGraph &G,
                                              const StreamMap &Inputs,
                                              size_t Iterations) {
  if (Status S = validationStatus(G, "interpret"); !S)
    return S;
  for (NodeId N : G.nodeIds()) {
    const DataflowGraph::Node &Node = G.node(N);
    if (Node.Kind != OpKind::Input)
      continue;
    const std::string Name(Node.Name);
    auto It = Inputs.find(Name);
    if (It == Inputs.end())
      return Status::error(ErrorCode::InvalidInput, "interpret",
                           "missing input stream '" + Name + "'");
    if (It->second.size() < Iterations)
      return Status::error(ErrorCode::InvalidInput, "interpret",
                           "input stream '" + Name + "' has " +
                               std::to_string(It->second.size()) +
                               " elements for " +
                               std::to_string(Iterations) + " iterations");
  }

  uint32_t MaxDistance = 1;
  for (ArcId AI : G.arcIds())
    MaxDistance = std::max(MaxDistance, G.arc(AI).Distance);

  std::vector<NodeId> Order = G.forwardTopoOrder();
  History Values(G.numNodes(), MaxDistance + 1);
  InterpResult Result;

  auto ReadOperand = [&](const DataflowGraph::Node &Node, unsigned Port,
                         size_t Iter) -> TokenValue {
    const DataflowGraph::Arc &A = G.arc(Node.Operands[Port]);
    if (!A.isFeedback())
      return Values.at(A.From, A.FromPort, Iter);
    if (Iter < A.Distance)
      return TokenValue::real(A.InitialValues[Iter]);
    return Values.at(A.From, A.FromPort, Iter - A.Distance);
  };

  for (size_t Iter = 0; Iter < Iterations; ++Iter) {
    for (NodeId N : Order) {
      const DataflowGraph::Node &Node = G.node(N);
      switch (Node.Kind) {
      case OpKind::Const:
        Values.at(N, 0, Iter) = TokenValue::real(Node.ConstValue);
        break;
      case OpKind::Input:
        Values.at(N, 0, Iter) =
            TokenValue::real(Inputs.at(std::string(Node.Name))[Iter]);
        break;
      case OpKind::Output: {
        TokenValue V = ReadOperand(Node, 0, Iter);
        const std::string Name(Node.Name);
        Result.Outputs[Name].push_back(V.IsDummy ? 0.0 : V.Num);
        Result.DummyMask[Name].push_back(V.IsDummy);
        break;
      }
      case OpKind::Switch: {
        TokenValue Ctrl = ReadOperand(Node, 0, Iter);
        TokenValue Data = ReadOperand(Node, 1, Iter);
        bool TakeTrue = !Ctrl.IsDummy && Ctrl.Num != 0.0;
        if (Ctrl.IsDummy || Data.IsDummy) {
          // Dummy control or data poisons both branches.
          Values.at(N, 0, Iter) = TokenValue::dummy();
          Values.at(N, 1, Iter) = TokenValue::dummy();
        } else {
          Values.at(N, 0, Iter) =
              TakeTrue ? Data : TokenValue::dummy();
          Values.at(N, 1, Iter) =
              TakeTrue ? TokenValue::dummy() : Data;
        }
        break;
      }
      case OpKind::Merge: {
        TokenValue Ctrl = ReadOperand(Node, 0, Iter);
        TokenValue T = ReadOperand(Node, 1, Iter);
        TokenValue F = ReadOperand(Node, 2, Iter);
        if (Ctrl.IsDummy)
          Values.at(N, 0, Iter) = TokenValue::dummy();
        else
          Values.at(N, 0, Iter) = (Ctrl.Num != 0.0) ? T : F;
        break;
      }
      default: {
        TokenValue Ops[3];
        unsigned Arity = opArity(Node.Kind);
        for (unsigned P = 0; P < Arity; ++P)
          Ops[P] = ReadOperand(Node, P, Iter);
        Values.at(N, 0, Iter) = evalSimpleOp(Node.Kind, Ops);
        break;
      }
      }
    }
  }
  return Result;
}

InterpResult sdsp::interpret(const DataflowGraph &G, const StreamMap &Inputs,
                             size_t Iterations) {
  return SDSP_EXPECT_OK(interpretChecked(G, Inputs, Iterations));
}
