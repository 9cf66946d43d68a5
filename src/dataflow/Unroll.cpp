//===- dataflow/Unroll.cpp - Loop unrolling transform ----------------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "dataflow/Unroll.h"

#include "dataflow/Validate.h"

#include <cassert>

using namespace sdsp;

Expected<DataflowGraph> sdsp::unrollLoopChecked(const DataflowGraph &G,
                                                uint32_t Factor) {
  if (Factor < 1 || Factor > MaxUnrollFactor)
    return Status::error(ErrorCode::InvalidInput, "dataflow",
                         "unroll factor " + std::to_string(Factor) +
                             " out of range [1, " +
                             std::to_string(MaxUnrollFactor) + "]");
  if (Status S = validationStatus(G, "dataflow"); !S)
    return S;

  DataflowGraph Out;
  // Copy j of original node n is node j * numNodes() + n.
  const size_t N = G.numNodes();
  auto Clone = [N](size_t J, NodeId Orig) {
    return NodeId(J * N + Orig.index());
  };

  // Copy j of a node is named "<name>@j" (just "<name>" when U = 1).
  const size_t MaxSuffix =
      Factor > 1 ? 1 + std::to_string(Factor - 1).size() : 0;
  size_t NameBytes = 0, NumInit = 0;
  for (NodeId Orig : G.nodeIds())
    NameBytes += G.node(Orig).Name.size() + MaxSuffix;
  for (ArcId AI : G.arcIds())
    NumInit += G.arc(AI).Distance;
  Out.reserve(Factor * N, Factor * G.numArcs(), Factor * NameBytes, NumInit);
  std::string Name, Suffix;
  for (uint32_t J = 0; J < Factor; ++J) {
    if (Factor > 1)
      Suffix = "@" + std::to_string(J);
    for (NodeId Orig : G.nodeIds()) {
      const DataflowGraph::Node Node = G.node(Orig);
      Name.assign(Node.Name).append(Suffix);
      NodeId C = Node.Kind == OpKind::Const
                     ? Out.addConst(Node.ConstValue, Name)
                     : Out.addNode(Node.Kind, Name);
      Out.setExecTime(C, Node.ExecTime);
    }
  }

  std::vector<double> Init;
  for (uint32_t J = 0; J < Factor; ++J) {
    for (ArcId AI : G.arcIds()) {
      const DataflowGraph::Arc A = G.arc(AI);
      NodeId To = Clone(J, A.To);
      if (!A.isFeedback()) {
        Out.connect(Clone(J, A.From), A.FromPort, To, A.ToPort);
        continue;
      }
      // Copy j of macro-iteration i consumes original iteration
      // U*i + j - d, i.e. copy (j - d) mod U of macro-iteration i - q.
      int64_t D = A.Distance;
      int64_t SrcJ = ((static_cast<int64_t>(J) - D) % Factor + Factor) %
                     Factor;
      int64_t Q = (SrcJ - static_cast<int64_t>(J) + D) / Factor;
      NodeId From = Clone(static_cast<size_t>(SrcJ), A.From);
      if (Q == 0) {
        Out.connect(From, A.FromPort, To, A.ToPort);
        continue;
      }
      // Initial values: macro-iteration i < q corresponds to original
      // iteration U*i + j < d.
      Init.resize(static_cast<size_t>(Q));
      for (int64_t I = 0; I < Q; ++I) {
        size_t Orig = static_cast<size_t>(I) * Factor + J;
        assert(Orig < A.InitialValues.size() &&
               "initial window slice out of range");
        Init[static_cast<size_t>(I)] = A.InitialValues[Orig];
      }
      Out.connectFeedback(From, A.FromPort, To, A.ToPort, Init);
    }
  }

  SDSP_CHECK(isWellFormed(Out), "unrolling broke well-formedness");
  return Out;
}

DataflowGraph sdsp::unrollLoop(const DataflowGraph &G, uint32_t Factor) {
  return SDSP_EXPECT_OK(unrollLoopChecked(G, Factor));
}

StreamMap sdsp::stridedStreams(const StreamMap &Inputs, uint32_t Factor,
                               size_t MacroIterations) {
  if (Factor == 1)
    return Inputs;
  StreamMap Out;
  for (const auto &[Name, Values] : Inputs) {
    assert(Values.size() >= MacroIterations * Factor &&
           "stream too short for the unrolled view");
    for (uint32_t J = 0; J < Factor; ++J) {
      std::vector<double> Sub(MacroIterations);
      for (size_t I = 0; I < MacroIterations; ++I)
        Sub[I] = Values[I * Factor + J];
      Out[Name + "@" + std::to_string(J)] = std::move(Sub);
    }
  }
  return Out;
}

StreamMap sdsp::interleaveOutputs(const StreamMap &PerCopy,
                                  uint32_t Factor) {
  if (Factor == 1)
    return PerCopy;
  StreamMap Out;
  for (const auto &[Name, Values] : PerCopy) {
    size_t At = Name.rfind('@');
    assert(At != std::string::npos && "per-copy stream without @j");
    std::string Base = Name.substr(0, At);
    uint32_t J = static_cast<uint32_t>(std::stoul(Name.substr(At + 1)));
    std::vector<double> &Merged = Out[Base];
    if (Merged.size() < Values.size() * Factor)
      Merged.resize(Values.size() * Factor, 0.0);
    for (size_t I = 0; I < Values.size(); ++I)
      Merged[I * Factor + J] = Values[I];
  }
  return Out;
}
