//===- dataflow/Transforms.cpp - Dataflow graph optimizations --------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "dataflow/Transforms.h"

#include <cassert>
#include <functional>
#include <map>
#include <optional>

using namespace sdsp;

namespace {

/// Copies \p G keeping the nodes where \p Kept is true, redirecting
/// every consumed value through \p ResolveSource: given the original
/// (producer, port), it returns the (new-graph producer, port).  Kept
/// nodes are recreated 1:1 (the caller seeds NewId for extra nodes such
/// as folded constants).
DataflowGraph
rebuildGraph(const DataflowGraph &G, const std::vector<bool> &Kept,
             const std::function<std::pair<NodeId, uint32_t>(
                 DataflowGraph &, NodeId, uint32_t)> &ResolveSource) {
  DataflowGraph Out;
  std::vector<NodeId> NewId(G.numNodes(), NodeId::invalid());
  for (NodeId N : G.nodeIds()) {
    if (!Kept[N.index()])
      continue;
    const DataflowGraph::Node Node = G.node(N);
    NewId[N.index()] = Node.Kind == OpKind::Const
                           ? Out.addConst(Node.ConstValue, Node.Name)
                           : Out.addNode(Node.Kind, Node.Name);
    Out.setExecTime(NewId[N.index()], Node.ExecTime);
  }
  for (NodeId N : G.nodeIds()) {
    if (!Kept[N.index()])
      continue;
    const DataflowGraph::Node &Node = G.node(N);
    for (uint32_t Port = 0; Port < Node.Operands.size(); ++Port) {
      const DataflowGraph::Arc &A = G.arc(Node.Operands[Port]);
      NodeId NewTo = NewId[N.index()];
      NodeId SrcOld = A.From;
      std::pair<NodeId, uint32_t> Src;
      if (Kept[SrcOld.index()])
        Src = {NewId[SrcOld.index()], A.FromPort};
      else
        Src = ResolveSource(Out, SrcOld, A.FromPort);
      assert(Src.first.isValid() && "unresolved producer");
      if (A.isFeedback())
        Out.connectFeedback(Src.first, Src.second, NewTo, Port,
                            A.InitialValues);
      else
        Out.connect(Src.first, Src.second, NewTo, Port);
    }
  }
  return Out;
}

} // namespace

DataflowGraph sdsp::foldConstants(const DataflowGraph &G,
                                  TransformStats &Stats) {
  // Foldable: compute node, not Switch (its dummy port resists a
  // constant), every operand a forward arc from a Const or an
  // already-foldable node.
  std::vector<bool> Foldable(G.numNodes(), false);
  std::vector<double> Value(G.numNodes(), 0.0);
  for (NodeId N : G.forwardTopoOrder()) {
    const DataflowGraph::Node &Node = G.node(N);
    if (Node.Kind == OpKind::Const) {
      Foldable[N.index()] = true;
      Value[N.index()] = Node.ConstValue;
      continue;
    }
    if (Node.Kind == OpKind::Input || Node.Kind == OpKind::Output ||
        Node.Kind == OpKind::Switch)
      continue;
    bool AllConst = !Node.Operands.empty();
    TokenValue Operands[3];
    for (uint32_t Port = 0; Port < Node.Operands.size(); ++Port) {
      const DataflowGraph::Arc &A = G.arc(Node.Operands[Port]);
      if (A.isFeedback() || !Foldable[A.From.index()]) {
        AllConst = false;
        break;
      }
      Operands[Port] = TokenValue::real(Value[A.From.index()]);
    }
    if (!AllConst)
      continue;
    Foldable[N.index()] = true;
    if (Node.Kind == OpKind::Merge)
      Value[N.index()] =
          Operands[0].Num != 0.0 ? Operands[1].Num : Operands[2].Num;
    else
      Value[N.index()] = evalSimpleOp(Node.Kind, Operands).Num;
  }

  // Keep: everything except foldable *compute* nodes and Consts (the
  // rebuild re-creates constants on demand, deduplicated by value).
  std::vector<bool> Kept(G.numNodes(), false);
  size_t Folded = 0;
  for (NodeId N : G.nodeIds()) {
    OpKind K = G.node(N).Kind;
    bool Fold = Foldable[N.index()];
    Kept[N.index()] = !Fold;
    if (Fold && K != OpKind::Const)
      ++Folded;
  }
  if (Folded == 0)
    return G;
  Stats.ConstantsFolded += Folded;

  std::map<double, NodeId> ConstCache;
  auto Resolve = [&](DataflowGraph &Out, NodeId Old,
                     uint32_t Port) -> std::pair<NodeId, uint32_t> {
    (void)Port;
    assert(Foldable[Old.index()] && "only folded nodes are dropped");
    double V = Value[Old.index()];
    auto [It, Inserted] = ConstCache.try_emplace(V, NodeId::invalid());
    if (Inserted)
      It->second = Out.addConst(V);
    return {It->second, 0};
  };
  return rebuildGraph(G, Kept, Resolve);
}

DataflowGraph
sdsp::eliminateCommonSubexpressions(const DataflowGraph &G,
                                    TransformStats &Stats) {
  // Canonical representative per structural key.  Feedback operands
  // key on the *original* producer id (a later fixed-point round
  // catches merges exposed by this one).
  std::vector<NodeId> Canon(G.numNodes());
  for (NodeId N : G.nodeIds())
    Canon[N.index()] = N;

  std::map<std::string, NodeId> Seen;
  auto KeyOf = [&](NodeId N) {
    const DataflowGraph::Node &Node = G.node(N);
    std::string Key = std::to_string(static_cast<int>(Node.Kind)) + ":" +
                      std::to_string(Node.ExecTime);
    if (Node.Kind == OpKind::Const)
      return Key + ":" + std::to_string(Node.ConstValue);
    if (Node.Kind == OpKind::Input)
      return Key + ":" + std::string(Node.Name);
    for (ArcId AI : Node.Operands) {
      const DataflowGraph::Arc &A = G.arc(AI);
      NodeId Src = A.isFeedback() ? A.From : Canon[A.From.index()];
      Key += "|" + std::to_string(Src.index()) + "." +
             std::to_string(A.FromPort) + "." +
             std::to_string(A.Distance);
      for (double V : A.InitialValues)
        Key += "," + std::to_string(V);
    }
    return Key;
  };

  size_t Merged = 0;
  for (NodeId N : G.forwardTopoOrder()) {
    if (G.node(N).Kind == OpKind::Output)
      continue;
    std::string Key = KeyOf(N);
    auto [It, Inserted] = Seen.try_emplace(Key, N);
    if (!Inserted) {
      Canon[N.index()] = It->second;
      ++Merged;
    }
  }
  if (Merged == 0)
    return G;
  Stats.SubexpressionsMerged += Merged;

  std::vector<bool> Kept(G.numNodes(), false);
  for (NodeId N : G.nodeIds())
    Kept[N.index()] = (Canon[N.index()] == N);

  // The resolver maps a dropped duplicate to its canonical node in the
  // new graph — rebuildGraph has already created all kept nodes by the
  // time arcs are wired, so look the canonical new id up lazily via a
  // name-independent index: rebuildGraph assigns new ids in node-id
  // order over kept nodes.
  std::vector<uint32_t> NewIndex(G.numNodes(), 0);
  {
    uint32_t Next = 0;
    for (NodeId N : G.nodeIds())
      if (Kept[N.index()])
        NewIndex[N.index()] = Next++;
  }
  auto Resolve = [&](DataflowGraph &Out, NodeId Old,
                     uint32_t Port) -> std::pair<NodeId, uint32_t> {
    (void)Out;
    NodeId C = Canon[Old.index()];
    assert(Kept[C.index()] && "canonical node must be kept");
    return {NodeId(NewIndex[C.index()]), Port};
  };
  return rebuildGraph(G, Kept, Resolve);
}

DataflowGraph sdsp::eliminateDeadCode(const DataflowGraph &G,
                                      TransformStats &Stats) {
  // Backward closure from Output nodes over operand arcs.
  std::vector<bool> Live(G.numNodes(), false);
  std::vector<NodeId> Work;
  for (NodeId N : G.nodeIds())
    if (G.node(N).Kind == OpKind::Output) {
      Live[N.index()] = true;
      Work.push_back(N);
    }
  while (!Work.empty()) {
    NodeId N = Work.back();
    Work.pop_back();
    for (ArcId AI : G.node(N).Operands) {
      NodeId Src = G.arc(AI).From;
      if (Live[Src.index()])
        continue;
      Live[Src.index()] = true;
      Work.push_back(Src);
    }
  }

  size_t Dead = 0;
  for (NodeId N : G.nodeIds())
    if (!Live[N.index()])
      ++Dead;
  if (Dead == 0)
    return G;
  Stats.DeadNodesRemoved += Dead;

  auto Resolve = [](DataflowGraph &, NodeId,
                    uint32_t) -> std::pair<NodeId, uint32_t> {
    assert(false && "live node consuming from a dead producer");
    return {NodeId::invalid(), 0};
  };
  return rebuildGraph(G, Live, Resolve);
}

DataflowGraph sdsp::simplifyAlgebra(const DataflowGraph &G,
                                    TransformStats &Stats) {
  // Forwarding table: a rewritten node's consumers connect straight to
  // the preserved operand's producer.  Only forward-arc operands are
  // bypassed (bypassing a feedback operand would have to fold its
  // delay and initial window into every consumer arc).
  auto ConstVal = [&](ArcId AI) -> std::optional<double> {
    const DataflowGraph::Arc &A = G.arc(AI);
    if (A.isFeedback())
      return std::nullopt;
    const DataflowGraph::Node &Src = G.node(A.From);
    if (Src.Kind != OpKind::Const)
      return std::nullopt;
    return Src.ConstValue;
  };

  std::vector<std::pair<NodeId, uint32_t>> Fwd(
      G.numNodes(), {NodeId::invalid(), 0});
  size_t Rewrites = 0;
  for (NodeId N : G.forwardTopoOrder()) {
    const DataflowGraph::Node &Node = G.node(N);
    if (Node.Operands.size() != 2)
      continue;
    std::optional<double> L = ConstVal(Node.Operands[0]);
    std::optional<double> R = ConstVal(Node.Operands[1]);
    int KeepPort = -1;
    switch (Node.Kind) {
    case OpKind::Add:
      if (L == 0.0)
        KeepPort = 1;
      else if (R == 0.0)
        KeepPort = 0;
      break;
    case OpKind::Sub:
      if (R == 0.0)
        KeepPort = 0;
      break;
    case OpKind::Mul:
      if (L == 1.0)
        KeepPort = 1;
      else if (R == 1.0)
        KeepPort = 0;
      break;
    case OpKind::Div:
      if (R == 1.0)
        KeepPort = 0;
      break;
    default:
      break;
    }
    if (KeepPort < 0)
      continue;
    const DataflowGraph::Arc &Keep =
        G.arc(Node.Operands[static_cast<uint32_t>(KeepPort)]);
    if (Keep.isFeedback())
      continue;
    std::pair<NodeId, uint32_t> Target = {Keep.From, Keep.FromPort};
    if (Fwd[Target.first.index()].first.isValid())
      Target = Fwd[Target.first.index()]; // Chase forwarding chains.
    Fwd[N.index()] = Target;
    ++Rewrites;
  }
  if (Rewrites == 0)
    return G;
  Stats.AlgebraicRewrites += Rewrites;

  std::vector<bool> Kept(G.numNodes(), false);
  for (NodeId N : G.nodeIds())
    Kept[N.index()] = !Fwd[N.index()].first.isValid();
  std::vector<uint32_t> NewIndex(G.numNodes(), 0);
  {
    uint32_t Next = 0;
    for (NodeId N : G.nodeIds())
      if (Kept[N.index()])
        NewIndex[N.index()] = Next++;
  }
  auto Resolve = [&](DataflowGraph &, NodeId Old,
                     uint32_t) -> std::pair<NodeId, uint32_t> {
    std::pair<NodeId, uint32_t> T = Fwd[Old.index()];
    assert(T.first.isValid() && Kept[T.first.index()] &&
           "forwarding target must be kept");
    return {NodeId(NewIndex[T.first.index()]), T.second};
  };
  return rebuildGraph(G, Kept, Resolve);
}

DataflowGraph sdsp::optimize(const DataflowGraph &G,
                             TransformStats &Stats) {
  Stats.NodesBefore = G.numNodes();
  DataflowGraph Cur = G;
  for (int Round = 0; Round < 16; ++Round) {
    TransformStats RoundStats;
    Cur = foldConstants(Cur, RoundStats);
    Cur = simplifyAlgebra(Cur, RoundStats);
    Cur = eliminateCommonSubexpressions(Cur, RoundStats);
    Cur = eliminateDeadCode(Cur, RoundStats);
    Stats.ConstantsFolded += RoundStats.ConstantsFolded;
    Stats.SubexpressionsMerged += RoundStats.SubexpressionsMerged;
    Stats.DeadNodesRemoved += RoundStats.DeadNodesRemoved;
    Stats.AlgebraicRewrites += RoundStats.AlgebraicRewrites;
    if (!RoundStats.changedAnything())
      break;
  }
  Stats.NodesAfter = Cur.numNodes();
  return Cur;
}
