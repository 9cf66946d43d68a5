//===- core/Sdsp.cpp - Static dataflow software pipelines ------------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "core/Sdsp.h"

#include "dataflow/Validate.h"
#include "support/HashStream.h"

#include <cassert>

using namespace sdsp;

bool sdsp::isBoundaryOp(OpKind Kind) {
  return Kind == OpKind::Input || Kind == OpKind::Const ||
         Kind == OpKind::Output;
}

bool Sdsp::isInteriorArc(ArcId A) const {
  const DataflowGraph::Arc &Arc = G->arc(A);
  return !isBoundaryOp(G->node(Arc.From).Kind) &&
         !isBoundaryOp(G->node(Arc.To).Kind);
}

std::vector<ArcId> Sdsp::interiorArcs() const {
  std::vector<ArcId> Result;
  for (ArcId A : G->arcIds())
    if (isInteriorArc(A))
      Result.push_back(A);
  return Result;
}

size_t Sdsp::loopBodySize() const {
  size_t N = 0;
  for (NodeId Id : G->nodeIds())
    if (!isBoundaryOp(G->node(Id).Kind))
      ++N;
  return N;
}

void Sdsp::AckList::add(std::span<const ArcId> Path, uint32_t Slots) {
  Record R;
  R.PathBegin = static_cast<uint32_t>(PathArcs.size());
  PathArcs.insert(PathArcs.end(), Path.begin(), Path.end());
  R.PathEnd = static_cast<uint32_t>(PathArcs.size());
  R.Slots = Slots;
  Records.push_back(R);
}

std::vector<Sdsp::Ack> Sdsp::ackRecords() const {
  std::vector<Ack> Out;
  Out.reserve(Acks.size());
  for (AckView A : acks())
    Out.push_back(Ack{{A.Path.begin(), A.Path.end()}, A.Slots});
  return Out;
}

void Sdsp::hashAcks(HashStream &HS) const {
  HS.u64(Acks.Records.size());
  for (const AckList::Record &R : Acks.Records)
    HS.u64(R.Slots | uint64_t{R.PathEnd - R.PathBegin} << 32);
  // add() appends each path, so the arcs are every path in ack order.
  HS.ids(Acks.PathArcs);
}

uint64_t Sdsp::storageLocations() const {
  uint64_t Total = 0;
  for (AckView A : acks()) {
    uint64_t Resident = 0;
    for (ArcId Arc : A.Path)
      Resident += G->arc(Arc).Distance;
    Total += A.Slots + Resident;
  }
  // Self-feedback arcs carry no acknowledgement (non-reentrancy
  // serializes the producer-consumer) but still occupy their window.
  for (ArcId A : G->arcIds()) {
    const DataflowGraph::Arc &Arc = G->arc(A);
    if (isInteriorArc(A) && Arc.From == Arc.To)
      Total += Arc.Distance;
  }
  return Total;
}

namespace {

/// Forward-reachability (over distance-0 arcs, boundary nodes
/// excluded) of \p To from \p From.
bool forwardReaches(const DataflowGraph &G, NodeId From, NodeId To) {
  std::vector<bool> Seen(G.numNodes(), false);
  std::vector<NodeId> Work{From};
  Seen[From.index()] = true;
  while (!Work.empty()) {
    NodeId V = Work.back();
    Work.pop_back();
    if (V == To)
      return true;
    for (ArcId AI : G.node(V).Fanout) {
      const DataflowGraph::Arc &A = G.arc(AI);
      if (A.isFeedback() || Seen[A.To.index()])
        continue;
      if (isBoundaryOp(G.node(A.To).Kind))
        continue;
      Seen[A.To.index()] = true;
      Work.push_back(A.To);
    }
  }
  return false;
}

} // namespace

Sdsp Sdsp::standard(DataflowGraph Graph, uint32_t Capacity) {
  return standard(std::make_shared<const DataflowGraph>(std::move(Graph)),
                  Capacity);
}

Sdsp Sdsp::standard(std::shared_ptr<const DataflowGraph> Graph,
                    uint32_t Capacity) {
  SDSP_CHECK(Capacity >= 1, "buffers need at least one slot");
  Sdsp S(std::move(Graph));
  const DataflowGraph &G = *S.G;
  S.Acks.Records.reserve(G.numArcs());
  S.Acks.PathArcs.reserve(G.numArcs());
  for (ArcId A : G.arcIds()) {
    if (!S.isInteriorArc(A))
      continue;
    const DataflowGraph::Arc &Arc = G.arc(A);
    // A self-feedback arc (q = q[i-1] + ...) needs no acknowledgement:
    // the producer is its own consumer, so non-reentrant firing already
    // guarantees the slot is free, and an ack place would form a
    // token-free self-cycle that deadlocks the net.
    if (Arc.From == Arc.To)
      continue;
    uint32_t Cap = std::max(Capacity, Arc.Distance);
    // A feedback arc whose consumer is also forward-reachable from the
    // producer (the consumer reads both u[i] and u[i-d]) deadlocks at
    // capacity d: the producer cannot emit iteration i into a full
    // window whose oldest entry is consumed only after iteration i's
    // forward value arrives.  One spare slot breaks the token-free
    // ack/forward cycle.
    if (Arc.isFeedback() && Cap == Arc.Distance &&
        forwardReaches(G, Arc.From, Arc.To))
      ++Cap;
    S.Acks.add({&A, 1}, Cap - Arc.Distance);
  }
  return S;
}

Sdsp Sdsp::withAcks(DataflowGraph Graph, const std::vector<Ack> &Acks) {
  return withAcks(std::make_shared<const DataflowGraph>(std::move(Graph)),
                  Acks);
}

Sdsp Sdsp::withAcks(std::shared_ptr<const DataflowGraph> Graph,
                    const std::vector<Ack> &Acks) {
  AckList List;
  size_t NumArcs = 0;
  for (const Ack &A : Acks)
    NumArcs += A.Path.size();
  List.Records.reserve(Acks.size());
  List.PathArcs.reserve(NumArcs);
  for (const Ack &A : Acks)
    List.add(A.Path, A.Slots);
  return withAcks(std::move(Graph), std::move(List));
}

Sdsp Sdsp::withAcks(std::shared_ptr<const DataflowGraph> Graph,
                    AckList Acks) {
  Sdsp S(std::move(Graph));
  S.Acks = std::move(Acks);
#ifndef NDEBUG
  const DataflowGraph &G = *S.G;
  // Every interior arc covered exactly once; paths chain head-to-tail.
  std::vector<unsigned> Covered(G.numArcs(), 0);
  for (AckView A : S.acks()) {
    assert(!A.Path.empty() && "empty acknowledgement path");
    for (size_t I = 0; I < A.Path.size(); ++I) {
      assert(S.isInteriorArc(A.Path[I]) && "ack covers a boundary arc");
      assert(G.arc(A.Path[I]).From != G.arc(A.Path[I]).To &&
             "self-feedback arcs must not be acknowledged");
      ++Covered[A.Path[I].index()];
      if (I + 1 < A.Path.size())
        assert(G.arc(A.Path[I]).To == G.arc(A.Path[I + 1]).From &&
               "ack path is not a chain");
    }
    uint64_t Resident = 0;
    for (ArcId Arc : A.Path)
      Resident += G.arc(Arc).Distance;
    assert(A.Slots + Resident >= 1 && "ack cycle would be token-free");
  }
  for (ArcId A : G.arcIds())
    if (S.isInteriorArc(A) && G.arc(A).From != G.arc(A).To)
      assert(Covered[A.index()] == 1 &&
             "interior arc not covered exactly once");
#endif
  return S;
}

Status sdsp::validateSdsp(const Sdsp &S) {
  const DataflowGraph &G = S.graph();
  if (Status St = validationStatus(G, "sdsp"); !St)
    return St;
  auto Fail = [](std::string Msg) {
    return Status::error(ErrorCode::InvalidGraph, "sdsp", std::move(Msg));
  };
  std::vector<unsigned> Covered(G.numArcs(), 0);
  for (Sdsp::AckView A : S.acks()) {
    if (A.Path.empty())
      return Fail("empty acknowledgement path");
    uint64_t Resident = 0;
    for (size_t I = 0; I < A.Path.size(); ++I) {
      if (A.Path[I].index() >= G.numArcs())
        return Fail("acknowledgement covers a nonexistent arc");
      const DataflowGraph::Arc &Arc = G.arc(A.Path[I]);
      if (!S.isInteriorArc(A.Path[I]))
        return Fail("acknowledgement covers boundary arc " +
                    std::string(G.node(Arc.From).Name) + " -> " +
                    std::string(G.node(Arc.To).Name));
      if (Arc.From == Arc.To)
        return Fail("self-feedback arc " + std::string(G.node(Arc.From).Name) +
                    " must not be acknowledged");
      if (I + 1 < A.Path.size() && Arc.To != G.arc(A.Path[I + 1]).From)
        return Fail("acknowledgement path is not a head-to-tail chain");
      Resident += Arc.Distance;
      ++Covered[A.Path[I].index()];
    }
    if (A.Slots + Resident < 1)
      return Fail("acknowledgement cycle through " +
                  std::string(G.node(G.arc(A.Path.front()).From).Name) +
                  " would be token-free (deadlock)");
  }
  for (ArcId A : G.arcIds()) {
    if (!S.isInteriorArc(A) || G.arc(A).From == G.arc(A).To)
      continue;
    if (Covered[A.index()] != 1)
      return Fail("interior arc " + std::string(G.node(G.arc(A).From).Name) +
                  " -> " + std::string(G.node(G.arc(A).To).Name) +
                  " covered " +
                  std::to_string(Covered[A.index()]) +
                  " times (must be exactly once)");
  }
  return Status::ok();
}
