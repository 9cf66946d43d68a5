//===- tests/TestUtil.h - Shared test fixtures ------------------*- C++ -*-===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hand-built versions of the paper's example loops (independent of the
/// loopir frontend, so core tests do not depend on the parser), small
/// net generators shared by property tests, and a test-side FNV-1a.
///
//===----------------------------------------------------------------------===//

#ifndef SDSP_TESTS_TESTUTIL_H
#define SDSP_TESTS_TESTUTIL_H

#include "dataflow/GraphBuilder.h"
#include "petri/EarliestFiring.h"
#include "petri/PetriNet.h"
#include "support/Random.h"

#include <cstdint>
#include <span>
#include <string>

namespace sdsp {
namespace testutil {

/// Byte-serial FNV-1a: the first store format's object checksum, and the
/// golden hash table's check that no codec payload moved, independent of
/// the hasher the store uses.
inline uint64_t fnv1a64(std::span<const uint8_t> Bytes) {
  uint64_t H = 1469598103934665603ull;
  for (uint8_t B : Bytes)
    H = (H ^ B) * 1099511628211ull;
  return H;
}

/// The paper's L1 (Figure 1): a five-node DOALL body.
/// A trace row's id list as a vector, for EXPECT_EQ.
inline std::vector<TransitionId> idList(std::span<const TransitionId> S) {
  return {S.begin(), S.end()};
}

/// Empty when every row of \p Trace lists its completed ids and its
/// fired ids in strictly ascending order (what every engine writes
/// without a firing policy, and what schedule derivation relies on);
/// else names the first row that does not.
inline std::string unsortedRow(const FiringTrace &Trace) {
  auto Ascends = [](std::span<const TransitionId> Ids) {
    for (size_t I = 1; I < Ids.size(); ++I)
      if (Ids[I - 1].index() >= Ids[I].index())
        return false;
    return true;
  };
  for (StepView Row : Trace) {
    if (!Ascends(Row.Completed))
      return "completed ids of the row at t=" + std::to_string(Row.Time);
    if (!Ascends(Row.Fired))
      return "fired ids of the row at t=" + std::to_string(Row.Time);
  }
  return {};
}

inline DataflowGraph buildL1() {
  GraphBuilder B;
  auto A = B.add(B.input("X"), B.constant(5), "A");
  auto Bv = B.add(B.input("Y"), A, "B");
  auto C = B.add(A, B.input("Z"), "C");
  auto D = B.add(Bv, C, "D");
  auto E = B.add(B.input("W"), D, "E");
  B.outputValue("E", E);
  return B.take();
}

/// The paper's L2 (Figure 2): L1 with the loop-carried dependence
/// C = A + E[i-1].
inline DataflowGraph buildL2() {
  GraphBuilder B;
  auto A = B.add(B.input("X"), B.constant(5), "A");
  auto Bv = B.add(B.input("Y"), A, "B");
  auto EPrev = B.delayed({0.0}, "Eprev");
  auto C = B.add(A, EPrev.value(), "C");
  auto D = B.add(Bv, C, "D");
  auto E = B.add(B.input("W"), D, "E");
  EPrev.bind(E);
  B.outputValue("E", E);
  return B.take();
}

/// A direct-feedback L2 without the delay identity: C = A + E[i-1]
/// wired straight from E, matching the paper's five-node Figure 2.
inline DataflowGraph buildL2Direct() {
  GraphBuilder B;
  auto A = B.add(B.input("X"), B.constant(5), "A");
  auto Bv = B.add(B.input("Y"), A, "B");
  NodeId C = B.graph().addNode(OpKind::Add, "C");
  B.graph().connect(A.N, A.Port, C, 0);
  auto D = B.add(Bv, GraphBuilder::Value{C, 0}, "D");
  auto E = B.add(B.input("W"), D, "E");
  B.graph().connectFeedback(E.N, E.Port, C, 1, {0.0});
  B.outputValue("E", E);
  return B.take();
}

/// A simple ring net: n transitions in a cycle with \p Tokens tokens on
/// the first place; unit execution times.  The builder form lets a test
/// extend the ring before building it.
inline PetriNetBuilder ringBuilder(size_t N, uint32_t Tokens) {
  PetriNetBuilder NB;
  std::vector<TransitionId> Ts;
  for (size_t I = 0; I < N; ++I)
    Ts.push_back(NB.addTransition("t" + std::to_string(I)));
  for (size_t I = 0; I < N; ++I) {
    PlaceId P = NB.addPlace("p" + std::to_string(I), I == 0 ? Tokens : 0);
    NB.addArc(Ts[I], P);
    NB.addArc(P, Ts[(I + 1) % N]);
  }
  return NB;
}

inline PetriNet buildRing(size_t N, uint32_t Tokens) {
  return ringBuilder(N, Tokens).build();
}

/// A random live safe strongly connected marked graph built the SDSP
/// way: a DAG (spine t0 -> t1 -> ... plus random forward chords), each
/// data edge (0 tokens) paired with a reverse ack edge (1 token).
/// Every cycle alternates through at least one ack (live); every edge
/// lies on its 2-cycle with exactly one token (safe); the pairing makes
/// the graph strongly connected.
inline PetriNetBuilder randomMarkedGraphBuilder(Rng &R, size_t N,
                                                size_t Chords) {
  PetriNetBuilder NB;
  std::vector<TransitionId> Ts;
  for (size_t I = 0; I < N; ++I)
    Ts.push_back(NB.addTransition("t" + std::to_string(I),
                                  static_cast<TimeUnits>(1 + R.range(0, 2))));
  auto AddPair = [&](size_t U, size_t V, const std::string &Tag) {
    PlaceId Data = NB.addPlace("d" + Tag, 0);
    NB.addArc(Ts[U], Data);
    NB.addArc(Data, Ts[V]);
    PlaceId Ack = NB.addPlace("a" + Tag, 1);
    NB.addArc(Ts[V], Ack);
    NB.addArc(Ack, Ts[U]);
  };
  for (size_t I = 0; I + 1 < N; ++I)
    AddPair(I, I + 1, std::to_string(I));
  for (size_t C = 0; C < Chords && N >= 3; ++C) {
    size_t U = static_cast<size_t>(R.range(0, static_cast<int64_t>(N) - 2));
    size_t V = static_cast<size_t>(
        R.range(static_cast<int64_t>(U) + 1, static_cast<int64_t>(N) - 1));
    AddPair(U, V, "c" + std::to_string(C));
  }
  return NB;
}

inline PetriNet buildRandomMarkedGraph(Rng &R, size_t N, size_t Chords) {
  return randomMarkedGraphBuilder(R, N, Chords).build();
}

/// Local boundary test to keep TestUtil independent of core headers.
inline bool isBoundaryLike(OpKind K) {
  return K == OpKind::Input || K == OpKind::Const || K == OpKind::Output;
}

/// A random well-formed loop dataflow graph: \p Ops binary compute
/// nodes whose operands are earlier compute nodes, fresh inputs, or
/// (with \p FeedbackPercent probability) loop-carried references to a
/// random compute node; dangling values are routed to outputs.
/// \p MaxExecTime > 1 draws per-node execution times from [1,
/// MaxExecTime].
inline DataflowGraph buildRandomLoopGraph(Rng &R, size_t Ops,
                                          uint64_t FeedbackPercent,
                                          uint32_t MaxExecTime = 1) {
  DataflowGraph G;
  std::vector<NodeId> Compute;
  struct PendingFeedback {
    NodeId Consumer;
    uint32_t Port;
    size_t ConsumerPos;
  };
  std::vector<PendingFeedback> Feedbacks;

  for (size_t I = 0; I < Ops; ++I) {
    OpKind K = R.chance(1, 2) ? OpKind::Add : OpKind::Mul;
    NodeId N = G.addNode(K, "n" + std::to_string(I));
    if (MaxExecTime > 1)
      G.setExecTime(N, static_cast<uint32_t>(R.range(1, MaxExecTime)));
    for (uint32_t Port = 0; Port < 2; ++Port) {
      // Port 0 always chains to an earlier compute node so the interior
      // graph stays connected (the paper's uniform-cycle-time results
      // assume a connected marked graph); port 1 varies freely.
      if (Port == 0 && !Compute.empty()) {
        NodeId Src = Compute[static_cast<size_t>(
            R.range(0, static_cast<int64_t>(Compute.size()) - 1))];
        G.connect(Src, 0, N, 0);
        continue;
      }
      if (R.chance(FeedbackPercent, 100)) {
        Feedbacks.push_back(PendingFeedback{N, Port, I});
        continue;
      }
      if (!Compute.empty() && R.chance(1, 2)) {
        NodeId Src = Compute[static_cast<size_t>(
            R.range(0, static_cast<int64_t>(Compute.size()) - 1))];
        G.connect(Src, 0, N, Port);
        continue;
      }
      NodeId In = G.addNode(OpKind::Input,
                            "in" + std::to_string(G.numNodes()));
      G.connect(In, 0, N, Port);
    }
    Compute.push_back(N);
  }

  // Loop-carried producers come from the consumer's position or later
  // (including the consumer itself): the canonical recurrence shape, so
  // the one-token-per-arc discipline never deadlocks and the net stays
  // safe (see core/Sdsp.cpp's spare-slot discussion for the other
  // shape).
  for (const PendingFeedback &F : Feedbacks) {
    NodeId Src = Compute[static_cast<size_t>(
        R.range(static_cast<int64_t>(F.ConsumerPos),
                static_cast<int64_t>(Compute.size()) - 1))];
    G.connectFeedback(Src, 0, F.Consumer, F.Port, {0.0});
  }

  // Route dangling compute values to outputs so validation passes.
  std::vector<NodeId> Dangling;
  for (NodeId N : G.nodeIds())
    if (!isBoundaryLike(G.node(N).Kind) && G.node(N).Fanout.empty())
      Dangling.push_back(N);
  for (NodeId N : Dangling) {
    NodeId Out = G.addNode(OpKind::Output, "out" + std::to_string(N.index()));
    G.connect(N, 0, Out, 0);
  }
  return G;
}

} // namespace testutil
} // namespace sdsp

#endif // SDSP_TESTS_TESTUTIL_H
