//===- perfbench/src/Speed.cpp - Core speed probe -------------------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The speed probe: a fixed piece of the benchmark's own work — a
/// breadth-first search of a random graph, a node-based map built and
/// searched, a sort — of the kinds the compiler's time goes to (graph
/// walks, allocation, branches).  Timed beside the requests on the same
/// thread, it measures how fast the core runs the compiler's kind of
/// work at that moment, so a request's time can be put on a reference
/// core's scale (README.md, "Reference-core time").
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>

using namespace perfbench;

namespace {

/// Nodes and out-edges of the probe's random graph, and the keys its map
/// and sort handle: all of it fits in a core's own caches, so the probe
/// runs at the core's speed, not at the memory's.
constexpr uint32_t GraphNodes = 1u << 14;
constexpr uint32_t GraphDegree = 4;
constexpr size_t ProbeKeys = 4096;

struct ProbeData {
  std::vector<uint32_t> Edges;
  std::vector<uint64_t> Keys;

  ProbeData() : Edges(GraphNodes * GraphDegree), Keys(ProbeKeys) {
    sdsp::Rng R(0x5eed);
    for (uint32_t &E : Edges)
      E = static_cast<uint32_t>(R.next() % GraphNodes);
    for (uint64_t &K : Keys)
      K = R.next();
  }
};

const ProbeData &probeData() {
  static const ProbeData D;
  return D;
}

/// Where the probe's result goes, so the compiler keeps its work.
std::atomic<uint64_t> Sink{0};

} // namespace

double perfbench::probeMs() {
  const ProbeData &D = probeData();
  auto T0 = std::chrono::steady_clock::now();
  uint64_t Sum = 0;
  {
    // Breadth-first search: a work list, a visited set, edge scans.
    std::vector<uint32_t> Depth(GraphNodes, UINT32_MAX), Queue;
    Queue.reserve(GraphNodes);
    Queue.push_back(0);
    Depth[0] = 0;
    for (size_t Head = 0; Head < Queue.size(); ++Head) {
      uint32_t N = Queue[Head];
      for (uint32_t E = 0; E < GraphDegree; ++E) {
        uint32_t M = D.Edges[N * GraphDegree + E];
        if (Depth[M] == UINT32_MAX) {
          Depth[M] = Depth[N] + 1;
          Queue.push_back(M);
        }
      }
    }
    for (uint32_t X : Depth)
      Sum += X;
  }
  {
    // A node-based map: allocation and pointer chasing.
    std::map<uint64_t, uint32_t> M;
    for (uint32_t I = 0; I < D.Keys.size(); ++I)
      M.emplace(D.Keys[I], I);
    for (uint64_t K : D.Keys)
      Sum += M.find(K)->second;
  }
  // A sort: data-dependent branches.
  std::vector<uint64_t> Sorted(D.Keys);
  std::sort(Sorted.begin(), Sorted.end());
  Sum += Sorted[Sorted.size() / 2];
  Sink.fetch_add(Sum, std::memory_order_relaxed);
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

void SpeedTrack::probe(double Now) {
  for (int I = 0; I < ProbesPerSample; ++I)
    Samples.emplace_back(Now, probeMs());
  LastProbe = Now;
}

void SpeedTrack::maybeProbe(double Now) {
  if (Samples.empty() || Now - LastProbe >= ProbeIntervalSeconds)
    probe(Now);
}

double SpeedTrack::scale(double From, double To) const {
  // A probe precedes every request (and set-up round) by at most
  // ProbeIntervalSeconds, so the window is never empty.
  std::vector<double> Near;
  for (const auto &[T, Ms] : Samples)
    if (T >= From - ProbeMarginSeconds && T <= To + ProbeMarginSeconds)
      Near.push_back(Ms);
  SDSP_CHECK(!Near.empty(), "no speed probe near a timed interval");
  return ReferenceProbeMs / quantile(Near, 0.5);
}

double SpeedTrack::medianMs() const {
  std::vector<double> Ms;
  for (const auto &[T, M] : Samples)
    Ms.push_back(M);
  return quantile(Ms, 0.5);
}
