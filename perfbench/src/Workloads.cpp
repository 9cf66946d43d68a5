//===- perfbench/src/Workloads.cpp - Seeded request generators ------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every request the benchmark sends is generated here from the seed;
/// the compiler only ever sees the generated kernel/option choices (and,
/// on pnml-import, the documents set-up exports from them).  Why each
/// workload looks the way it does is in perfbench/README.md.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/ArtifactHash.h"

#include <algorithm>
#include <map>
#include <utility>

using namespace sdsp;
using namespace perfbench;

namespace {

const LivermoreKernel *kernel(const char *Id) {
  const LivermoreKernel *K = findKernel(Id);
  SDSP_CHECK(K != nullptr, "unknown bundled kernel");
  return K;
}

template <typename T> void shuffle(std::vector<T> &V, Rng &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[static_cast<size_t>(R.range(0, I - 1))]);
}

/// A 64-bit stream id mixed from the seed and a small tag, so the
/// per-purpose generators of one seed are independent of each other.
uint64_t streamSeed(uint64_t Seed, uint64_t Tag) {
  return Rng(Seed ^ (0x9e3779b97f4a7c15ULL * (Tag + 1))).next();
}

//===----------------------------------------------------------------------===//
// livermore-service
//===----------------------------------------------------------------------===//

/// The service's config space: the nine bundled kernels x SCP depth
/// {0,1,2,4,8} x capacity {1,2} x unroll {1,2,4,8} x --opt, widened so
/// that first-seen configs last a whole run: depths {3,5,6}, capacities
/// {3,4}, unroll {3,5,6,7}, the Howard rate engine beside the default,
/// 32, 48, 96 or 128 schedule-replay iterations beside the default 64
/// on the ideal machine, and sixteen spellings of each source (a request
/// that differs only in a comment re-lowers, then hits downstream).
/// Every SCP config keeps one pipeline: with two, the FIFO machine's
/// state space explodes on loop9 at unroll >= 5.
constexpr uint32_t SourceVariants = 16;

std::vector<Request> serviceSpace() {
  static constexpr uint32_t Depths[] = {0, 1, 2, 3, 4, 5, 6, 8};
  static constexpr uint32_t Capacities[] = {1, 2, 3, 4};
  static constexpr uint32_t Unrolls[] = {1, 2, 3, 4, 5, 6, 7, 8};
  static constexpr uint64_t Replays[] = {64, 32, 128, 48, 96};
  std::vector<Request> Space;
  for (const LivermoreKernel &K : livermoreKernels())
    for (uint32_t D : Depths)
      for (size_t V = 0; V < (D > 0 ? 1 : std::size(Replays)); ++V)
        for (uint32_t Variant = 0; Variant < SourceVariants; ++Variant)
          for (uint32_t C : Capacities)
            for (uint32_t U : Unrolls)
              for (bool Opt : {false, true})
                for (RateEngine E : {RateEngine::Auto, RateEngine::Howard}) {
                  Request R;
                  R.Kernel = &K;
                  R.ScpDepth = D;
                  R.ValidateIterations = Replays[V];
                  R.Variant = Variant;
                  R.Capacity = C;
                  R.Unroll = U;
                  R.Optimize = Opt;
                  R.Rate = E;
                  Space.push_back(R);
                }
  return Space;
}

/// Share of requests that repeat an earlier one.
constexpr uint64_t RepeatPercent = 80;
/// Share of first-seen configs set-up writes to the disk store, and how
/// far into each client's first-seen sequence the pre-fill reaches.
constexpr uint64_t PrefillPercent = 30;
constexpr size_t PrefillReach = 150;

//===----------------------------------------------------------------------===//
// unrolled-verify and pnml-import
//===----------------------------------------------------------------------===//

/// The five at-scale kernels: two heavy bodies (loop7, loop9lcd with
/// its recurrence), the paper's L2, loop1, and loop12 — a large net
/// whose verify stays cheap.
std::vector<const LivermoreKernel *> scaleKernels() {
  return {kernel("loop7"), kernel("loop9lcd"), kernel("l2"),
          kernel("loop1"), kernel("loop12")};
}

/// One unrolled-verify block, before shuffling: per kernel, the ideal
/// machine at capacity 1 for unroll 16..256 (the small factors twice),
/// where isSafeMarkedGraph runs; SCP depth 2 and 4 at unroll <= 64,
/// where the policy-driven frustum search dominates (a fifth of the
/// block); and one x512 or x1024 request at capacity 2 per kernel pair,
/// where the safety check is skipped and transform, schedule and replay
/// dominate.
std::vector<Request> unrolledVerifyMix() {
  std::vector<Request> Mix;
  auto Add = [&](const LivermoreKernel *K, uint32_t U, uint32_t C,
                 uint32_t D) {
    Request R;
    R.Kernel = K;
    R.Unroll = U;
    R.Capacity = C;
    R.ScpDepth = D;
    Mix.push_back(R);
  };
  std::vector<const LivermoreKernel *> Ks = scaleKernels();
  for (const LivermoreKernel *K : Ks)
    for (uint32_t U : {16u, 16u, 32u, 32u, 64u, 128u, 256u})
      Add(K, U, 1, 0);
  static constexpr std::pair<uint32_t, uint32_t> Scp[] = {
      {16, 2}, {32, 4}, {64, 2}, {16, 4}, {32, 2}, {64, 4}};
  for (size_t I = 0; I < Ks.size(); ++I)
    for (size_t J = 0; J < 2; ++J) {
      auto [U, D] = Scp[(2 * I + J) % std::size(Scp)];
      Add(Ks[I], U, 1, D);
    }
  Add(Ks[0], 1024, 2, 0);
  Add(Ks[2], 512, 2, 0);
  Add(Ks[3], 1024, 2, 0);
  return Mix;
}

} // namespace

const char *perfbench::workloadName(Workload W) {
  switch (W) {
  case Workload::LivermoreService:
    return "livermore-service";
  case Workload::UnrolledVerify:
    return "unrolled-verify";
  case Workload::PnmlImport:
    return "pnml-import";
  }
  SDSP_UNREACHABLE("unknown workload");
}

std::optional<Workload> perfbench::parseWorkload(std::string_view Name) {
  for (Workload W : AllWorkloads)
    if (Name == workloadName(W))
      return W;
  return std::nullopt;
}

PipelineOptions Request::options() const {
  PipelineOptions O;
  O.Optimize = Optimize;
  O.Capacity = Capacity;
  O.Unroll = Unroll;
  O.ScpDepth = ScpDepth;
  O.ValidateIterations = ValidateIterations;
  O.Rate = Rate;
  O.Verify = true;
  return O;
}

std::string Request::source() const {
  if (!Variant)
    return Kernel->Source;
  return "# request variant " + std::to_string(Variant) + "\n" +
         Kernel->Source;
}

std::string Request::describe() const {
  std::string S = Kernel ? Kernel->Id : "?";
  S += " x" + std::to_string(Unroll) + " cap " + std::to_string(Capacity);
  if (ScpDepth)
    S += " scp " + std::to_string(ScpDepth);
  if (Optimize)
    S += " opt";
  if (ValidateIterations != 64)
    S += " replay " + std::to_string(ValidateIterations);
  if (Rate != RateEngine::Auto)
    S += std::string(" rate ") + rateEngineName(Rate);
  if (Variant)
    S += " variant " + std::to_string(Variant);
  return S;
}

uint64_t perfbench::digest(const std::vector<Request> &Requests) {
  HashStream HS(0x7065726662656e63ULL);
  for (const Request &R : Requests)
    HS.str(R.Kernel ? R.Kernel->Id : "")
        .u64(R.Unroll)
        .u64(R.Capacity)
        .u64(R.ScpDepth)
        .u64(R.Optimize)
        .u64(R.ValidateIterations)
        .u64(static_cast<uint64_t>(R.Rate))
        .u64(R.Variant)
        .u64(R.Doc);
  return HS.hash();
}

ServicePlan perfbench::servicePlan(uint64_t Seed) {
  // First-seen order: rounds over the (kernel, unroll) strata, each round
  // in its own shuffled stratum order, taking each stratum's next config
  // in a shuffled order.  Any prefix of the sequence is then a balanced
  // sample of the space, so every seed serves the same mix.
  std::map<std::pair<const LivermoreKernel *, uint32_t>, std::vector<Request>>
      Strata;
  for (const Request &R : serviceSpace())
    Strata[{R.Kernel, R.Unroll}].push_back(R);
  Rng Order(streamSeed(Seed, 0));
  std::vector<std::vector<Request> *> Lists;
  for (auto &[Key, List] : Strata) {
    shuffle(List, Order);
    Lists.push_back(&List);
  }
  std::vector<Request> Space;
  for (size_t Round = 0; Round < Lists.front()->size(); ++Round) {
    shuffle(Lists, Order);
    for (const std::vector<Request> *L : Lists)
      Space.push_back((*L)[Round]);
  }

  ServicePlan Plan;
  Rng Pick(streamSeed(Seed, 1));
  for (unsigned C = 0; C < ServiceClients; ++C) {
    // Client C owns every ServiceClients-th config of that order, so its
    // first-seen requests are new to the shared store.
    std::vector<Request> Fresh;
    for (size_t I = C; I < Space.size(); I += ServiceClients)
      Fresh.push_back(Space[I]);
    for (size_t I = 0; I < std::min(PrefillReach, Fresh.size()); ++I)
      if (Pick.chance(PrefillPercent, 100))
        Plan.Prefill.push_back(Fresh[I]);
    Plan.Streams.emplace_back(std::move(Fresh), streamSeed(Seed, 2 + C));
  }
  return Plan;
}

Request ServiceStream::next() {
  // RepeatPercent of the requests repeat one the client sent before,
  // drawn uniformly from its history; the rest take the next first-seen
  // config (and, should those ever run out, repeat too).
  if ((Next > 0 && R.chance(RepeatPercent, 100)) || Next == Fresh.size())
    return Fresh[static_cast<size_t>(R.range(0, Next - 1))];
  return Fresh[Next++];
}

std::vector<Request> perfbench::workloadBlock(Workload W, uint64_t Seed,
                                              size_t Index) {
  std::vector<Request> Block;
  if (W == Workload::UnrolledVerify) {
    Block = unrolledVerifyMix();
  } else {
    SDSP_CHECK(W == Workload::PnmlImport, "service has no blocks");
    const std::vector<Request> &Docs = pnmlSources();
    Block = Docs;
    for (size_t I = 0; I < Block.size(); ++I)
      Block[I].Doc = static_cast<uint32_t>(I);
  }
  Rng R(streamSeed(Seed, 100 + Index));
  shuffle(Block, R);
  return Block;
}

const std::vector<Request> &perfbench::pnmlSources() {
  static const std::vector<Request> Sources = [] {
    std::vector<Request> S;
    for (const LivermoreKernel *K : scaleKernels())
      for (uint32_t U : {8u, 16u, 32u, 64u, 128u}) {
        Request R;
        R.Kernel = K;
        R.Unroll = U;
        S.push_back(R);
      }
    return S;
  }();
  return Sources;
}
