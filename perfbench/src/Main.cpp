//===- perfbench/src/Main.cpp - End-to-end benchmark entry point ----------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload NAME --seed N --seconds S --trace 0|1 --scratch DIR
/// perfbench --selftest --scratch DIR
///
/// Sets a workload up five times (set-up time is the median), serves
/// its requests closed-loop for S seconds, checks every output, and
/// prints the end-to-end metrics (--trace 0) or, serving each request a
/// second time under spans, the per-layer metrics (--trace 1) as the
/// last line of standard output.  See perfbench/README.md.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/SharedArtifactCache.h"
#include "petri/MarkedGraph.h"
#include "support/Metrics.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <numeric>
#include <thread>

using namespace sdsp;
using namespace perfbench;
namespace fs = std::filesystem;

double perfbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double perfbench::geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Set-ups per run; setup_s is their median.
constexpr int SetupRounds = 5;
/// Probe samples before and after each set-up round.
constexpr int SetupProbes = 5;
/// Requests a run serves at least, so ten lie beyond its p90.
constexpr size_t MinRequests = 100;
/// A run stops starting requests after this many times --seconds.
constexpr double HardStopFactor = 4;
/// The process's address-space cap.
constexpr rlim_t AddressSpaceLimit = 4ull << 30;
/// livermore-service's tier budgets (LRU beyond them).  The disk
/// budget bounds the index DiskStore rewrites on every put and disk hit,
/// so a request's cost does not grow with how long the run has been
/// writing.
constexpr uint64_t MemoryBudgetBytes = 128ull << 20;
constexpr uint64_t DiskBudgetBytes = 8ull << 20;
/// The quantile of repeated measurements a run reports for latency (one
/// minus it for throughput); see quietSummary.
constexpr double QuietQuartile = 0.25;
/// livermore-service's metric windows, in seconds of the run.
constexpr double ServiceWindowSeconds = 1.0;

/// livermore-service's long-lived store: a MemoryStore over a DiskStore
/// behind a TieredStore.  In the traced run the TieredStore and its
/// memory tier are each wrapped in a TimedStore.
struct StoreStack {
  std::unique_ptr<DiskStore> Disk;
  std::unique_ptr<MemoryStore> Memory;
  std::unique_ptr<TimedStore> TimedMemory;
  std::unique_ptr<TieredStore> Tiered;
  std::unique_ptr<TimedStore> TimedTiered;

  StoreStack(const std::string &Dir, bool Timed) {
    Disk = std::make_unique<DiskStore>(DiskStore::Config{Dir, DiskBudgetBytes});
    Memory = std::make_unique<MemoryStore>(
        MemoryStore::Config{16, MemoryBudgetBytes});
    ArtifactStore *MemoryTier = Memory.get();
    if (Timed) {
      TimedMemory = std::make_unique<TimedStore>(*Memory, "store.lookup",
                                                 "store.publish");
      MemoryTier = TimedMemory.get();
    }
    Tiered = std::make_unique<TieredStore>(*MemoryTier, *Disk);
    if (Timed)
      TimedTiered = std::make_unique<TimedStore>(*Tiered, "store.disk.read",
                                                 "store.disk.write");
  }
  ArtifactStore *sessionStore() {
    return TimedTiered ? static_cast<ArtifactStore *>(TimedTiered.get())
                       : Tiered.get();
  }
};

/// Everything a workload needs before its first timed request.
struct Setup {
  Workload W = Workload::LivermoreService;
  uint64_t Seed = 0;
  /// livermore-service.
  ServicePlan Plan;
  std::string StoreDir;
  std::unique_ptr<StoreStack> Stores;
  /// pnml-import: the exported documents, the rate of the compile each
  /// came from, and that compile's program figures.
  std::vector<std::string> Docs;
  std::vector<Rational> DocRates;
  std::vector<bool> DocConnected;
  std::vector<ProgramFigures> DocFigures;
  /// One primed oracle per client.
  std::vector<Oracle> Oracles;

  Setup() = default;
  Setup(const Setup &) = delete;
  Setup &operator=(const Setup &) = delete;
  ~Setup() {
    Stores.reset();
    if (!StoreDir.empty()) {
      std::error_code EC;
      fs::remove_all(StoreDir, EC);
    }
  }

  unsigned clients() const {
    return W == Workload::LivermoreService ? ServiceClients : 1;
  }
  ArtifactStore *store() { return Stores ? Stores->sessionStore() : nullptr; }
};

SessionConfig storeSession(ArtifactStore *Store) {
  SessionConfig C;
  C.EnableCache = true;
  C.Store = Store;
  return C;
}

[[noreturn]] void die(const std::string &Msg) {
  std::cerr << "perfbench: " << Msg << "\n";
  std::exit(1);
}

/// livermore-service's earlier life: a fresh disk store in \p Dir that
/// a service which ran before the restart filled with the plan's
/// pre-fill configs.  It is the input of the restarted service, so it is
/// not part of the service's set-up.
void prefillStore(uint64_t Seed, const std::string &Dir) {
  std::error_code EC;
  fs::remove_all(Dir, EC);
  StoreStack Fill(Dir, false);
  for (const Request &R : servicePlan(Seed).Prefill) {
    CompilationSession S(storeSession(Fill.sessionStore()));
    Outcome O;
    compileIn(S, R, /*Verify=*/false, O);
    if (!O.St)
      die("pre-fill compile of " + R.describe() + " failed: " + O.St.str());
  }
}

/// Builds the set-up of \p W: the request list, the PNML exports or
/// the restart over the disk store prefillStore left in \p Dir, primed
/// oracles, and one untimed warm-up request so SIMD dispatch and lazy
/// initialization are done.
std::unique_ptr<Setup> prepare(Workload W, uint64_t Seed,
                               const std::string &Dir, bool Timed) {
  auto Su = std::make_unique<Setup>();
  Su->W = W;
  Su->Seed = Seed;
  for (unsigned C = 0; C < Su->clients(); ++C)
    Su->Oracles.emplace_back(Seed);

  switch (W) {
  case Workload::LivermoreService: {
    Su->Plan = servicePlan(Seed);
    Su->StoreDir = Dir;
    // The service restarts over the filled disk store with a cold
    // memory tier.
    Su->Stores = std::make_unique<StoreStack>(Dir, Timed);
    Outcome Warm = serveCompile(Su->Plan.Prefill.front(), nullptr);
    if (!Warm.St)
      die("warm-up request failed: " + Warm.St.str());
    break;
  }
  case Workload::UnrolledVerify: {
    // A mid-sized request also brings the allocator up to scale.
    Request R;
    R.Kernel = findKernel("loop7");
    R.Unroll = 64;
    Outcome Warm = serveCompile(R, nullptr);
    if (!Warm.St)
      die("warm-up request failed: " + Warm.St.str());
    break;
  }
  case Workload::PnmlImport: {
    for (const Request &R : pnmlSources()) {
      CompilationSession S(storeSession(nullptr));
      Outcome O;
      compileIn(S, R, /*Verify=*/false, O);
      if (!O.St)
        die("source compile of " + R.describe() + " failed: " + O.St.str());
      ProgramFigures F;
      if (std::string Err = Su->Oracles[0].checkCompile(R, O, &F);
          !Err.empty())
        die("source program of " + R.describe() + " is wrong: " + Err);
      // The SDSP-PN's ref again (session cache hits), to export it.
      Expected<ArtifactRef<DataflowGraph>> G = S.lower(R.source());
      Expected<ArtifactRef<TransformedGraph>> T =
          S.transform(SDSP_EXPECT_OK(G), false, R.Unroll);
      Expected<ArtifactRef<SdspArtifact>> Sd =
          S.buildSdsp(S.transformedGraph(SDSP_EXPECT_OK(T)), 1, false);
      Expected<ArtifactRef<SdspPn>> Pn = S.buildPn(SDSP_EXPECT_OK(Sd));
      ArtifactRef<PnmlText> Doc =
          SDSP_EXPECT_OK(S.exportPnml(SDSP_EXPECT_OK(Pn)));
      Su->Docs.push_back(Doc->Text);
      Su->DocRates.push_back(O.Loop->Rate->OptimalRate);
      Su->DocConnected.push_back(
          stronglyConnectedRoot(MarkedGraphView((*Pn)->Net)).has_value());
      Su->DocFigures.push_back(F);
    }
    Outcome Warm = serveImport(Su->Docs.front());
    if (!Warm.St)
      die("warm-up import failed: " + Warm.St.str());
    break;
  }
  }
  // The reference outputs every request will be checked against.
  for (unsigned C = 0; C < Su->clients(); ++C) {
    if (W == Workload::LivermoreService)
      for (const LivermoreKernel &K : livermoreKernels())
        for (uint32_t U = 1; U <= 8; ++U) {
          Request R;
          R.Kernel = &K;
          R.Unroll = U;
          Su->Oracles[C].prime(R);
        }
    else
      for (const Request &R : workloadBlock(W, Seed, 0))
        Su->Oracles[C].prime(R);
  }
  return Su;
}

/// When a client stops: after \p Seconds (on a multiple of \p Granule
/// and not before MinRequests), or after exactly \p Count requests.
struct StopRule {
  double Seconds = 0;
  size_t Count = 0;
  size_t Granule = 1;
  size_t MinRequests = 0;
};

/// What one client saw.
struct ClientResult {
  std::vector<double> LatencyMs;
  /// Per request: its wall time on the reference core (LatencyMs scaled
  /// by Speed), and when it ran, in seconds of the run.
  std::vector<double> ReferenceMs;
  std::vector<std::pair<double, double>> Interval;
  SpeedTrack Speed;
  /// Per request: the second of the run it finished in
  /// (livermore-service), or its config (the block workloads).
  std::vector<size_t> Window;
  std::vector<std::string> Config;
  size_t Failed = 0;
  std::vector<std::string> Errors;
  /// Per ideal-machine request (or, on pnml-import, per request, from
  /// the source compile of its document).
  std::vector<double> CyclesPerIter;
  std::vector<double> CodeOps;
  /// Traced run only.
  SelfTimes Self;
  double RequestTrackSeconds = 0;
  LayerCounts Counts;
};

/// Knobs of one pass over a workload's requests.
struct PhaseOptions {
  TraceArms Arms;
  /// Self-test: corrupt the output of this request of client 0.
  size_t CorruptAt = SIZE_MAX;
};

/// Serves request \p R of client \p C on \p Su — traced when \p Capture
/// is given — checks its output, and records it in \p Out.
void serveOne(Setup &Su, unsigned C, const Request &R,
              RequestCapture *Capture, const TraceArms &Arms, bool Corrupt,
              Clock::time_point Start, ClientResult &Out) {
  const bool Import = Su.W == Workload::PnmlImport;
  Outcome O;
  if (Capture) {
    O = Import ? serveImportTraced(Su.Docs[R.Doc], *Capture, Out.Counts)
               : serveCompileTraced(R, Su.store(), *Capture, Arms,
                                    Out.Counts);
    Out.RequestTrackSeconds += Capture->fold(Out.Self);
  } else {
    O = Import ? serveImport(Su.Docs[R.Doc]) : serveCompile(R, Su.store());
  }
  double End = secondsSince(Start);
  Out.LatencyMs.push_back(O.Seconds * 1e3);
  Out.Interval.emplace_back(End - O.Seconds, End);
  if (Su.W == Workload::LivermoreService)
    Out.Window.push_back(static_cast<size_t>(End / ServiceWindowSeconds));
  else
    Out.Config.push_back(R.describe());

  Oracle &Check = Su.Oracles[C];
  if (Corrupt)
    Check.corruptNext();
  std::string Err = O.St ? "" : O.St.str();
  if (Err.empty() && Import) {
    Err = Check.checkImport(O, Su.DocRates[R.Doc], Su.DocConnected[R.Doc]);
    Out.CyclesPerIter.push_back(Su.DocFigures[R.Doc].CyclesPerIteration);
    Out.CodeOps.push_back(static_cast<double>(Su.DocFigures[R.Doc].Ops));
  } else if (Err.empty()) {
    ProgramFigures F;
    Err = Check.checkCompile(R, O, &F);
    if (R.idealMachine() && F.Ops) {
      Out.CyclesPerIter.push_back(F.CyclesPerIteration);
      Out.CodeOps.push_back(static_cast<double>(F.Ops));
    }
  }
  if (!Err.empty()) {
    ++Out.Failed;
    if (Out.Errors.size() < 5)
      Out.Errors.push_back(R.describe() + ": " + Err);
  }
}

/// Serves client \p C's requests until \p Stop says so.  With a
/// \p Traced set-up, every request is served twice, back to back: once
/// untraced on \p Su and once traced on \p Traced, whose state evolves
/// identically — so both see the same machine and the same work.
void runClient(Setup &Su, Setup *Traced, unsigned C, const StopRule &Stop,
               const PhaseOptions &PO, Clock::time_point Start,
               ClientResult &Out, ClientResult &TracedOut) {
  std::vector<Request> Block;
  size_t BlockIndex = SIZE_MAX;
  for (size_t I = 0;; ++I) {
    if (Stop.Count) {
      if (I >= Stop.Count)
        break;
    } else {
      double Elapsed = secondsSince(Start);
      if (Elapsed >= HardStopFactor * Stop.Seconds ||
          (Elapsed >= Stop.Seconds && I >= Stop.MinRequests &&
           I % Stop.Granule == 0))
        break;
    }
    Request R;
    if (Su.W == Workload::LivermoreService) {
      R = Su.Plan.Streams[C].next();
    } else {
      if (Block.empty() || I / Block.size() != BlockIndex) {
        BlockIndex = Block.empty() ? 0 : I / Block.size();
        Block = workloadBlock(Su.W, Su.Seed, BlockIndex);
      }
      R = Block[I % Block.size()];
    }
    Out.Speed.maybeProbe(secondsSince(Start));
    serveOne(Su, C, R, nullptr, PO.Arms, C == 0 && I == PO.CorruptAt, Start,
             Out);
    if (Traced) {
      RequestCapture Capture;
      serveOne(*Traced, C, R, &Capture, PO.Arms, false, Start, TracedOut);
    }
  }
  Out.Speed.probe(secondsSince(Start));
  for (size_t I = 0; I < Out.LatencyMs.size(); ++I)
    Out.ReferenceMs.push_back(
        Out.LatencyMs[I] *
        Out.Speed.scale(Out.Interval[I].first, Out.Interval[I].second));
}

/// One pass over the workload: every client, start to stop.
struct Phase {
  std::vector<ClientResult> Clients;
  /// The traced twin of each request, when the phase is traced.
  std::vector<ClientResult> TracedClients;
  /// Registry counters moved during the phase.
  std::map<std::string, uint64_t> Counters;

  size_t requests() const {
    size_t N = 0;
    for (const ClientResult &C : Clients)
      N += C.LatencyMs.size();
    return N;
  }
  size_t failed() const {
    size_t N = 0;
    for (const std::vector<ClientResult> *Side : {&Clients, &TracedClients})
      for (const ClientResult &C : *Side)
        N += C.Failed;
    return N;
  }
  size_t attempted() const {
    size_t N = requests();
    for (const ClientResult &C : TracedClients)
      N += C.LatencyMs.size();
    return N;
  }
  static std::vector<double> all(const std::vector<ClientResult> &Side,
                                 std::vector<double> ClientResult::*Field) {
    std::vector<double> V;
    for (const ClientResult &C : Side)
      V.insert(V.end(), (C.*Field).begin(), (C.*Field).end());
    return V;
  }
  std::vector<double> all(std::vector<double> ClientResult::*Field) const {
    return all(Clients, Field);
  }
};

Phase runPhase(Setup &Su, Setup *Traced, const std::vector<StopRule> &Stops,
               const PhaseOptions &PO) {
  Phase P;
  P.Clients.resize(Su.clients());
  P.TracedClients.resize(Traced ? Su.clients() : 0);
  std::vector<ClientResult> Unused(Su.clients());
  std::vector<ClientResult> &TracedOut = Traced ? P.TracedClients : Unused;
  MetricsRegistry::Snapshot Before = MetricsRegistry::global().snapshot();
  Clock::time_point Start = Clock::now();
  std::vector<std::thread> Threads;
  for (unsigned C = 1; C < Su.clients(); ++C)
    Threads.emplace_back(runClient, std::ref(Su), Traced, C,
                         std::cref(Stops[C]), std::cref(PO), Start,
                         std::ref(P.Clients[C]), std::ref(TracedOut[C]));
  runClient(Su, Traced, 0, Stops[0], PO, Start, P.Clients[0], TracedOut[0]);
  for (std::thread &T : Threads)
    T.join();
  std::map<std::string, uint64_t> Old(Before.Counters.begin(),
                                      Before.Counters.end());
  for (const auto &[Name, Value] : MetricsRegistry::global().snapshot().Counters)
    P.Counters[Name] = Value - Old[Name];
  return P;
}

std::vector<StopRule> timedStops(const Setup &Su, double Seconds) {
  StopRule S;
  S.Seconds = Seconds;
  S.MinRequests = (MinRequests + Su.clients() - 1) / Su.clients();
  if (Su.W != Workload::LivermoreService)
    S.Granule = workloadBlock(Su.W, Su.Seed, 0).size();
  return std::vector<StopRule>(Su.clients(), S);
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

/// A finished metric line of the result object.
struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

std::string number(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(V) ? V : 0.0);
  return Buf;
}

void printResult(const Phase &P, const std::vector<Metric> &Metrics) {
  size_t Attempted = P.attempted();
  size_t Failed = P.failed();
  std::cout << "{\"correct\": " << (Failed == 0 ? "true" : "false")
            << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
            << ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I)
    std::cout << (I ? ", " : "") << "\"" << Metrics[I].Name
              << "\": {\"value\": " << number(Metrics[I].Value)
              << ", \"unit\": \"" << Metrics[I].Unit << "\"}";
  std::cout << "}}" << std::endl;
}

void reportFailures(const Phase &P) {
  for (const std::vector<ClientResult> *Side : {&P.Clients, &P.TracedClients})
    for (const ClientResult &C : *Side)
      for (const std::string &E : C.Errors)
        std::cerr << "perfbench: wrong output: " << E << "\n";
}

/// Latency quantiles and throughput of a set of request times (ms) that
/// \p Clients closed-loop clients served back to back.
struct LatencySummary {
  double P50, P90, Rate;
};
LatencySummary summarize(const std::vector<double> &Ms, size_t Clients) {
  double BusyMs = std::accumulate(Ms.begin(), Ms.end(), 0.0);
  return {quantile(Ms, 0.5), quantile(Ms, 0.9),
          BusyMs > 0 ? 1e3 * Ms.size() * Clients / BusyMs : 0.0};
}

/// Latency and throughput, robust to the stretches in which a shared
/// machine runs slow.  The quiet-machine figure of a run is its first
/// quartile (QuietQuartile) over repeated measurements of the same
/// thing: on the block workloads, each config's time over the run's
/// blocks, summarized over one block's mix; on livermore-service, whose
/// requests do not repeat in blocks, each one-second window's figures.
/// Throughput is requests per second the clients spent serving them —
/// the time they spend checking outputs between requests is not the
/// compiler's.  \p Field picks the request times: reference-core
/// (ReferenceMs) for the metrics, or as measured (LatencyMs).
LatencySummary quietSummary(const Phase &P, Workload W, uint64_t Seed,
                            std::vector<double> ClientResult::*Field) {
  if (W != Workload::LivermoreService) {
    std::map<std::string, std::vector<double>> ByConfig;
    for (const ClientResult &C : P.Clients)
      for (size_t I = 0; I < (C.*Field).size(); ++I)
        ByConfig[C.Config[I]].push_back((C.*Field)[I]);
    std::vector<double> Mix;
    for (const Request &R : workloadBlock(W, Seed, 0))
      Mix.push_back(quantile(ByConfig[R.describe()], QuietQuartile));
    return summarize(Mix, 1);
  }
  std::map<size_t, std::vector<double>> Windows;
  for (const ClientResult &C : P.Clients)
    for (size_t I = 0; I < (C.*Field).size(); ++I)
      Windows[C.Window[I]].push_back((C.*Field)[I]);
  // Leave out windows with less than half a fair share of the requests
  // (the cut-off last second).
  size_t Fair = P.requests() / (2 * Windows.size());
  std::vector<double> P50, P90, Rate;
  for (const auto &[Index, Ms] : Windows)
    if (Ms.size() >= Fair) {
      LatencySummary S = summarize(Ms, P.Clients.size());
      P50.push_back(S.P50);
      P90.push_back(S.P90);
      Rate.push_back(S.Rate);
    }
  return {quantile(P50, QuietQuartile), quantile(P90, QuietQuartile),
          quantile(Rate, 1 - QuietQuartile)};
}

std::vector<Metric> endToEnd(const Phase &P, const Setup &Su,
                             double SetupSeconds) {
  LatencySummary L =
      quietSummary(P, Su.W, Su.Seed, &ClientResult::ReferenceMs);
  return {
      {"latency_ms_p50", L.P50, "ms"},
      {"latency_ms_p90", L.P90, "ms"},
      {"throughput_rps", L.Rate, "1/s"},
      {"setup_s", SetupSeconds, "s"},
      {"peak_rss_mb", peakRssMb(), "MB"},
      {"vm_cycles_per_iter", geomean(P.all(&ClientResult::CyclesPerIter)),
       "cycles"},
      {"code_ops", geomean(P.all(&ClientResult::CodeOps)), "ops"},
  };
}

/// The per-layer metrics of the traced twins of \p P's requests, served
/// on \p Su.
std::vector<Metric> perLayer(const Phase &P, const Setup &Su) {
  SelfTimes Self;
  LayerCounts N;
  double TrackSeconds = 0;
  std::map<std::string, uint64_t> Arm;
  for (const ClientResult &C : P.TracedClients) {
    for (const auto &[Name, S] : C.Self)
      Self[Name] += S;
    TrackSeconds += C.RequestTrackSeconds;
    N.PassComputed += C.Counts.PassComputed;
    N.PassHits += C.Counts.PassHits;
    N.ArtifactBytes += C.Counts.ArtifactBytes;
    N.TransformNodesOut += C.Counts.TransformNodesOut;
    N.NetTransitions += C.Counts.NetTransitions;
    N.PnmlBytes += C.Counts.PnmlBytes;
    for (const auto &[Name, V] : C.Counts.ArmCounters)
      Arm[Name] += V;
  }
  // Each request ran twice on identically evolving state, so the traced
  // twins did half of the phase's counted work, arms aside.
  auto Counter = [&](const char *Name) {
    auto It = P.Counters.find(Name);
    uint64_t V = It == P.Counters.end() ? 0 : It->second;
    return static_cast<double>(V - std::min(V, Arm[Name])) / 2;
  };
  auto Ms = [&](const std::string &Span) {
    auto It = Self.find(Span);
    return It == Self.end() ? 0.0 : It->second * 1e3;
  };
  double TracedSum = 0, UntracedSum = 0;
  for (double X : Phase::all(P.TracedClients, &ClientResult::LatencyMs))
    TracedSum += X;
  for (double X : P.all(&ClientResult::LatencyMs))
    UntracedSum += X;

  std::vector<Metric> M;
  auto AddMs = [&](const std::string &Span) {
    M.push_back({Span + ".ms", Ms(Span), "ms"});
  };
  auto AddCount = [&](const char *Name, double V) {
    M.push_back({Name, V, "count"});
  };

  uint64_t MemoryHits = 0, DiskHits = 0, DiskWrites = 0;
  if (Su.Stores) {
    MemoryHits = Su.Stores->Memory->counters().Hits;
    DiskStore::Counters D = Su.Stores->Disk->counters();
    DiskHits = D.Hits;
    DiskWrites = D.Writes;
  }
  uint64_t PassCalls = N.PassComputed + N.PassHits;

  AddMs("request");
  AddMs("lower");
  AddMs("transform");
  AddCount("transform.nodes_out", static_cast<double>(N.TransformNodesOut));
  AddCount("pass.computed", static_cast<double>(N.PassComputed));
  AddCount("pass.hits", static_cast<double>(N.PassHits));
  M.push_back({"cache.hit_ratio",
               PassCalls ? static_cast<double>(N.PassHits) / PassCalls : 0.0,
               "ratio"});
  AddMs("store.lookup");
  AddMs("store.publish");
  AddCount("store.memory.hits", static_cast<double>(MemoryHits));
  AddCount("store.disk.hits", static_cast<double>(DiskHits));
  AddCount("store.disk.writes", static_cast<double>(DiskWrites));
  AddMs("store.disk.read");
  AddMs("store.disk.write");
  M.push_back({"artifact.bytes", static_cast<double>(N.ArtifactBytes),
               "bytes"});
  AddMs("sdsp");
  AddMs("sdsp-pn");
  AddMs("scp");
  AddCount("net.transitions", static_cast<double>(N.NetTransitions));
  AddMs("rate");
  AddCount("rate.howard.iterations", Counter("rate.howard.iterations"));
  AddMs("frustum");
  AddCount("frustum.instants", Counter("packedstate.states_interned"));
  AddCount("frustum.firings", Counter("engine.firings"));
  AddMs("frustum.analytic");
  AddMs("schedule");
  AddMs("verify");
  for (const char *Check : {"marked_graph", "live", "persistent",
                            "t_invariant", "safe", "rate_check",
                            "schedule_replay"})
    AddMs(std::string("verify.") + Check);
  AddMs("import-pnml");
  AddMs("pnml.parse");
  double ParseSeconds = Ms("pnml.parse") / 1e3;
  M.push_back({"pnml.parse_mb_per_s",
               ParseSeconds > 0 ? N.PnmlBytes / 1e6 / ParseSeconds : 0.0,
               "MB/s"});
  AddMs("pnml.classify");
  AddMs("pnml.classify.safe");
  AddMs("codegen");
  AddMs("codec.encode");
  for (const char *Pass : {"lower", "transform", "sdsp", "sdsp-pn", "rate",
                           "scp", "frustum", "schedule", "codegen"})
    AddMs(std::string("codec.decode.") + Pass);
  M.push_back({"trace.overhead_ratio",
               UntracedSum > 0 ? TracedSum / UntracedSum : 0.0, "ratio"});
  M.push_back({"trace.accounted_ratio",
               UntracedSum > 0 ? TrackSeconds * 1e3 / UntracedSum : 0.0,
               "ratio"});
  return M;
}

/// Prints where the traced request time went, largest share first.
void printShares(const std::vector<Metric> &M) {
  double Total = 0;
  std::vector<std::pair<double, std::string>> Rows;
  for (const Metric &X : M) {
    std::string_view Name = X.Name;
    bool Arm = Name.starts_with("codec.") || Name.starts_with("pnml.") ||
               Name == "frustum.analytic.ms";
    if (!Name.ends_with(".ms"))
      continue;
    if (!Arm)
      Total += X.Value;
    Rows.emplace_back(X.Value, X.Name + (Arm ? " (arm)" : ""));
  }
  std::sort(Rows.rbegin(), Rows.rend());
  std::cout << "self time by layer (share of traced request time):\n";
  for (const auto &[Ms, Name] : Rows)
    if (Ms > 0) {
      char Buf[160];
      std::snprintf(Buf, sizeof(Buf), "  %-28s %12.3f ms %6.1f%%\n",
                    Name.c_str(), Ms, Total > 0 ? 100 * Ms / Total : 0.0);
      std::cout << Buf;
    }
}

struct Options {
  Workload W = Workload::LivermoreService;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool SelfTest = false;
  std::string Scratch = ".";
};

int runBenchmark(const Options &Opt) {
  // Each set-up round is timed between probes, and put on the
  // reference core's scale by them.
  std::vector<double> SetupSeconds, RawSetupSeconds;
  std::vector<std::pair<double, double>> Rounds;
  SpeedTrack SetupSpeed;
  std::unique_ptr<Setup> Su;
  Clock::time_point Begin = Clock::now();
  for (int Round = 0; Round < SetupRounds; ++Round) {
    Su.reset();
    std::string Dir = Opt.Scratch + "/store-" + std::to_string(Round);
    if (Opt.W == Workload::LivermoreService)
      prefillStore(Opt.Seed, Dir);
    for (int I = 0; I < SetupProbes; ++I)
      SetupSpeed.probe(secondsSince(Begin));
    double From = secondsSince(Begin);
    Su = prepare(Opt.W, Opt.Seed, Dir, false);
    Rounds.emplace_back(From, secondsSince(Begin));
  }
  for (int I = 0; I < SetupProbes; ++I)
    SetupSpeed.probe(secondsSince(Begin));
  for (const auto &[From, To] : Rounds) {
    RawSetupSeconds.push_back(To - From);
    SetupSeconds.push_back((To - From) * SetupSpeed.scale(From, To));
  }
  std::cerr << "perfbench: set-up rounds took";
  for (double S : RawSetupSeconds)
    std::cerr << " " << number(S);
  std::cerr << " s (reference core:";
  for (double S : SetupSeconds)
    std::cerr << " " << number(S);
  std::cerr << " s)\n";

  // The traced run serves each request a second time, traced, on a
  // set-up of its own (a fresh store for the service).
  std::unique_ptr<Setup> Traced;
  PhaseOptions PO;
  if (Opt.Trace) {
    std::string Dir = Opt.Scratch + "/store-traced";
    if (Opt.W == Workload::LivermoreService)
      prefillStore(Opt.Seed, Dir);
    Traced = prepare(Opt.W, Opt.Seed, Dir, true);
    PO.Arms.Codec = PO.Arms.Census = Opt.W == Workload::UnrolledVerify;
  }
  Clock::time_point T0 = Clock::now();
  Phase P = runPhase(*Su, Traced.get(), timedStops(*Su, Opt.Seconds), PO);
  double Wall = secondsSince(T0);
  reportFailures(P);
  LatencySummary Raw =
      quietSummary(P, Su->W, Su->Seed, &ClientResult::LatencyMs);
  std::cerr << "perfbench: measured p50 " << number(Raw.P50) << " ms, p90 "
            << number(Raw.P90) << " ms, " << number(Raw.Rate)
            << " 1/s; median probe " << number(P.Clients[0].Speed.medianMs())
            << " ms\n";
  std::cout << workloadName(Opt.W) << ": " << P.attempted()
            << " requests in " << number(Wall) << " s, " << P.failed()
            << " failed (failed_ratio "
            << number(static_cast<double>(P.failed()) /
                      std::max<size_t>(1, P.attempted()))
            << ")\n";
  if (Su->Stores)
    std::cout << "store: " << Su->Stores->Memory->entries()
              << " artifacts in memory ("
              << (Su->Stores->Memory->counters().Bytes >> 20) << " MB), "
              << Su->Stores->Disk->entries() << " on disk ("
              << (Su->Stores->Disk->bytes() >> 20) << " MB)\n";
  std::vector<Metric> M;
  if (Opt.Trace) {
    M = perLayer(P, *Traced);
    printShares(M);
  } else {
    M = endToEnd(P, *Su, quantile(SetupSeconds, 0.5));
  }
  printResult(P, M);
  return P.failed() ? 1 : 0;
}

//===----------------------------------------------------------------------===//
// Self-tests
//===----------------------------------------------------------------------===//

std::vector<Request> firstRequests(Workload W, uint64_t Seed, size_t N) {
  std::vector<Request> Out;
  if (W == Workload::LivermoreService) {
    ServicePlan P = servicePlan(Seed);
    for (ServiceStream &S : P.Streams)
      for (size_t I = 0; I < N; ++I)
        Out.push_back(S.next());
    Out.insert(Out.end(), P.Prefill.begin(), P.Prefill.end());
    return Out;
  }
  for (size_t B = 0; Out.size() < N; ++B) {
    std::vector<Request> Block = workloadBlock(W, Seed, B);
    Out.insert(Out.end(), Block.begin(), Block.end());
  }
  return Out;
}

int selfTest(const Options &Opt) {
  int Failures = 0;
  auto Expect = [&](bool Holds, const std::string &What) {
    std::cout << (Holds ? "ok   " : "FAIL ") << What << "\n";
    Failures += !Holds;
  };

  for (Workload W : AllWorkloads) {
    std::string Name = workloadName(W);
    uint64_t A = digest(firstRequests(W, 7, 500));
    Expect(A == digest(firstRequests(W, 7, 500)),
           Name + ": one seed gives one request list");
    Expect(A != digest(firstRequests(W, 8, 500)),
           Name + ": two seeds give two request lists");
  }

  Expect(quantile({4, 1, 3, 2}, 0.5) == 2.5, "median of 1..4 is 2.5");
  Expect(std::fabs(quantile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9) - 9.1) <
             1e-12,
         "p90 of 1..10 is 9.1");
  Expect(quantile({5}, 0.9) == 5 && quantile({}, 0.5) == 0,
         "quantile of one value and of none");
  Expect(std::fabs(geomean({1, 4, 16}) - 4) < 1e-12 && geomean({}) == 0,
         "geometric mean of 1, 4, 16 is 4");

  // Corrupted outputs are failures, never crashes.
  {
    Request R;
    R.Kernel = findKernel("l2");
    R.Unroll = 2;
    Oracle Check(1);
    Outcome O = serveCompile(R, nullptr);
    std::string Err = O.St ? Check.checkCompile(R, O, nullptr) : O.St.str();
    Expect(Err.empty(), "oracle accepts a correct program " + Err);
    Check.corruptNext();
    Expect(!Check.checkCompile(R, O, nullptr).empty(),
           "oracle rejects a corrupted program output");

    auto Su = prepare(Workload::PnmlImport, 1, Opt.Scratch + "/selftest-p",
                      false);
    Outcome I = serveImport(Su->Docs[0]);
    Err = I.St ? Check.checkImport(I, Su->DocRates[0], Su->DocConnected[0])
               : I.St.str();
    Expect(Err.empty(), "oracle accepts a correct import " + Err);
    Check.corruptNext();
    Expect(!Check.checkImport(I, Su->DocRates[0], Su->DocConnected[0]).empty(),
           "oracle rejects a corrupted import rate");
  }

  // Two fresh-store runs of the service see the same store traffic; a
  // corrupted output in a run is counted, once.
  std::vector<std::array<uint64_t, 3>> Traffic;
  for (int Run = 0; Run < 2; ++Run) {
    std::string Dir = Opt.Scratch + "/selftest-s" + std::to_string(Run);
    prefillStore(3, Dir);
    auto Su = prepare(Workload::LivermoreService, 3, Dir, false);
    StopRule S;
    S.Count = 150;
    PhaseOptions PO;
    PO.CorruptAt = Run == 1 ? 3 : SIZE_MAX;
    Phase P = runPhase(*Su, nullptr, {S, S}, PO);
    DiskStore::Counters D = Su->Stores->Disk->counters();
    Traffic.push_back({Su->Stores->Memory->counters().Hits, D.Hits, D.Writes});
    reportFailures(P);
    Expect(P.failed() == (Run == 1 ? 1u : 0u),
           Run == 1 ? "a corrupted output in a run is one failure"
                    : "a clean run has no failures");
  }
  Expect(Traffic[0] == Traffic[1] && Traffic[0][0] > 0 && Traffic[0][1] > 0 &&
             Traffic[0][2] > 0,
         "two fresh-store runs: same memory hits (" +
             std::to_string(Traffic[0][0]) + "), disk hits (" +
             std::to_string(Traffic[0][1]) + ") and disk writes (" +
             std::to_string(Traffic[0][2]) + ")");

  std::cout << (Failures ? "self-test FAILED" : "self-test passed") << "\n";
  return Failures ? 1 : 0;
}

[[noreturn]] void usage(const std::string &Why) {
  die(Why + "\nusage: perfbench --workload NAME --seed N --seconds S "
            "--trace 0|1 [--scratch DIR]\n       perfbench --selftest "
            "[--scratch DIR]");
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--selftest") {
      O.SelfTest = true;
      continue;
    }
    if (I + 1 >= Argc)
      usage("missing value after " + A);
    std::string V = Argv[++I];
    try {
      if (A == "--workload") {
        std::optional<Workload> W = parseWorkload(V);
        if (!W)
          usage("unknown workload '" + V + "'");
        O.W = *W;
        HaveWorkload = true;
      } else if (A == "--seed") {
        O.Seed = std::stoull(V);
      } else if (A == "--seconds") {
        O.Seconds = std::stod(V);
      } else if (A == "--trace") {
        O.Trace = std::stoi(V) != 0;
      } else if (A == "--scratch") {
        O.Scratch = V;
      } else {
        usage("unknown option " + A);
      }
    } catch (const std::exception &) {
      usage("bad value '" + V + "' for " + A);
    }
  }
  if (!O.SelfTest && !HaveWorkload)
    usage("no --workload given");
  if (O.Seconds <= 0)
    usage("--seconds must be positive");
  return O;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parseArgs(Argc, Argv);
  // A request whose state space explodes must fail here, not take the
  // machine's memory with it.
  struct rlimit Limit = {AddressSpaceLimit, AddressSpaceLimit};
  setrlimit(RLIMIT_AS, &Limit);
  std::error_code EC;
  fs::create_directories(O.Scratch, EC);
  return O.SelfTest ? selfTest(O) : runBenchmark(O);
}
