//===- core/Session.cpp - Compilation sessions over an artifact graph ------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "core/Session.h"

#include "codegen/Codegen.h"
#include "core/ScheduleDerivation.h"
#include "core/SharedArtifactCache.h"
#include "core/StorageOptimizer.h"
#include "dataflow/Unroll.h"
#include "dataflow/Validate.h"
#include "loopir/Lowering.h"
#include "petri/Invariants.h"
#include "petri/MarkedGraph.h"
#include "petri/Pnml.h"
#include "support/FaultInjection.h"
#include "support/Metrics.h"
#include "support/TextTable.h"
#include "support/Trace.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <sstream>
#include <string_view>

using namespace sdsp;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

constexpr PassInfo PassTable[NumPassKinds] = {
    {"lower", "source", "dataflow-graph", true},
    {"import", "external dataflow-graph", "dataflow-graph", true},
    {"transform", "dataflow-graph", "dataflow-graph", true},
    {"sdsp", "dataflow-graph", "sdsp", true},
    {"sdsp-pn", "sdsp", "sdsp-pn", true},
    {"rate", "sdsp-pn", "rate-report", true},
    {"scp", "sdsp-pn", "scp-pn", true},
    {"frustum", "sdsp-pn | scp-pn", "frustum", true},
    {"schedule", "sdsp + sdsp-pn + frustum", "software-pipeline", true},
    {"codegen", "sdsp + sdsp-pn + schedule", "loop-program", true},
    {"verify", "compiled-loop", "(checked)", false},
    {"import-pnml", "pnml-text", "external-net", true},
    {"export-pnml", "net [+ frustum]", "pnml-text", true},
};

/// Same range checks (and messages) the pipeline has always applied.
Status validateOptions(const PipelineOptions &Opts) {
  auto Bad = [](const std::string &Msg) {
    return Status::error(ErrorCode::InvalidInput, "options", Msg);
  };
  if (Opts.Capacity < 1)
    return Bad("buffer capacity must be at least 1");
  if (Opts.Capacity > MaxBufferCapacity)
    return Bad("buffer capacity " + std::to_string(Opts.Capacity) +
               " out of range [1, " + std::to_string(MaxBufferCapacity) +
               "]");
  if (Opts.Unroll < 1 || Opts.Unroll > MaxUnrollFactor)
    return Bad("unroll factor " + std::to_string(Opts.Unroll) +
               " out of range [1, " + std::to_string(MaxUnrollFactor) + "]");
  if (Opts.ValidateIterations < 1)
    return Bad("schedule validation needs at least one iteration");
  // The SCP stage validates ScpDepth/Pipelines itself (they carry
  // resource semantics: a zero-stage pipeline is ResourceConflict, not
  // a range typo).
  return Status::ok();
}

void jsonEscape(std::ostream &OS, const std::string &S) {
  for (char C : S) {
    if (C == '"' || C == '\\')
      OS << '\\';
    OS << C;
  }
}

std::string formatSeconds(double S) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.9f", S);
  return Buf;
}

/// The fault-site name of pass \p K ("pass:frustum", ...), built once
/// so the per-pass checkpoint costs no allocation.
const std::string &passSite(PassKind K) {
  static const std::array<std::string, NumPassKinds> Sites = [] {
    std::array<std::string, NumPassKinds> A;
    for (size_t I = 0; I < NumPassKinds; ++I)
      A[I] = std::string("pass:") + PassTable[I].Id;
    return A;
  }();
  return Sites[static_cast<size_t>(K)];
}

/// Closes the pass span open on \p Trace (if any), recording how the run
/// resolved: computed, hit, failed or cancelled.
void resolvePassSpan(TraceTrack *Trace, const char *How) {
  if (Trace) {
    Trace->endSpan();
    Trace->argStr("resolved", How);
  }
}

/// Records an observed cancellation (Cancelled / DeadlineExceeded): a
/// "cancelled" trace instant plus the cancel.observed gauge (a gauge,
/// not a counter: where a deadline lands is wall-clock-dependent and
/// must stay off the determinism surface).  False for any other status.
bool noteCancellation(TraceTrack *Trace, const Status &St) {
  if (St.code() != ErrorCode::Cancelled &&
      St.code() != ErrorCode::DeadlineExceeded)
    return false;
  MetricsRegistry::global().gaugeAdd("cancel.observed", 1);
  if (Trace) {
    Trace->instant("cancelled", "cancel");
    Trace->argStr("status", errorCodeName(St.code()));
  }
  return true;
}

/// Closes out a failed pass run: counts the failure, records a
/// cancellation, and closes the pass span.
Status notePassFailure(TraceTrack *Trace, PassStats &PS, Status St) {
  ++PS.Failures;
  bool WasCancelled = noteCancellation(Trace, St);
  resolvePassSpan(Trace, WasCancelled ? "cancelled" : "failed");
  return St;
}

/// The gate of rate and frustum analysis on an imported net.  Rate
/// theory (Appendix A.7) speaks about live marked graphs; anything else
/// has no well-defined optimal computation rate, and its frustum (if
/// any) is not the periodic schedule the model promises.  Both passes
/// call this inside their compute, so a rejection is never cached.
Status requireLiveMarkedGraph(const ExternalNet &Ext, const char *Analysis) {
  if (!Ext.Class.MarkedGraph)
    return Status::error(ErrorCode::InvalidNet, "petri",
                         "net '" + Ext.NetId + "' is not a marked graph (" +
                             Analysis + " needs one)");
  if (!Ext.Class.Live)
    return Status::error(ErrorCode::InvalidNet, "petri",
                         "net '" + Ext.NetId +
                             "' is not live (a token-free cycle never "
                             "fires)");
  return Status::ok();
}

} // namespace

const PassInfo &sdsp::passInfo(PassKind K) {
  return PassTable[static_cast<size_t>(K)];
}

uint64_t sdsp::artifactHash(const TransformedGraph &T) {
  HashStream HS(0x5d5370a0f1ULL);
  HS.u64(T.GraphHash).u64(artifactHash(T.Stats));
  return HS.hash();
}

uint64_t sdsp::artifactSizeBytes(const TransformedGraph &T) {
  return artifactSizeBytes(T.Graph) + sizeof(TransformStats);
}

uint64_t sdsp::artifactHash(const SdspArtifact &S) {
  return artifactHash(S, artifactHash(S.S.graph()));
}

uint64_t sdsp::artifactHash(const SdspArtifact &S, uint64_t GraphHash) {
  HashStream HS(0x5d5370a0f2ULL);
  HS.u64(GraphHash);
  S.S.hashAcks(HS);
  HS.u64(S.Storage.has_value());
  if (S.Storage) {
    HS.u64(S.Storage->Before).u64(S.Storage->After);
    HS.i64(S.Storage->OptimalRate.num()).i64(S.Storage->OptimalRate.den());
  }
  return HS.hash();
}

uint64_t sdsp::artifactSizeBytes(const SdspArtifact &S) {
  return artifactSizeBytes(S.S) + sizeof(StorageOptSummary);
}

uint64_t sdsp::artifactHash(const ExternalNet &E) {
  HashStream HS(0x5d5370a0f3ULL);
  HS.u64(artifactHash(E.Net)).str(E.NetId);
  HS.u64(E.Class.MarkedGraph)
      .u64(E.Class.Live)
      .u64(E.Class.Safe)
      .u64(E.Class.Persistent)
      .u64(E.Class.StronglyConnected)
      .u64(E.Class.Consistent);
  return HS.hash();
}

uint64_t sdsp::artifactSizeBytes(const ExternalNet &E) {
  return artifactSizeBytes(E.Net) + E.NetId.size() +
         sizeof(NetClassification);
}

uint64_t sdsp::artifactHash(const PnmlText &P) {
  HashStream HS(0x5d5370a0f4ULL);
  HS.str(P.Text).str(P.NetId).u64(static_cast<uint64_t>(P.Flavor));
  return HS.hash();
}

uint64_t sdsp::artifactSizeBytes(const PnmlText &P) {
  return P.Text.size() + P.NetId.size() + sizeof(PnmlFlavor);
}

//===----------------------------------------------------------------------===//
// PipelineTrace
//===----------------------------------------------------------------------===//

double PipelineTrace::totalWallSeconds() const {
  double T = 0;
  for (const Row &R : Passes)
    T += R.Stats.WallSeconds;
  return T;
}

uint64_t PipelineTrace::totalInvocations() const {
  uint64_t N = 0;
  for (const Row &R : Passes)
    N += R.Stats.Invocations;
  return N;
}

uint64_t PipelineTrace::totalCacheHits() const {
  uint64_t N = 0;
  for (const Row &R : Passes)
    N += R.Stats.CacheHits;
  return N;
}

void PipelineTrace::printTable(std::ostream &OS) const {
  OS << "=== pipeline timings (artifact cache "
     << (CacheEnabled ? "enabled" : "disabled") << ") ===\n";
  TextTable T;
  T.startRow();
  for (const char *H : {"pass", "inputs", "output", "runs", "hits", "fail",
                        "wall ms", "bytes"})
    T.cell(H);
  for (const Row &R : Passes) {
    if (R.Stats.Invocations == 0)
      continue;
    T.startRow();
    T.cell(R.Pass);
    T.cell(R.Inputs);
    T.cell(R.Output);
    T.cell(R.Stats.Invocations);
    T.cell(R.Stats.CacheHits);
    T.cell(R.Stats.Failures);
    T.cell(R.Stats.WallSeconds * 1e3, 3);
    T.cell(R.Stats.ArtifactBytes);
  }
  T.print(OS);
  OS << "total: " << totalInvocations() << " pass runs, "
     << totalCacheHits() << " cache hits, "
     << formatSeconds(totalWallSeconds()) << " s computing\n";
}

void PipelineTrace::writeJson(std::ostream &OS) const {
  OS << "{\n"
     << "  \"schema\": \"sdsp-pipeline-trace-v1\",\n"
     << "  \"cache_enabled\": " << (CacheEnabled ? "true" : "false")
     << ",\n"
     << "  \"total_wall_seconds\": " << formatSeconds(totalWallSeconds())
     << ",\n"
     << "  \"total_invocations\": " << totalInvocations() << ",\n"
     << "  \"total_cache_hits\": " << totalCacheHits() << ",\n"
     << "  \"passes\": [\n";
  bool First = true;
  for (const Row &R : Passes) {
    if (!First)
      OS << ",\n";
    First = false;
    OS << "    {\"pass\": \"";
    jsonEscape(OS, R.Pass);
    OS << "\", \"inputs\": \"";
    jsonEscape(OS, R.Inputs);
    OS << "\", \"output\": \"";
    jsonEscape(OS, R.Output);
    OS << "\", \"invocations\": " << R.Stats.Invocations
       << ", \"cache_hits\": " << R.Stats.CacheHits
       << ", \"failures\": " << R.Stats.Failures
       << ", \"wall_seconds\": " << formatSeconds(R.Stats.WallSeconds)
       << ", \"artifact_bytes\": " << R.Stats.ArtifactBytes << "}";
  }
  OS << "\n  ]\n}\n";
}

//===----------------------------------------------------------------------===//
// CompilationSession
//===----------------------------------------------------------------------===//

CompilationSession::CompilationSession(SessionConfig Config)
    : Trace(Config.Trace), Cancel(std::move(Config.Cancel)),
      Faults(Config.Faults) {
  bool CacheOn;
  if (Config.EnableCache) {
    CacheOn = *Config.EnableCache;
  } else {
    const char *E = std::getenv("SDSP_DISABLE_ARTIFACT_CACHE");
    CacheOn = !(E && *E && std::string_view(E) != "0");
  }
  if (!CacheOn)
    return; // A disabled cache is disabled at every scope: no store.
  Store = Config.Store;
  if (!Store) {
    // Nothing else can reach this store, so one shard is enough.
    OwnStore = std::make_unique<MemoryStore>(MemoryStore::Config{1, 0});
    Store = OwnStore.get();
  }
}

CompilationSession::~CompilationSession() = default;

PipelineTrace CompilationSession::trace() const {
  PipelineTrace T;
  T.CacheEnabled = cacheEnabled();
  T.Passes.reserve(NumPassKinds);
  for (size_t I = 0; I < NumPassKinds; ++I) {
    const PassInfo &Info = PassTable[I];
    T.Passes.push_back({Info.Id, Info.Inputs, Info.Output, Stats[I]});
  }
  return T;
}

namespace {

/// Releases a store key the session owns unless the computation
/// published it — so waiters on other threads always wake, even if the
/// compute path throws.  A null store (cache off) owns nothing.
class KeyGuard {
public:
  KeyGuard(ArtifactStore *S, const ArtifactKey &K) : S(S), K(K) {}
  ~KeyGuard() {
    if (S)
      S->abandon(K);
  }
  void markPublished() { S = nullptr; }

private:
  ArtifactStore *S;
  ArtifactKey K;
};

} // namespace

Status CompilationSession::enterPass(PassKind K) {
  PassStats &PS = Stats[static_cast<size_t>(K)];
  ++PS.Invocations;
  const char *Id = PassTable[static_cast<size_t>(K)].Id;
  // One span per pass run on the session's track; the span argument on
  // the closing record says how the run resolved (hit / computed /
  // failed / cancelled), and publish/abandon show up as instants inside
  // the span.
  if (Trace)
    Trace->beginSpan(Id, "pass");
  // The pass-boundary checkpoint: cancellation first, then the named
  // fault site — both before any cache ownership is taken, so an
  // injected failure here never strands waiters.
  if (Cancel.cancelled())
    return notePassFailure(
        Trace, PS,
        Cancel.status("session", std::string("before pass '") + Id + "'"));
  if (Faults)
    if (Status St = Faults->checkpoint(passSite(K)); !St)
      return notePassFailure(Trace, PS, std::move(St));
  return Status::ok();
}

template <typename T, typename Fn, typename HashFn>
Expected<ArtifactRef<T>>
CompilationSession::runPass(PassKind K, uint64_t InputsHash,
                            uint64_t OptionsFp, Fn &&Compute,
                            HashFn HashOf) {
  if (Status St = enterPass(K); !St)
    return St;
  PassStats &PS = Stats[static_cast<size_t>(K)];
  const char *Id = PassTable[static_cast<size_t>(K)].Id;
  ArtifactKey Key{static_cast<uint32_t>(K), InputsHash, OptionsFp};
  if (Store) {
    if (Faults)
      if (Status St = Faults->checkpoint("cache:lookup"); !St)
        return notePassFailure(Trace, PS, std::move(St));
    // lookupOrLock either answers from the store (the memory tier, or —
    // through a TieredStore — a persisted disk object) or makes this
    // session the key's owner (compute-once across every session
    // sharing the store; see core/ArtifactStore.h).
    if (std::optional<ArtifactEntry> E = Store->lookupOrLock(Key, Faults)) {
      ++PS.CacheHits;
      resolvePassSpan(Trace, "hit");
      return ArtifactRef<T>(std::static_pointer_cast<const T>(E->Value),
                            E->ContentHash);
    }
  }
  KeyGuard Guard(Store, Key);
  Clock::time_point T0 = Clock::now();
  const uint64_t WordsBefore = hashWordsFed();
  Expected<T> R = Compute();
  // The owner-death fault site: firing "cache:publish" after a
  // successful compute makes this session die holding the key, so
  // the Guard's abandon hands ownership to a waiter (the MemoryStore
  // handoff protocol under test).
  Status PublishSt = Status::ok();
  if (R && Store && Faults)
    PublishSt = Faults->checkpoint("cache:publish");
  if (!R || !PublishSt) {
    PS.WallSeconds += secondsSince(T0);
    if (Trace && Store) {
      Trace->instant("cache-abandon", "cache");
      Trace->argStr("pass", Id);
    }
    // Guard abandons: failures are never cached.
    return notePassFailure(Trace, PS,
                           !R ? R.status() : std::move(PublishSt));
  }
  auto Ptr = std::make_shared<const T>(std::move(*R));
  uint64_t Hash = HashOf(*Ptr);
  MetricsRegistry::global().add("hash.words", hashWordsFed() - WordsBefore);
  uint64_t Bytes = artifactSizeBytes(*Ptr);
  PS.WallSeconds += secondsSince(T0);
  PS.ArtifactBytes += Bytes;
  if (Store) {
    PublishResult PubRes =
        Store->publish(Key, ArtifactEntry{Ptr, Hash, Bytes}, Faults);
    Guard.markPublished();
    if (Trace) {
      Trace->instant("cache-publish", "cache");
      Trace->argStr("pass", Id);
      Trace->argU64("bytes", Bytes);
      if (PubRes.WroteDisk) {
        Trace->instant("store-publish", "store");
        Trace->argStr("pass", Id);
        Trace->argU64("bytes", PubRes.DiskBytes);
      }
    }
  }
  resolvePassSpan(Trace, "computed");
  return ArtifactRef<T>(std::move(Ptr), Hash);
}

Expected<ArtifactRef<DataflowGraph>>
CompilationSession::lower(const std::string &Source,
                          DiagnosticEngine *Diags) {
  return runPass<DataflowGraph>(
      PassKind::Lower, artifactHash(Source), 0,
      [&]() -> Expected<DataflowGraph> {
        DiagnosticEngine Local;
        DiagnosticEngine &D = Diags ? *Diags : Local;
        std::optional<DataflowGraph> G = compileLoop(Source, D);
        if (!G) {
          std::ostringstream OS;
          bool First = true;
          for (const Diagnostic &Diag : D.diagnostics()) {
            if (!First)
              OS << "; ";
            First = false;
            OS << Diag.Loc.Line << ":" << Diag.Loc.Col << ": "
               << Diag.Message;
          }
          if (First)
            OS << "frontend rejected the source";
          return Status::error(ErrorCode::InvalidInput, "frontend",
                               OS.str());
        }
        return std::move(*G);
      });
}

Expected<ArtifactRef<DataflowGraph>>
CompilationSession::importGraph(DataflowGraph G) {
  uint64_t Hash = artifactHash(G);
  return runPass<DataflowGraph>(
      PassKind::Import, Hash, 0, [&]() -> Expected<DataflowGraph> {
        // Graphs arriving here bypassed the frontend; re-establish
        // well-formedness before trusting them.
        if (Status St = validationStatus(G, "dataflow"); !St)
          return St;
        return std::move(G);
      });
}

Expected<ArtifactRef<TransformedGraph>>
CompilationSession::transform(const ArtifactRef<DataflowGraph> &G,
                              bool Optimize, uint32_t Unroll) {
  uint64_t Fp = HashStream(1).u64(Optimize).u64(Unroll).hash();
  return runPass<TransformedGraph>(
      PassKind::Transform, G.hash(), Fp,
      [&]() -> Expected<TransformedGraph> {
        TransformedGraph Out;
        Out.Graph = *G;
        if (Optimize)
          Out.Graph = optimize(Out.Graph, Out.Stats);
        if (Unroll > 1) {
          Expected<DataflowGraph> U = unrollLoopChecked(Out.Graph, Unroll);
          if (!U)
            return U.status();
          Out.Graph = std::move(*U);
        }
        Out.GraphHash = artifactHash(Out.Graph);
        return Out;
      });
}

ArtifactRef<DataflowGraph> CompilationSession::transformedGraph(
    const ArtifactRef<TransformedGraph> &T) const {
  // Aliasing share: the graph stays owned by the TransformedGraph
  // artifact; no copy is made, and no hash either (the artifact carries
  // its graph's).
  std::shared_ptr<const DataflowGraph> G(T.ptr(), &T->Graph);
  return ArtifactRef<DataflowGraph>(std::move(G), T->GraphHash);
}

Expected<ArtifactRef<SdspArtifact>>
CompilationSession::buildSdsp(const ArtifactRef<DataflowGraph> &G,
                              uint32_t Capacity, bool OptimizeStorage) {
  uint64_t Fp = HashStream(2).u64(Capacity).u64(OptimizeStorage).hash();
  return runPass<SdspArtifact>(
      PassKind::Sdsp, G.hash(), Fp, [&]() -> Expected<SdspArtifact> {
        SdspArtifact Out{Sdsp::standard(G.ptr(), Capacity), std::nullopt};
        if (OptimizeStorage) {
          Expected<StorageOptResult> R = minimizeStorageChecked(Out.S);
          if (!R)
            return R.status();
          Out.Storage = StorageOptSummary{R->StorageBefore, R->StorageAfter,
                                          R->OptimalRate};
          Out.S = std::move(R->Optimized);
        }
        return Out;
      },
      // The SDSP, minimized or not, shares G's graph, whose hash G
      // carries.
      [&](const SdspArtifact &A) { return artifactHash(A, G.hash()); });
}

Expected<ArtifactRef<SdspPn>>
CompilationSession::buildPn(const ArtifactRef<SdspArtifact> &S) {
  return runPass<SdspPn>(
      PassKind::SdspPn, S.hash(), 0, [&]() -> Expected<SdspPn> {
        Expected<SdspPn> Pn = buildSdspPnChecked(S->S, Cancel, Faults);
        if (!Pn)
          return Pn.status();
        if (Pn->Net.numTransitions() == 0)
          return Status::error(
              ErrorCode::InvalidNet, "petri",
              "loop body has no compute operations to schedule");
        return std::move(*Pn);
      });
}

Expected<ArtifactRef<RateReport>>
CompilationSession::computeRate(const ArtifactRef<SdspPn> &Pn,
                                RateEngine Engine) {
  // The engine choice shapes the report (enumeration fills
  // NumCriticalCycles; Howard leaves it 0), so it must be part of the
  // cache key or a batch mixing --rate-engine values would cross-serve
  // stale reports.
  uint64_t Fp = HashStream(8).u64(static_cast<uint64_t>(Engine)).hash();
  return runPass<RateReport>(PassKind::Rate, Pn.hash(), Fp,
                             [&]() -> Expected<RateReport> {
                               return analyzeRateChecked(Pn->Net, Engine,
                                                         Cancel, Faults);
                             });
}

Expected<ArtifactRef<ScpPn>>
CompilationSession::buildScp(const ArtifactRef<SdspPn> &Pn, uint32_t Depth,
                             uint32_t Pipelines) {
  uint64_t Fp = HashStream(3).u64(Depth).u64(Pipelines).hash();
  return runPass<ScpPn>(PassKind::Scp, Pn.hash(), Fp,
                        [&]() -> Expected<ScpPn> {
                          return buildScpPnChecked(*Pn, Depth, Pipelines);
                        });
}

Expected<ArtifactRef<FrustumInfo>>
CompilationSession::frustumPass(const PetriNet &Net, uint64_t MachineHash,
                                const ScpPn *Scp, const FrustumOptions &FO,
                                const ExternalNet *Imported) {
  // The satellite fix of this refactor: budget AND engine selection are
  // fingerprinted, so shrinking the budget or switching engines can
  // never be answered with a stale cached frustum.  An imported net's
  // frustum is gated on its classification, so its key carries a tag
  // of its own: a store written before the gate existed may hold a
  // frustum of a net the gate rejects, and must not serve it.
  HashStream Fp(4);
  Fp.u64(FO.BudgetSteps).u64(static_cast<uint64_t>(FO.Engine));
  if (Imported)
    Fp.u64(1);
  return runPass<FrustumInfo>(
      PassKind::Frustum, MachineHash, Fp.hash(),
      [&]() -> Expected<FrustumInfo> {
        if (Imported)
          if (Status St = requireLiveMarkedGraph(*Imported, "frustum search");
              !St)
            return St;
        FrustumBudget Budget = FrustumBudget::steps(FO.BudgetSteps);
        std::unique_ptr<FifoPolicy> Policy;
        if (Scp)
          Policy = Scp->makeFifoPolicy();
        std::string FallbackReason;
        Expected<FrustumInfo> F = [&]() -> Expected<FrustumInfo> {
          switch (FO.Engine) {
          case FrustumEngine::Reference:
            return detectFrustumReference(Net, Policy.get(), Budget,
                                          Cancel, Faults);
          case FrustumEngine::Analytic:
            return detectFrustumAnalytic(Net, Policy.get(), Budget, Cancel,
                                         Faults, &FallbackReason);
          case FrustumEngine::Fast:
            break;
          }
          return detectFrustumChecked(Net, Policy.get(), Budget, Cancel,
                                      Faults);
        }();
        if (Trace && !FallbackReason.empty()) {
          // Make the fallback visible in captures: which bar forced the
          // analytic engine back onto the simulator.
          Trace->instant("analytic-fallback", "frustum");
          Trace->argStr("reason", FallbackReason);
        }
        if (!F)
          return F.status();
        if (Trace) {
          // The repeat itself, not just the pass span: the instant makes
          // the (start, repeat) frustum window visible in the viewer.
          Trace->instant("frustum-repeat", "frustum");
          Trace->argU64("start", F->StartTime);
          Trace->argU64("repeat", F->RepeatTime);
        }
        return std::move(*F);
      });
}

Expected<ArtifactRef<FrustumInfo>>
CompilationSession::searchFrustum(const ArtifactRef<SdspPn> &Pn,
                                  const FrustumOptions &FO) {
  return frustumPass(Pn->Net, Pn.hash(), nullptr, FO, nullptr);
}

Expected<ArtifactRef<FrustumInfo>>
CompilationSession::searchFrustum(const ArtifactRef<ScpPn> &Scp,
                                  const FrustumOptions &FO) {
  return frustumPass(Scp->Net, Scp.hash(), Scp.ptr().get(), FO, nullptr);
}

Expected<ArtifactRef<SoftwarePipelineSchedule>>
CompilationSession::deriveSchedule(const ArtifactRef<SdspArtifact> &S,
                                   const ArtifactRef<SdspPn> &Pn,
                                   const ArtifactRef<FrustumInfo> &F,
                                   uint64_t ValidateIterations) {
  uint64_t Inputs =
      HashStream(5).u64(S.hash()).u64(Pn.hash()).u64(F.hash()).hash();
  uint64_t Fp = HashStream(6).u64(ValidateIterations).hash();
  return runPass<SoftwarePipelineSchedule>(
      PassKind::Schedule, Inputs, Fp,
      [&]() -> Expected<SoftwarePipelineSchedule> {
        Expected<SoftwarePipelineSchedule> Sched =
            deriveScheduleChecked(*Pn, *F, Cancel, Faults);
        if (!Sched)
          return Sched.status();
        std::string Err;
        Expected<bool> Valid =
            validateScheduleChecked(S->S, *Pn, *Sched, ValidateIterations,
                                    &Err, Cancel, Faults, "schedule");
        if (!Valid)
          return Valid.status();
        if (!*Valid)
          return Status::error(ErrorCode::InternalInvariant, "schedule",
                               "derived schedule failed validation: " + Err);
        return std::move(*Sched);
      },
      [](const SoftwarePipelineSchedule &Sched) {
        return Sched.contentHash();
      });
}

Expected<ArtifactRef<LoopProgram>> CompilationSession::generateProgram(
    const ArtifactRef<SdspArtifact> &S, const ArtifactRef<SdspPn> &Pn,
    const ArtifactRef<SoftwarePipelineSchedule> &Sched) {
  uint64_t Inputs =
      HashStream(7).u64(S.hash()).u64(Pn.hash()).u64(Sched.hash()).hash();
  return runPass<LoopProgram>(
      PassKind::Codegen, Inputs, 0,
      [&]() -> Expected<LoopProgram> {
        return generateLoopProgram(S->S, *Pn, Sched.ptr());
      },
      [&](const LoopProgram &P) { return artifactHash(P, Sched.hash()); });
}

Expected<NetClassification> sdsp::classifyNet(const PetriNet &Net,
                                              const CancelToken &Cancel,
                                              FaultContext *Faults) {
  NetClassification C;
  C.MarkedGraph = isMarkedGraph(Net);
  if (C.MarkedGraph) {
    SafetyCheckOptions SO;
    SO.Cancel = &Cancel;
    SO.Faults = Faults;
    SO.FaultSite = "pnml:classify";
    SO.Stage = "pnml";
    Expected<MarkedGraphVerdicts> V = classifyMarkedGraph(Net, SO);
    if (!V)
      return V.status();
    C.Live = V->Live;
    C.Safe = V->Safe;
    C.StronglyConnected = V->StronglyConnected;
  }
  C.Persistent = isStructurallyPersistent(Net);
  C.Consistent = hasUniformTInvariant(Net);
  return C;
}

Expected<ArtifactRef<ExternalNet>>
CompilationSession::importPnml(const std::string &Text) {
  return runPass<ExternalNet>(
      PassKind::ImportPnml, artifactHash(Text), 0,
      [&]() -> Expected<ExternalNet> {
        // The parse fault site fires inside the compute: an injected
        // parse failure is never cached (failures never are), so a
        // replay with the same schedule re-injects identically at any
        // concurrency level.
        if (Faults)
          if (Status St = Faults->checkpoint("pnml:parse"); !St)
            return St;
        // Two child spans split the import: reading the document, and
        // classifying the net it holds.  The reader polls the session's
        // token as it goes, and the session polls again before
        // classifying.
        if (Trace)
          Trace->beginSpan("pnml-parse", "pnml");
        MetricsRegistry::global().add("pnml.import.bytes", Text.size());
        Expected<PnmlNet> P = parsePnml(Text, Cancel);
        if (Trace) {
          Trace->endSpan();
          Trace->argU64("bytes", Text.size());
        }
        if (!P) {
          if (P.status().code() == ErrorCode::InvalidInput)
            MetricsRegistry::global().add("pnml.rejects", 1);
          return P.status();
        }
        if (Faults)
          if (Status St = Faults->checkpoint("pnml:classify"); !St)
            return St;
        if (Cancel.cancelled())
          return Cancel.status("pnml", "before classification");
        ExternalNet Out;
        Out.Net = std::move(P->Net);
        Out.NetId = std::move(P->NetId);
        // Classification's safety sweep polls the token and the same
        // fault site once per 64-source batch.
        if (Trace)
          Trace->beginSpan("pnml-classify", "pnml");
        Expected<NetClassification> Class =
            classifyNet(Out.Net, Cancel, Faults);
        if (Trace)
          Trace->endSpan();
        if (!Class)
          return Class.status();
        Out.Class = *Class;
        uint64_t Arcs = 0;
        for (TransitionId T : Out.Net.transitionIds())
          Arcs += Out.Net.transition(T).InputPlaces.size() +
                  Out.Net.transition(T).OutputPlaces.size();
        MetricsRegistry &M = MetricsRegistry::global();
        M.add("pnml.imports", 1);
        M.add("pnml.places", Out.Net.numPlaces());
        M.add("pnml.transitions", Out.Net.numTransitions());
        M.add("pnml.arcs", Arcs);
        return Out;
      });
}

Expected<ArtifactRef<PnmlText>> CompilationSession::exportPnmlPass(
    const PetriNet &Net, const std::string &NetId, uint64_t InputsHash,
    PnmlFlavor Flavor, const FrustumInfo *F) {
  uint64_t Fp = HashStream(9).u64(static_cast<uint64_t>(Flavor)).hash();
  return runPass<PnmlText>(
      PassKind::ExportPnml, InputsHash, Fp, [&]() -> Expected<PnmlText> {
        PnmlText Out;
        Out.NetId = NetId;
        Out.Flavor = Flavor;
        switch (Flavor) {
        case PnmlFlavor::Net:
          Out.Text = pnmlString(Net, NetId);
          break;
        case PnmlFlavor::Behavior:
          Out.Text = pnmlString(
              behaviorNet(Net, F->Trace, 0, ~static_cast<TimeStep>(0)),
              NetId);
          break;
        case PnmlFlavor::Frustum:
          Out.Text = pnmlString(
              behaviorNet(Net, F->Trace, F->StartTime, F->RepeatTime),
              NetId);
          break;
        }
        MetricsRegistry &M = MetricsRegistry::global();
        M.add("pnml.exports", 1);
        M.add("pnml.export.bytes", Out.Text.size());
        return Out;
      });
}

Expected<ArtifactRef<PnmlText>>
CompilationSession::exportPnml(const ArtifactRef<SdspPn> &Pn) {
  return exportPnmlPass(Pn->Net, "sdsp_pn", Pn.hash(), PnmlFlavor::Net,
                        nullptr);
}

Expected<ArtifactRef<PnmlText>>
CompilationSession::exportPnml(const ArtifactRef<SdspPn> &Pn,
                               const ArtifactRef<FrustumInfo> &F,
                               PnmlFlavor Flavor) {
  uint64_t Inputs = HashStream(10).u64(Pn.hash()).u64(F.hash()).hash();
  return exportPnmlPass(
      Pn->Net, Flavor == PnmlFlavor::Frustum ? "frustum" : "behavior",
      Inputs, Flavor, F.ptr().get());
}

Expected<ArtifactRef<PnmlText>>
CompilationSession::exportPnml(const ArtifactRef<ExternalNet> &Ext) {
  return exportPnmlPass(Ext->Net, Ext->NetId, Ext.hash(), PnmlFlavor::Net,
                        nullptr);
}

Expected<ArtifactRef<PnmlText>>
CompilationSession::exportPnml(const ArtifactRef<ExternalNet> &Ext,
                               const ArtifactRef<FrustumInfo> &F,
                               PnmlFlavor Flavor) {
  uint64_t Inputs = HashStream(10).u64(Ext.hash()).u64(F.hash()).hash();
  return exportPnmlPass(
      Ext->Net, Flavor == PnmlFlavor::Frustum ? "frustum" : "behavior",
      Inputs, Flavor, F.ptr().get());
}

Expected<ArtifactRef<RateReport>>
CompilationSession::computeRate(const ArtifactRef<ExternalNet> &Ext,
                                RateEngine Engine) {
  uint64_t Fp = HashStream(8).u64(static_cast<uint64_t>(Engine)).hash();
  return runPass<RateReport>(
      PassKind::Rate, Ext.hash(), Fp, [&]() -> Expected<RateReport> {
        if (Status St = requireLiveMarkedGraph(*Ext, "rate analysis"); !St)
          return St;
        return analyzeRateChecked(Ext->Net, Engine, Cancel, Faults);
      });
}

Expected<ArtifactRef<FrustumInfo>>
CompilationSession::searchFrustum(const ArtifactRef<ExternalNet> &Ext,
                                  const FrustumOptions &FO) {
  return frustumPass(Ext->Net, Ext.hash(), nullptr, FO, Ext.ptr().get());
}

Expected<CompiledLoop> CompilationSession::finish(CompiledLoop CL,
                                                  const PipelineOptions &Opts) {
  // Nothing polls after the last pass but this: a deadline that expired
  // inside it fails the compile here.
  if (!Opts.Verify) {
    if (Cancel.cancelled()) {
      Status St = Cancel.status("session", "after the last pass");
      noteCancellation(Trace, St);
      return St;
    }
    return CL;
  }
  // Same boundary checkpoint as runPass: verify is never cached but is
  // still a cancellation point and a fault site.
  if (Status St = enterPass(PassKind::Verify); !St)
    return St;
  PassStats &PS = Stats[static_cast<size_t>(PassKind::Verify)];
  Clock::time_point T0 = Clock::now();
  Status St = verifyCompiledLoop(CL, Opts, Cancel, Faults);
  PS.WallSeconds += secondsSince(T0);
  if (!St)
    return notePassFailure(Trace, PS, std::move(St));
  if (Cancel.cancelled())
    return notePassFailure(Trace, PS,
                           Cancel.status("session", "after pass 'verify'"));
  resolvePassSpan(Trace, "computed");
  CL.Verified = true;
  return CL;
}

Expected<CompiledLoop>
CompilationSession::compileFromGraph(ArtifactRef<DataflowGraph> G,
                                     const PipelineOptions &Opts) {
  if (Status St = validateOptions(Opts); !St)
    return St;

  CompiledLoop CL;

  // Frontend stage tail: optimize + unroll on the dataflow graph.
  if (Opts.Optimize || Opts.Unroll > 1) {
    Expected<ArtifactRef<TransformedGraph>> T =
        transform(G, Opts.Optimize, Opts.Unroll);
    if (!T)
      return T.status();
    CL.OptStats = (*T)->Stats;
    G = transformedGraph(*T);
  }
  CL.Graph = *G;
  if (Opts.StopAfter == PipelineStage::Frontend)
    return finish(std::move(CL), Opts);

  // Storage stage: acknowledgement arcs, optionally minimized.
  Expected<ArtifactRef<SdspArtifact>> S =
      buildSdsp(G, Opts.Capacity, Opts.OptimizeStorage);
  if (!S)
    return S.status();
  CL.S = (*S)->S;
  CL.Storage = (*S)->Storage;
  if (Opts.StopAfter == PipelineStage::Storage)
    return finish(std::move(CL), Opts);

  // Petri stage: SDSP-PN translation + analytic rate.
  Expected<ArtifactRef<SdspPn>> Pn = buildPn(*S);
  if (!Pn)
    return Pn.status();
  CL.Pn = **Pn;
  Expected<ArtifactRef<RateReport>> Rate = computeRate(*Pn, Opts.Rate);
  if (!Rate)
    return Rate.status();
  CL.Rate = **Rate;
  if (Opts.StopAfter == PipelineStage::Petri)
    return finish(std::move(CL), Opts);

  // Frustum stage: earliest-firing search on the machine model, under
  // an explicit budget (0 = the Thm 4.1.1-4.2.2 bound).
  FrustumOptions FO{Opts.FrustumBudgetSteps, Opts.Engine};
  ArtifactRef<FrustumInfo> F;
  if (Opts.ScpDepth > 0) {
    Expected<ArtifactRef<ScpPn>> Scp =
        buildScp(*Pn, Opts.ScpDepth, Opts.Pipelines);
    if (!Scp)
      return Scp.status();
    CL.Scp = **Scp;
    CL.Policy = CL.Scp->makeFifoPolicy();
    Expected<ArtifactRef<FrustumInfo>> FR = searchFrustum(*Scp, FO);
    if (!FR)
      return FR.status();
    F = *FR;
  } else {
    Expected<ArtifactRef<FrustumInfo>> FR = searchFrustum(*Pn, FO);
    if (!FR)
      return FR.status();
    F = *FR;
  }
  CL.Frustum = *F;
  CL.FrustumWithinEmpiricalBound =
      CL.Frustum->withinEmpiricalBound(CL.machineNet().numTransitions());
  // The SCP model's product is its frustum pattern (Table 2); closed-
  // form schedules are derived for the ideal machine only.
  if (Opts.StopAfter == PipelineStage::Frustum || Opts.ScpDepth > 0)
    return finish(std::move(CL), Opts);

  // Schedule stage: frustum -> software pipeline, then independent
  // replay validation.
  Expected<ArtifactRef<SoftwarePipelineSchedule>> Sched =
      deriveSchedule(*S, *Pn, F, Opts.ValidateIterations);
  if (!Sched)
    return Sched.status();
  CL.Schedule = **Sched;
  return finish(std::move(CL), Opts);
}

Expected<CompiledLoop> CompilationSession::compile(const std::string &Source,
                                                   const PipelineOptions &Opts,
                                                   DiagnosticEngine *Diags) {
  Expected<ArtifactRef<DataflowGraph>> G = lower(Source, Diags);
  if (!G)
    return G.status();
  return compileFromGraph(*G, Opts);
}

Expected<CompiledLoop> CompilationSession::compile(DataflowGraph G,
                                                   const PipelineOptions &Opts) {
  Expected<ArtifactRef<DataflowGraph>> A = importGraph(std::move(G));
  if (!A)
    return A.status();
  return compileFromGraph(*A, Opts);
}
