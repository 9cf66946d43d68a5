//===- perfbench/src/Requests.cpp - Serving one request -------------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A request is one fresh CompilationSession, as sdspd creates per
/// request.  The untraced run serves it with compile() and, on the ideal
/// machine, the codegen pass.  The traced run does the same work through
/// the session's public pass methods, one span per call, with
/// verifyCompiledLoop's checks called one by one on the same compiled
/// loop; what it measures beside the request (codec, analytic engine,
/// PNML parse and classification) runs on the capture's "arms" track
/// after the request's clock has stopped.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/ArtifactCodec.h"
#include "core/ScheduleDerivation.h"
#include "petri/Invariants.h"
#include "petri/MarkedGraph.h"
#include "petri/Pnml.h"
#include "support/Metrics.h"

#include <algorithm>
#include <chrono>

using namespace sdsp;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

SessionConfig sessionConfig(ArtifactStore *Store) {
  SessionConfig C;
  C.EnableCache = true;
  C.Store = Store;
  return C;
}

/// Runs \p Fn inside a span named \p Name.
template <typename Fn> auto inSpan(const char *Name, Fn &&F) {
  Span S(Name);
  return F();
}

Status failed(const std::string &Msg) {
  return Status::error(ErrorCode::InternalInvariant, "verify", Msg);
}

/// The refs the traced compile keeps for the codec arm, by pass.
using PassArtifacts =
    std::vector<std::tuple<PassKind, std::shared_ptr<const void>, uint64_t>>;

template <typename T>
void keep(PassArtifacts &Out, PassKind K, const ArtifactRef<T> &Ref) {
  Out.emplace_back(K, Ref.ptr(), Ref.hash());
}

/// sdspc's --emit=program path: re-derive the codegen inputs through the
/// session (cache or store hits, since compile() just ran them) and run
/// the codegen pass.  Spans are no-ops in the untraced run.
Expected<ArtifactRef<LoopProgram>> buildProgram(CompilationSession &S,
                                                const std::string &Source,
                                                const PipelineOptions &O,
                                                PassArtifacts *Keep) {
  Expected<ArtifactRef<DataflowGraph>> G =
      inSpan("lower", [&] { return S.lower(Source); });
  if (!G)
    return G.status();
  ArtifactRef<DataflowGraph> Graph = *G;
  if (O.Optimize || O.Unroll > 1) {
    Expected<ArtifactRef<TransformedGraph>> T = inSpan(
        "transform", [&] { return S.transform(Graph, O.Optimize, O.Unroll); });
    if (!T)
      return T.status();
    Graph = S.transformedGraph(*T);
  }
  Expected<ArtifactRef<SdspArtifact>> Sd = inSpan("sdsp", [&] {
    return S.buildSdsp(Graph, O.Capacity, O.OptimizeStorage);
  });
  if (!Sd)
    return Sd.status();
  Expected<ArtifactRef<SdspPn>> Pn =
      inSpan("sdsp-pn", [&] { return S.buildPn(*Sd); });
  if (!Pn)
    return Pn.status();
  Expected<ArtifactRef<FrustumInfo>> F = inSpan("frustum", [&] {
    return S.searchFrustum(*Pn, FrustumOptions{O.FrustumBudgetSteps, O.Engine});
  });
  if (!F)
    return F.status();
  Expected<ArtifactRef<SoftwarePipelineSchedule>> Sched =
      inSpan("schedule", [&] {
        return S.deriveSchedule(*Sd, *Pn, *F, O.ValidateIterations);
      });
  if (!Sched)
    return Sched.status();
  Expected<ArtifactRef<LoopProgram>> P = inSpan(
      "codegen", [&] { return S.generateProgram(*Sd, *Pn, *Sched); });
  if (P && Keep)
    keep(*Keep, PassKind::Codegen, *P);
  return P;
}

/// CompilationSession::compile, pass by pass: the same calls, the same
/// CompiledLoop assembly, each call in a span named after its pass.
Status compileTraced(CompilationSession &S, const std::string &Source,
                     const PipelineOptions &O, CompiledLoop &CL,
                     ArtifactRef<SdspPn> &PnOut, PassArtifacts &Keep,
                     LayerCounts &Counts) {
  Expected<ArtifactRef<DataflowGraph>> G =
      inSpan("lower", [&] { return S.lower(Source); });
  if (!G)
    return G.status();
  keep(Keep, PassKind::Lower, *G);
  ArtifactRef<DataflowGraph> Graph = *G;
  if (O.Optimize || O.Unroll > 1) {
    Expected<ArtifactRef<TransformedGraph>> T = inSpan(
        "transform", [&] { return S.transform(Graph, O.Optimize, O.Unroll); });
    if (!T)
      return T.status();
    keep(Keep, PassKind::Transform, *T);
    CL.OptStats = (*T)->Stats;
    Graph = S.transformedGraph(*T);
    Counts.TransformNodesOut += Graph->numNodes();
  }
  CL.Graph = *Graph;

  Expected<ArtifactRef<SdspArtifact>> Sd = inSpan("sdsp", [&] {
    return S.buildSdsp(Graph, O.Capacity, O.OptimizeStorage);
  });
  if (!Sd)
    return Sd.status();
  keep(Keep, PassKind::Sdsp, *Sd);
  CL.S = (*Sd)->S;
  CL.Storage = (*Sd)->Storage;

  Expected<ArtifactRef<SdspPn>> Pn =
      inSpan("sdsp-pn", [&] { return S.buildPn(*Sd); });
  if (!Pn)
    return Pn.status();
  keep(Keep, PassKind::SdspPn, *Pn);
  CL.Pn = **Pn;
  PnOut = *Pn;
  Counts.NetTransitions += (*Pn)->Net.numTransitions();

  Expected<ArtifactRef<RateReport>> Rate =
      inSpan("rate", [&] { return S.computeRate(*Pn, O.Rate); });
  if (!Rate)
    return Rate.status();
  keep(Keep, PassKind::Rate, *Rate);
  CL.Rate = **Rate;

  FrustumOptions FO{O.FrustumBudgetSteps, O.Engine};
  Expected<ArtifactRef<FrustumInfo>> F = Status::ok();
  if (O.ScpDepth > 0) {
    Expected<ArtifactRef<ScpPn>> Scp = inSpan(
        "scp", [&] { return S.buildScp(*Pn, O.ScpDepth, O.Pipelines); });
    if (!Scp)
      return Scp.status();
    keep(Keep, PassKind::Scp, *Scp);
    CL.Scp = **Scp;
    CL.Policy = CL.Scp->makeFifoPolicy();
    F = inSpan("frustum", [&] { return S.searchFrustum(*Scp, FO); });
  } else {
    F = inSpan("frustum", [&] { return S.searchFrustum(*Pn, FO); });
  }
  if (!F)
    return F.status();
  keep(Keep, PassKind::Frustum, *F);
  CL.Frustum = **F;
  CL.FrustumWithinEmpiricalBound =
      CL.Frustum->withinEmpiricalBound(CL.machineNet().numTransitions());
  if (O.ScpDepth > 0)
    return Status::ok();

  Expected<ArtifactRef<SoftwarePipelineSchedule>> Sched =
      inSpan("schedule", [&] {
        return S.deriveSchedule(*Sd, *Pn, *F, O.ValidateIterations);
      });
  if (!Sched)
    return Sched.status();
  keep(Keep, PassKind::Schedule, *Sched);
  CL.Schedule = **Sched;
  return Status::ok();
}

/// verifyCompiledLoop's checks, one span each, on the same loop.
Status verifyTraced(const CompiledLoop &CL, const PipelineOptions &O) {
  Span V("verify");
  const PetriNet &Net = CL.Pn->Net;
  auto Check = [&](const char *Name, bool (*Pred)(const PetriNet &)) {
    Span S(Name);
    return Pred(Net);
  };
  if (!Check("verify.marked_graph", isMarkedGraph))
    return failed("SDSP-PN is not a marked graph");
  if (!Check("verify.live", isLiveMarkedGraph))
    return failed("SDSP-PN initial marking is not live");
  if (!Check("verify.persistent", isStructurallyPersistent))
    return failed("SDSP-PN is not structurally persistent");
  if (!Check("verify.t_invariant", hasUniformTInvariant))
    return failed("all-ones firing vector is not a T-invariant");
  if (O.Capacity == 1) {
    bool SingleTokens = true;
    for (PlaceId P : Net.placeIds())
      if (Net.place(P).InitialTokens > 1) {
        SingleTokens = false;
        break;
      }
    if (SingleTokens && !Check("verify.safe", isSafeMarkedGraph))
      return failed("capacity-1 SDSP-PN is not safe");
  }
  if (std::string Err = inSpan("verify.rate_check",
                               [&] { return checkRates(CL, O); });
      !Err.empty())
    return failed(Err);
  if (CL.Schedule && CL.S) {
    std::string Err;
    uint64_t Iters = std::max<uint64_t>(2 * O.ValidateIterations, 16);
    if (!inSpan("verify.schedule_replay", [&] {
          return validateSchedule(*CL.S, *CL.Pn, *CL.Schedule, Iters, &Err);
        }))
      return failed("schedule revalidation failed: " + Err);
  }
  return Status::ok();
}

/// Pass counters of one session (the verify row excluded: the traced
/// run checks outside the session).
void countPasses(const CompilationSession &S, LayerCounts &Counts) {
  for (const PipelineTrace::Row &Row : S.trace().Passes) {
    if (Row.Pass == "verify")
      continue;
    Counts.PassHits += Row.Stats.CacheHits;
    Counts.PassComputed +=
        Row.Stats.Invocations - Row.Stats.CacheHits - Row.Stats.Failures;
    Counts.ArtifactBytes += Row.Stats.ArtifactBytes;
  }
}

/// Adds the registry's counter movement since \p Before to \p Into.
void addCounterDelta(const MetricsRegistry::Snapshot &Before,
                     std::map<std::string, uint64_t> &Into) {
  std::map<std::string, uint64_t> Old(Before.Counters.begin(),
                                      Before.Counters.end());
  for (const auto &[Name, Value] : MetricsRegistry::global().snapshot().Counters)
    Into[Name] += Value - Old[Name];
}

/// The codec arm: encode and decode every pass artifact the request
/// produced, as the disk tier would on a write and a read.
Status codecArm(const PassArtifacts &Keep) {
  for (const auto &[K, Ptr, Hash] : Keep) {
    ByteWriter W;
    inSpan("codec.encode", [&] { encodeArtifact(K, Ptr.get(), W); });
    std::string Name = std::string("codec.decode.") + passInfo(K).Id;
    std::shared_ptr<const void> Back;
    {
      Span S(Name);
      ByteReader R(W.bytes());
      Back = decodeArtifact(K, R);
    }
    if (!Back || artifactContentHash(K, Back.get()) != Hash)
      return failed(std::string("codec round trip changed a ") +
                    passInfo(K).Id + " artifact");
  }
  return Status::ok();
}

/// pnml-import's request body: import the document, then its rate and
/// frustum.  The spans are no-ops in the untraced run.
void importIn(CompilationSession &S, const std::string &Pnml, Outcome &O) {
  Expected<ArtifactRef<ExternalNet>> Net =
      inSpan("import-pnml", [&] { return S.importPnml(Pnml); });
  if (!Net) {
    O.St = Net.status();
    return;
  }
  O.Net = *Net;
  Expected<ArtifactRef<RateReport>> Rate =
      inSpan("rate", [&] { return S.computeRate(*Net); });
  if (!Rate) {
    O.St = Rate.status();
    return;
  }
  O.Rate = *Rate;
  Expected<ArtifactRef<FrustumInfo>> F =
      inSpan("frustum", [&] { return S.searchFrustum(*Net, {}); });
  if (!F)
    O.St = F.status();
  else
    O.Frustum = *F;
}

} // namespace

void perfbench::compileIn(CompilationSession &S, const Request &R,
                          bool Verify, Outcome &O) {
  PipelineOptions Opts = R.options();
  Opts.Verify = Verify;
  const std::string Source = R.source();
  Expected<CompiledLoop> CL = S.compile(Source, Opts);
  if (!CL) {
    O.St = CL.status();
    return;
  }
  O.Loop = std::move(*CL);
  if (!R.idealMachine())
    return;
  Expected<ArtifactRef<LoopProgram>> P =
      buildProgram(S, Source, Opts, nullptr);
  if (!P)
    O.St = P.status();
  else
    O.Program = *P;
}

Outcome perfbench::serveCompile(const Request &R, ArtifactStore *Store) {
  Outcome O;
  Clock::time_point T0 = Clock::now();
  {
    CompilationSession S(sessionConfig(Store));
    compileIn(S, R, /*Verify=*/true, O);
  }
  O.Seconds = secondsSince(T0);
  return O;
}

Outcome perfbench::serveImport(const std::string &Pnml) {
  Outcome O;
  Clock::time_point T0 = Clock::now();
  {
    CompilationSession S(sessionConfig(nullptr));
    importIn(S, Pnml, O);
  }
  O.Seconds = secondsSince(T0);
  return O;
}

Outcome perfbench::serveCompileTraced(const Request &R, ArtifactStore *Store,
                                      RequestCapture &Capture,
                                      const TraceArms &Arms,
                                      LayerCounts &Counts) {
  Outcome O;
  const PipelineOptions Opts = R.options();
  ArtifactRef<SdspPn> Pn;
  PassArtifacts Keep;
  setSpanTrack(&Capture.request());
  Clock::time_point T0 = Clock::now();
  {
    Span Req("request");
    CompilationSession S(sessionConfig(Store));
    CompiledLoop CL;
    const std::string Source = R.source();
    O.St = compileTraced(S, Source, Opts, CL, Pn, Keep, Counts);
    if (O.St)
      O.St = verifyTraced(CL, Opts);
    if (O.St) {
      CL.Verified = true;
      O.Loop = std::move(CL);
      if (R.idealMachine()) {
        Expected<ArtifactRef<LoopProgram>> P =
            buildProgram(S, Source, Opts, &Keep);
        if (!P)
          O.St = P.status();
        else
          O.Program = *P;
      }
    }
    countPasses(S, Counts);
  }
  O.Seconds = secondsSince(T0);

  setSpanTrack(&Capture.arms());
  MetricsRegistry::Snapshot Before = MetricsRegistry::global().snapshot();
  if (O.St && Arms.Codec)
    O.St = codecArm(Keep);
  if (O.St && Arms.Census && R.idealMachine()) {
    // A fresh session, so the census cannot be answered from the
    // request's cache.
    CompilationSession Census(sessionConfig(nullptr));
    Expected<ArtifactRef<FrustumInfo>> A = inSpan("frustum.analytic", [&] {
      return Census.searchFrustum(
          Pn, FrustumOptions{Opts.FrustumBudgetSteps, FrustumEngine::Analytic});
    });
    const FrustumInfo &Fast = *O.Loop->Frustum;
    if (!A || (*A)->StartTime != Fast.StartTime ||
        (*A)->RepeatTime != Fast.RepeatTime)
      O.St = failed("analytic engine disagrees with the fast engine");
  }
  addCounterDelta(Before, Counts.ArmCounters);
  setSpanTrack(nullptr);
  return O;
}

Outcome perfbench::serveImportTraced(const std::string &Pnml,
                                     RequestCapture &Capture,
                                     LayerCounts &Counts) {
  Outcome O;
  setSpanTrack(&Capture.request());
  Clock::time_point T0 = Clock::now();
  {
    Span Req("request");
    CompilationSession S(sessionConfig(nullptr));
    importIn(S, Pnml, O);
    countPasses(S, Counts);
  }
  O.Seconds = secondsSince(T0);
  if (O.Net)
    Counts.NetTransitions += O.Net->Net.numTransitions();

  // The parse and classification arm: the import pass's two halves,
  // timed apart on the same document.
  setSpanTrack(&Capture.arms());
  Expected<PnmlNet> Parsed =
      inSpan("pnml.parse", [&] { return parsePnml(Pnml); });
  Counts.PnmlBytes += Pnml.size();
  if (Parsed) {
    Span C("pnml.classify");
    const PetriNet &Net = Parsed->Net;
    if (isMarkedGraph(Net)) {
      if (isLiveMarkedGraph(Net))
        inSpan("pnml.classify.safe", [&] { return isSafeMarkedGraph(Net); });
      MarkedGraphView View(Net);
      (void)stronglyConnectedRoot(View);
    }
    (void)isStructurallyPersistent(Net);
    (void)hasUniformTInvariant(Net);
  } else if (O.St) {
    O.St = Parsed.status();
  }
  setSpanTrack(nullptr);
  return O;
}
