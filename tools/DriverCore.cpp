//===- tools/DriverCore.cpp - Shared sdspc/sdspd driver core ---------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "tools/DriverCore.h"

#include "codegen/CEmitter.h"
#include "codegen/Vm.h"
#include "core/BatchCompiler.h"
#include "livermore/Livermore.h"
#include "petri/BehaviorGraph.h"
#include "petri/Pnml.h"
#include "support/CancelToken.h"
#include "support/FaultInjection.h"
#include "support/Metrics.h"
#include "support/Random.h"
#include "support/Trace.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>

using namespace sdsp;
using namespace sdsp::driver;

void driver::printUsage(std::ostream &OS) {
  OS << "usage: sdspc [options] [file.loop | -k kernel | -]\n"
        "  --emit=schedule|timeline|rate|program|c|dot-dataflow|dot-pn|"
        "dot-behavior|storage|\n"
        "         pnml|pnml-behavior|pnml-frustum\n"
        "  --pnml=FILE|-  analyze an external PNML net instead of a "
        "loop\n"
        "                 (--emit=classify|rate|frustum|dot-pn|pnml|"
        "pnml-behavior|pnml-frustum)\n"
        "  --opt --capacity=N --unroll=U --scp=L --pipelines=K\n"
        "  --optimize-storage --budget=N "
        "--engine=fast|reference|analytic\n"
        "  --rate-engine=auto|howard|enumerate\n"
        "  --timings --timings-json=FILE --trace=FILE "
        "--metrics-json=FILE\n"
        "  --verify --run=N --seed=S\n"
        "  --deadline-ms=N --fault-spec=SPEC\n"
        "  --store-dir=DIR --store-bytes=N --remote=SOCKET\n"
        "  --batch=DIR --batch-kernels -j N --batch-json=FILE "
        "--retries=N --keep-going --fail-fast\n"
        "  -k <id>   use a bundled kernel (l1 l2 loop1 loop3 loop5 "
        "loop7 loop9 loop9lcd loop12)\n"
        "exit codes: 0 ok, 1 input diagnostics, 2 resource/budget, "
        "3 internal error\n";
}

namespace {

/// Strict numeric parsing: digits only, no sign, no trailing junk.
/// atoi-style silent truncation turned "--unroll=-3" into a 4-billion
/// unroll request; now it is a diagnostic.
bool parseUint64(const std::string &V, const char *Flag, uint64_t &Out,
                 std::ostream &Err) {
  if (V.empty() || V.find_first_not_of("0123456789") != std::string::npos) {
    Err << "sdspc: invalid value '" << V << "' for " << Flag
        << " (expected a non-negative integer)\n";
    return false;
  }
  errno = 0;
  Out = std::strtoull(V.c_str(), nullptr, 10);
  if (errno == ERANGE) {
    Err << "sdspc: value '" << V << "' for " << Flag
        << " is out of range\n";
    return false;
  }
  return true;
}

bool parseUint32(const std::string &V, const char *Flag, uint32_t &Out,
                 std::ostream &Err) {
  uint64_t N = 0;
  if (!parseUint64(V, Flag, N, Err))
    return false;
  if (N > UINT32_MAX) {
    Err << "sdspc: value '" << V << "' for " << Flag
        << " is out of range\n";
    return false;
  }
  Out = static_cast<uint32_t>(N);
  return true;
}

} // namespace

ParseResult driver::parseArgs(const std::vector<std::string> &Args,
                              Options &Opts, std::ostream &Out,
                              std::ostream &Err) {
  for (size_t I = 0; I < Args.size(); ++I) {
    const std::string &Arg = Args[I];
    auto Value = [&](const char *Prefix) -> const char * {
      size_t Len = std::strlen(Prefix);
      return Arg.compare(0, Len, Prefix) == 0 ? Arg.c_str() + Len
                                              : nullptr;
    };
    if (const char *V = Value("--emit=")) {
      Opts.Emit = V;
      Opts.EmitGiven = true;
    } else if (const char *V = Value("--pnml=")) {
      if (!*V) {
        Err << "sdspc: --pnml needs a file path (or - for stdin)\n";
        return ParseResult::Error;
      }
      Opts.PnmlPath = V;
    } else if (const char *V = Value("--capacity=")) {
      if (!parseUint32(V, "--capacity", Opts.Pipe.Capacity, Err))
        return ParseResult::Error;
    } else if (const char *V = Value("--unroll=")) {
      if (!parseUint32(V, "--unroll", Opts.Pipe.Unroll, Err))
        return ParseResult::Error;
    } else if (const char *V = Value("--scp=")) {
      if (!parseUint32(V, "--scp", Opts.Pipe.ScpDepth, Err))
        return ParseResult::Error;
      Opts.ScpGiven = true;
    } else if (const char *V = Value("--pipelines=")) {
      if (!parseUint32(V, "--pipelines", Opts.Pipe.Pipelines, Err))
        return ParseResult::Error;
    } else if (const char *V = Value("--budget=")) {
      if (!parseUint64(V, "--budget", Opts.Pipe.FrustumBudgetSteps, Err))
        return ParseResult::Error;
      if (Opts.Pipe.FrustumBudgetSteps == 0) {
        // 0 is the internal "use the theory bound" sentinel, so an
        // explicit --budget=0 would silently mean "no budget" — the
        // opposite of what was asked.  Reject it at the boundary.
        Err << "sdspc: invalid value '0' for --budget (must be at least "
               "1 step; omit the flag for the theory bound)\n";
        return ParseResult::Error;
      }
    } else if (const char *V = Value("--engine=")) {
      std::string E = V;
      if (E == "fast")
        Opts.Pipe.Engine = FrustumEngine::Fast;
      else if (E == "reference")
        Opts.Pipe.Engine = FrustumEngine::Reference;
      else if (E == "analytic")
        Opts.Pipe.Engine = FrustumEngine::Analytic;
      else {
        Err << "sdspc: invalid value '" << E
            << "' for --engine (expected fast, reference, or analytic)\n";
        return ParseResult::Error;
      }
    } else if (const char *V = Value("--rate-engine=")) {
      std::string E = V;
      if (E == "auto")
        Opts.Pipe.Rate = RateEngine::Auto;
      else if (E == "howard")
        Opts.Pipe.Rate = RateEngine::Howard;
      else if (E == "enumerate")
        Opts.Pipe.Rate = RateEngine::Enumerate;
      else {
        Err << "sdspc: invalid value '" << E
            << "' for --rate-engine (expected auto, howard or "
               "enumerate)\n";
        return ParseResult::Error;
      }
    } else if (Arg == "--timings") {
      Opts.Timings = true;
    } else if (const char *V = Value("--timings-json=")) {
      Opts.TimingsJsonPath = V;
    } else if (const char *V = Value("--trace=")) {
      Opts.TracePath = V;
    } else if (const char *V = Value("--metrics-json=")) {
      Opts.MetricsJsonPath = V;
    } else if (const char *V = Value("--batch=")) {
      Opts.BatchDir = V;
    } else if (Arg == "--batch-kernels") {
      Opts.BatchKernels = true;
    } else if (const char *V = Value("--batch-json=")) {
      Opts.BatchJsonPath = V;
    } else if (const char *V = Value("--deadline-ms=")) {
      if (!parseUint64(V, "--deadline-ms", Opts.DeadlineMillis, Err))
        return ParseResult::Error;
      Opts.DeadlineGiven = true;
    } else if (const char *V = Value("--fault-spec=")) {
      Opts.FaultSpec = V;
    } else if (const char *V = Value("--retries=")) {
      if (!parseUint32(V, "--retries", Opts.Retries, Err))
        return ParseResult::Error;
    } else if (Arg == "--keep-going") {
      Opts.KeepGoing = true;
    } else if (Arg == "--fail-fast") {
      Opts.KeepGoing = false;
    } else if (const char *V = Value("--store-dir=")) {
      Opts.StoreDir = V;
    } else if (const char *V = Value("--store-bytes=")) {
      if (!parseUint64(V, "--store-bytes", Opts.StoreBytes, Err))
        return ParseResult::Error;
    } else if (const char *V = Value("--remote=")) {
      Opts.RemoteSocket = V;
    } else if (const char *V = Value("--jobs=")) {
      if (!parseUint32(V, "--jobs", Opts.Jobs, Err))
        return ParseResult::Error;
    } else if (Arg == "-j" || (Arg.size() > 2 && Arg.compare(0, 2, "-j") == 0)) {
      // Both -j8 and -j 8 (make style).
      std::string V;
      if (Arg == "-j") {
        if (++I >= Args.size()) {
          Err << "sdspc: -j needs a thread count\n";
          return ParseResult::Error;
        }
        V = Args[I];
      } else {
        V = Arg.substr(2);
      }
      if (!parseUint32(V, "-j", Opts.Jobs, Err))
        return ParseResult::Error;
    } else if (Arg == "--opt") {
      Opts.Pipe.Optimize = true;
    } else if (Arg == "--optimize-storage") {
      Opts.Pipe.OptimizeStorage = true;
    } else if (Arg == "--verify") {
      Opts.Pipe.Verify = true;
    } else if (const char *V = Value("--run=")) {
      if (!parseUint64(V, "--run", Opts.RunIterations, Err))
        return ParseResult::Error;
    } else if (const char *V = Value("--seed=")) {
      if (!parseUint64(V, "--seed", Opts.Seed, Err))
        return ParseResult::Error;
    } else if (Arg == "-k") {
      if (++I >= Args.size()) {
        Err << "sdspc: -k needs a kernel id\n";
        return ParseResult::Error;
      }
      Opts.KernelId = Args[I];
    } else if (Arg == "--help" || Arg == "-h") {
      printUsage(Out);
      return ParseResult::Help;
    } else if (!Arg.empty() && Arg[0] == '-' && Arg != "-") {
      Err << "sdspc: unknown option '" << Arg << "'\n";
      return ParseResult::Error;
    } else {
      Opts.InputPath = Arg;
    }
  }
  return ParseResult::Ok;
}

bool driver::makeStoreStack(const Options &Opts, StoreStack &Stack,
                            std::ostream &Err) {
  std::string Dir = Opts.StoreDir;
  if (Dir.empty())
    if (const char *E = std::getenv("SDSP_STORE_DIR"); E && *E)
      Dir = E;
  if (Dir.empty())
    return true; // No persistent store configured.
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  if (EC) {
    Err << "sdspc: cannot create store directory '" << Dir
        << "': " << EC.message() << "\n";
    return false;
  }
  Stack.Disk = std::make_unique<DiskStore>(
      DiskStore::Config{Dir, Opts.StoreBytes});
  Stack.Memory = std::make_unique<MemoryStore>();
  Stack.Tiered = std::make_unique<TieredStore>(*Stack.Memory, *Stack.Disk);
  return true;
}

namespace {

std::optional<std::string> readSource(const Options &Opts, const Env &E,
                                      std::ostream &Err) {
  if (!Opts.KernelId.empty()) {
    const LivermoreKernel *K = findKernel(Opts.KernelId);
    if (!K) {
      Err << "sdspc: unknown kernel '" << Opts.KernelId << "'\n";
      return std::nullopt;
    }
    return K->Source;
  }
  if (Opts.InputPath.empty() || Opts.InputPath == "-") {
    std::ostringstream SS;
    if (E.In)
      SS << E.In->rdbuf();
    return SS.str();
  }
  std::ifstream File(Opts.InputPath);
  if (!File) {
    Err << "sdspc: cannot open '" << Opts.InputPath << "'\n";
    return std::nullopt;
  }
  std::ostringstream SS;
  SS << File.rdbuf();
  return SS.str();
}

/// Reports \p St (frontend failures print their diagnostics verbatim)
/// and returns the contract exit code plus the error class the batch
/// retry policy folds on.
RenderResult reportFailure(const Status &St, const DiagnosticEngine &Diags,
                           std::ostream &Err) {
  if (St.stage() == "frontend" && Diags.hasErrors())
    Diags.print(Err);
  else
    Err << "sdspc: " << St.str() << "\n";
  return {exitCodeFor(St), St.code()};
}

/// The fault schedule for one run: --fault-spec parses into a
/// run-owned schedule (so concurrent daemon requests never race on the
/// process-wide slot), else the SDSP_FAULT_SPEC environment variable
/// via the process-wide schedule.
struct ResolvedFaults {
  const FaultSchedule *Sched = nullptr;
  FaultSchedule Owned;
};

bool resolveFaultSchedule(const Options &Opts, ResolvedFaults &Out,
                          std::ostream &Err) {
  if (!Opts.FaultSpec.empty()) {
    Expected<FaultSchedule> S = FaultSchedule::parse(Opts.FaultSpec);
    if (!S) {
      Err << "sdspc: " << S.status().str() << "\n";
      return false;
    }
    Out.Owned = std::move(*S);
    Out.Sched = &Out.Owned;
    return true;
  }
  Expected<const FaultSchedule *> P = FaultSchedule::process();
  if (!P) {
    Err << "sdspc: " << P.status().str() << "\n";
    return false;
  }
  Out.Sched = *P;
  return true;
}

/// The SDSP, SDSP-PN and (when asked for) frustum refs of one
/// ideal-machine compile.
struct PassRefs {
  ArtifactRef<SdspArtifact> S;
  ArtifactRef<SdspPn> Pn;
  ArtifactRef<FrustumInfo> F;
};

/// Re-derives lower -> transform -> sdsp -> sdsp-pn, then frustum when
/// \p WithFrustum, through the session: all cache hits when the cache
/// is on, since compile() already ran them.
Expected<PassRefs> walkPasses(CompilationSession &Session,
                              const std::string &Source,
                              const PipelineOptions &Pipe, bool WithFrustum) {
  Expected<ArtifactRef<DataflowGraph>> G = Session.lower(Source);
  if (!G)
    return G.status();
  ArtifactRef<DataflowGraph> Graph = *G;
  if (Pipe.Optimize || Pipe.Unroll > 1) {
    Expected<ArtifactRef<TransformedGraph>> T =
        Session.transform(Graph, Pipe.Optimize, Pipe.Unroll);
    if (!T)
      return T.status();
    Graph = Session.transformedGraph(*T);
  }
  Expected<ArtifactRef<SdspArtifact>> S =
      Session.buildSdsp(Graph, Pipe.Capacity, Pipe.OptimizeStorage);
  if (!S)
    return S.status();
  Expected<ArtifactRef<SdspPn>> Pn = Session.buildPn(*S);
  if (!Pn)
    return Pn.status();
  PassRefs Refs{*S, *Pn, {}};
  if (WithFrustum) {
    Expected<ArtifactRef<FrustumInfo>> F = Session.searchFrustum(
        *Pn, FrustumOptions{Pipe.FrustumBudgetSteps, Pipe.Engine});
    if (!F)
      return F.status();
    Refs.F = *F;
  }
  return Refs;
}

/// Runs the codegen pass over the walked refs (ideal machine only; the
/// SCP path never reaches codegen).
Expected<ArtifactRef<LoopProgram>>
buildProgram(CompilationSession &Session, const std::string &Source,
             const PipelineOptions &Pipe) {
  Expected<PassRefs> R = walkPasses(Session, Source, Pipe, true);
  if (!R)
    return R.status();
  Expected<ArtifactRef<SoftwarePipelineSchedule>> Sched =
      Session.deriveSchedule(R->S, R->Pn, R->F, Pipe.ValidateIterations);
  if (!Sched)
    return Sched.status();
  return Session.generateProgram(R->S, R->Pn, *Sched);
}

/// Runs the export-pnml pass for \p Flavor over the walked refs.  The
/// behavior/frustum flavors also walk the frustum; both are
/// ideal-machine only (the caller rejects --scp).
Expected<ArtifactRef<PnmlText>>
buildPnmlExport(CompilationSession &Session, const std::string &Source,
                const PipelineOptions &Pipe, PnmlFlavor Flavor) {
  Expected<PassRefs> R =
      walkPasses(Session, Source, Pipe, Flavor != PnmlFlavor::Net);
  if (!R)
    return R.status();
  if (Flavor == PnmlFlavor::Net)
    return Session.exportPnml(R->Pn);
  return Session.exportPnml(R->Pn, R->F, Flavor);
}

/// Compiles \p Source through \p Session and emits the requested
/// artifact to \p Out (diagnostics and notes to \p Err).  Single runs
/// pass the caller's stdout/stderr; batch jobs pass per-job string
/// streams so results can be replayed in input order whatever thread
/// ran them.
RenderResult compileAndEmit(CompilationSession &Session, const Options &Opts,
                            const std::string &SourceText, std::ostream &Out,
                            std::ostream &Err) {
  const std::string *Source = &SourceText;

  // An explicit --scp=0 is a machine that can never issue, not a
  // request for the ideal machine.
  if (Opts.ScpGiven && Opts.Pipe.ScpDepth == 0)
    return reportFailure(
        Status::error(ErrorCode::ResourceConflict, "scp",
                      "a zero-stage pipeline cannot issue instructions "
                      "(--scp needs a depth >= 1)"),
        DiagnosticEngine(), Err);

  PipelineOptions Pipe = Opts.Pipe;
  bool NeedsRun = Opts.RunIterations > 0;
  if (Opts.Emit == "dot-dataflow")
    Pipe.StopAfter = PipelineStage::Frontend;
  else if (Opts.Emit == "storage")
    Pipe.StopAfter = PipelineStage::Storage;
  else if (Opts.Emit == "dot-pn" || Opts.Emit == "rate" ||
           Opts.Emit == "pnml")
    Pipe.StopAfter = PipelineStage::Petri;
  else if (Opts.Emit == "dot-behavior" || Opts.Emit == "pnml-behavior" ||
           Opts.Emit == "pnml-frustum")
    Pipe.StopAfter = PipelineStage::Frustum;
  else if (Opts.Emit == "schedule" || Opts.Emit == "timeline" ||
           Opts.Emit == "c" || Opts.Emit == "program")
    Pipe.StopAfter = PipelineStage::Schedule;
  else if (NeedsRun)
    Pipe.StopAfter = PipelineStage::Schedule;
  else {
    Err << "sdspc: unknown --emit mode '" << Opts.Emit << "'\n";
    return {1, ErrorCode::InvalidInput};
  }
  // --verify's headline check is frustum rate vs analytic rate, so it
  // needs the full pipeline even when the emit mode stops early.
  if (Pipe.Verify)
    Pipe.StopAfter = PipelineStage::Schedule;

  DiagnosticEngine Diags;
  Expected<CompiledLoop> Result = Session.compile(*Source, Pipe, &Diags);
  if (!Result)
    return reportFailure(Result.status(), Diags, Err);
  CompiledLoop &CL = *Result;

  if (Pipe.Optimize && CL.OptStats.changedAnything())
    Err << "opt: folded " << CL.OptStats.ConstantsFolded
        << ", merged " << CL.OptStats.SubexpressionsMerged
        << ", removed " << CL.OptStats.DeadNodesRemoved << " (nodes "
        << CL.OptStats.NodesBefore << " -> "
        << CL.OptStats.NodesAfter << ")\n";
  if (CL.Storage)
    Err << "storage: " << CL.Storage->Before << " -> "
        << CL.Storage->After << " locations (rate "
        << CL.Storage->OptimalRate << ")\n";
  if (CL.Verified) {
    Err << "verify: ok";
    if (CL.Frustum && CL.Rate)
      Err << " (rate " << CL.Rate->OptimalRate << ", frustum within "
          << (CL.FrustumWithinEmpiricalBound ? "empirical 2n"
                                             : "theory")
          << " bound)";
    Err << "\n";
  }

  if (Opts.Emit == "dot-dataflow") {
    CL.Graph.printDot(Out, "dataflow");
    return {0, ErrorCode::Ok};
  }

  if (Opts.Emit == "storage") {
    const Sdsp &S = *CL.S;
    Out << "loop body: " << S.loopBodySize()
        << " operations\nstorage: " << S.storageLocations()
        << " locations\n";
    const DataflowGraph &Graph = S.graph();
    for (Sdsp::AckView A : S.acks()) {
      Out << "  ack " << Graph.node(Graph.arc(A.Path.back()).To).Name
          << " -> "
          << Graph.node(Graph.arc(A.Path.front()).From).Name
          << " covering";
      for (ArcId Arc : A.Path)
        Out << " [" << Graph.node(Graph.arc(Arc).From).Name << "->"
            << Graph.node(Graph.arc(Arc).To).Name << "]";
      Out << " slots=" << A.Slots << "\n";
    }
    return {0, ErrorCode::Ok};
  }
  if (Opts.Emit == "dot-pn") {
    CL.Pn->Net.printDot(Out, "sdsp_pn");
    return {0, ErrorCode::Ok};
  }
  if (Opts.Emit == "rate") {
    const RateReport &R = *CL.Rate;
    Out << "operations:        " << CL.Pn->Net.numTransitions()
        << "\n"
        << "cycle time alpha*: " << R.CycleTime << "\n"
        << "optimal rate:      " << R.OptimalRate
        << " iterations/cycle\n"
        << "critical ops:      ";
    for (TransitionId T : R.CriticalTransitions)
      Out << CL.Pn->Net.transition(T).Name << " ";
    Out << "\ncritical cycles:   " << R.NumCriticalCycles << "\n";
    return {0, ErrorCode::Ok};
  }
  if (Opts.Emit == "pnml") {
    Expected<ArtifactRef<PnmlText>> P =
        buildPnmlExport(Session, *Source, Pipe, PnmlFlavor::Net);
    if (!P)
      return reportFailure(P.status(), Diags, Err);
    Out << (*P)->Text;
    return {0, ErrorCode::Ok};
  }

  const FrustumInfo &F = *CL.Frustum;

  if (Opts.Emit == "pnml-behavior" || Opts.Emit == "pnml-frustum") {
    if (CL.Scp) {
      Err << "sdspc: --emit=" << Opts.Emit
          << " renders the ideal-machine execution only (drop --scp)\n";
      return {1, ErrorCode::InvalidInput};
    }
    Expected<ArtifactRef<PnmlText>> P = buildPnmlExport(
        Session, *Source, Pipe,
        Opts.Emit == "pnml-behavior" ? PnmlFlavor::Behavior
                                     : PnmlFlavor::Frustum);
    if (!P)
      return reportFailure(P.status(), Diags, Err);
    Out << (*P)->Text;
    return {0, ErrorCode::Ok};
  }

  if (Opts.Emit == "dot-behavior") {
    // The frustum search recorded every instant before the repeat.
    BehaviorGraph BG(CL.machineNet());
    for (StepView Rec : F.Trace)
      BG.recordStep(Rec);
    BG.printDot(Out, "behavior", F.StartTime, F.RepeatTime);
    return {0, ErrorCode::Ok};
  }

  if (CL.Scp) {
    // Schedules on the SCP model: report the measured pattern.
    const ScpPn &Scp = *CL.Scp;
    Out << "SCP machine, l = " << Scp.PipelineDepth << ": frustum ["
        << F.StartTime << ", " << F.RepeatTime << "), rate "
        << F.computationRate(Scp.SdspTransitions.front())
        << ", usage " << processorUsage(Scp, F) << "\n";
    if (Opts.Emit != "schedule")
      Err << "sdspc: --scp supports --emit=schedule only\n";
    std::vector<std::string> Names;
    for (TransitionId T : Scp.Net.transitionIds())
      Names.emplace_back(Scp.Net.transition(T).Name);
    // Print the issue slots of SDSP transitions per kernel cycle.  The
    // trace's rows are in time order, so one pass over them serves the
    // whole window.
    size_t Row = 0;
    for (TimeStep T = F.StartTime; T < F.RepeatTime; ++T) {
      Out << "  t+" << (T - F.StartTime) << ":";
      for (; Row < F.Trace.size() && F.Trace[Row].Time <= T; ++Row) {
        StepView Rec = F.Trace[Row];
        if (Rec.Time == T)
          for (TransitionId Fired : Rec.Fired)
            if (Scp.IsSdspTransition[Fired.index()])
              Out << " " << Names[Fired.index()];
      }
      Out << "\n";
    }
    return {0, ErrorCode::Ok};
  }

  const SdspPn &Pn = *CL.Pn;
  const SoftwarePipelineSchedule &Sched = *CL.Schedule;

  // One codegen-pass run covers --emit=c/program and --run (the cache
  // also dedupes across them when both are requested).
  ArtifactRef<LoopProgram> Program;
  if (Opts.Emit == "c" || Opts.Emit == "program" || NeedsRun) {
    Expected<ArtifactRef<LoopProgram>> P =
        buildProgram(Session, *Source, Pipe);
    if (!P)
      return reportFailure(P.status(), Diags, Err);
    Program = *P;
  }

  if (Opts.Emit == "schedule" || Opts.Emit == "timeline") {
    std::vector<std::string> Names;
    std::vector<uint32_t> Taus;
    for (TransitionId T : Pn.Net.transitionIds()) {
      Names.emplace_back(Pn.Net.transition(T).Name);
      Taus.push_back(Pn.Net.transition(T).ExecTime);
    }
    Sched.print(Out, Names);
    if (Opts.Emit == "timeline") {
      Out << "\n";
      Sched.printTimeline(Out, Names, Taus,
                          Sched.prologueEnd() + 4 * Sched.kernelLength());
    }
  } else if (Opts.Emit == "c") {
    CEmission E = emitC(*Program, "sdsp_kernel");
    Out << E.Source;
  } else if (Opts.Emit == "program") {
    Program->print(Out);
  }

  if (NeedsRun) {
    // Random input streams, deterministic per seed.
    Rng R(Opts.Seed);
    StreamMap In;
    for (NodeId N : CL.Graph.nodeIds())
      if (CL.Graph.node(N).Kind == OpKind::Input) {
        std::vector<double> V(Opts.RunIterations);
        for (double &X : V)
          X = R.uniform() * 2.0 - 1.0;
        In[std::string(CL.Graph.node(N).Name)] = V;
      }
    Expected<VmResult> Result =
        executeLoopProgramChecked(*Program, In, Opts.RunIterations);
    if (!Result)
      return reportFailure(Result.status(), Diags, Err);
    Out << "executed " << Opts.RunIterations << " iterations in "
        << Result->Cycles << " cycles\n";
    for (const auto &[Name, Values] : Result->Outputs) {
      Out << Name << ":";
      for (double V : Values)
        Out << " " << V;
      Out << "\n";
    }
  }
  return {0, ErrorCode::Ok};
}

/// Routes a file output: captured into Env.Files for remote runs,
/// written to the filesystem otherwise.  Returns false (with the
/// diagnostic on \p Err) when a real file cannot be opened.
bool writeOutput(const Env &E, const std::string &Path,
                 const std::function<void(std::ostream &)> &Emit,
                 std::ostream &Err) {
  if (E.Files) {
    std::ostringstream SS;
    Emit(SS);
    (*E.Files)[Path] = SS.str();
    return true;
  }
  std::ofstream File(Path);
  if (!File) {
    Err << "sdspc: cannot write '" << Path << "'\n";
    return false;
  }
  Emit(File);
  return true;
}

/// Flushes whatever store tiers \p E carries before a metrics report.
void flushEnvStoreMetrics(const Env &E) {
  if (E.Memory)
    driver::flushMemoryStoreMetrics(*E.Memory);
  if (E.Disk)
    driver::flushDiskStoreMetrics(*E.Disk);
}

} // namespace

/// Shared-cache counters land in the global registry as the aggregate
/// cache.* series, plus cache.shardNN.* for shards that saw any
/// traffic.  Shard assignment is a pure function of the key hash, so
/// every one of these is thread-count-invariant.
void driver::flushMemoryStoreMetrics(const MemoryStore &Cache) {
  MetricsRegistry &MR = MetricsRegistry::global();
  MemoryStore::CounterSnapshot C = Cache.counters();
  MR.add("cache.hits", C.Hits);
  MR.add("cache.misses", C.Misses);
  MR.add("cache.inserts", C.Inserts);
  MR.add("cache.evictions", C.Evictions);
  MR.add("cache.abandons", C.Abandons);
  MR.add("cache.entries", C.Entries);
  MR.add("cache.bytes", C.Bytes);
  std::vector<MemoryStore::CounterSnapshot> Shards = Cache.shardCounters();
  for (size_t I = 0; I < Shards.size(); ++I) {
    const MemoryStore::CounterSnapshot &S = Shards[I];
    if (S.Hits + S.Misses + S.Inserts + S.Evictions + S.Abandons == 0)
      continue;
    char Prefix[48];
    std::snprintf(Prefix, sizeof(Prefix), "cache.shard%02zu.", I);
    MR.add(std::string(Prefix) + "hits", S.Hits);
    MR.add(std::string(Prefix) + "misses", S.Misses);
    MR.add(std::string(Prefix) + "inserts", S.Inserts);
    MR.add(std::string(Prefix) + "entries", S.Entries);
    MR.add(std::string(Prefix) + "bytes", S.Bytes);
  }
}

namespace {

/// The shared tail of a single (or PNML) run: the --timings table plus
/// the --timings-json / --trace / --metrics-json file outputs.  Returns
/// \p Code, bumped to 1 when an output file cannot be written and the
/// run itself succeeded.
int finishRunOutputs(const Options &Opts, const Env &E,
                     CompilationSession &Session, TraceCollector &Collector,
                     int Code, std::ostream &Err) {
  // Timings are reported on failure too: the table shows how far the
  // pipeline got (failed passes count under "fail", never cached).
  if (Opts.Timings)
    Session.trace().printTable(Err);
  if (!Opts.TimingsJsonPath.empty()) {
    PipelineTrace T = Session.trace();
    if (!writeOutput(
            E, Opts.TimingsJsonPath,
            [&](std::ostream &OS) { T.writeJson(OS); }, Err))
      Code = Code ? Code : 1;
  }
  if (!Opts.TracePath.empty())
    if (!writeOutput(
            E, Opts.TracePath,
            [&](std::ostream &OS) { Collector.writeJson(OS); }, Err))
      Code = Code ? Code : 1;
  if (!Opts.MetricsJsonPath.empty()) {
    flushEnvStoreMetrics(E);
    if (!writeOutput(
            E, Opts.MetricsJsonPath,
            [](std::ostream &OS) {
              MetricsRegistry::writeJson(
                  MetricsRegistry::global().snapshot(), OS);
            },
            Err))
      Code = Code ? Code : 1;
  }
  return Code;
}

int runSingle(const Options &Opts, const Env &E, std::ostream &Out,
              std::ostream &Err) {
  std::optional<std::string> Source = readSource(Opts, E, Err);
  if (!Source)
    return 1;
  ResolvedFaults Faults;
  if (!resolveFaultSchedule(Opts, Faults, Err))
    return 1;
  TraceCollector Collector;
  SessionConfig Cfg;
  Cfg.Store = E.Store;
  std::string Scope = !Opts.KernelId.empty() ? "kernel:" + Opts.KernelId
                      : !Opts.InputPath.empty() ? Opts.InputPath
                                                : "stdin";
  if (!Opts.TracePath.empty())
    Cfg.Trace = &Collector.track(Scope);
  // The whole single run is one fault scope and one deadline window,
  // mirroring a batch job.
  FaultContext FC(Faults.Sched, Scope, Cfg.Trace);
  if (Faults.Sched && !Faults.Sched->empty())
    Cfg.Faults = &FC;
  if (Opts.DeadlineGiven)
    Cfg.Cancel = CancelSource::withDeadline(
                     std::chrono::milliseconds(Opts.DeadlineMillis))
                     .token();
  CompilationSession Session(Cfg);
  int Code = compileAndEmit(Session, Opts, *Source, Out, Err).ExitCode;
  return finishRunOutputs(Opts, E, Session, Collector, Code, Err);
}

//===----------------------------------------------------------------------===//
// External-net (PNML) mode
//===----------------------------------------------------------------------===//

const char *yesNo(bool B) { return B ? "yes" : "no"; }

/// --verify for an external net: the classification's internal
/// implications, the canonical export's round-trip byte-stability, and
/// (for live marked graphs) the frustum's uniform transition count and
/// its measured rate against the analytic optimal rate (Thm A.5.3 and
/// Section 3.4).  Any mismatch is an InternalInvariant (exit 3) — these
/// are theorems, not input properties.
RenderResult verifyExternalNet(CompilationSession &Session,
                               const ArtifactRef<ExternalNet> &Ext,
                               const FrustumOptions &FO, RateEngine Engine,
                               std::ostream &Err) {
  auto Broken = [&](const std::string &What) {
    Status St = Status::error(ErrorCode::InternalInvariant, "pnml-verify",
                              What + " (net '" + Ext->NetId + "')");
    Err << "sdspc: " << St.str() << "\n";
    return RenderResult{exitCodeFor(St), St.code()};
  };

  const NetClassification &C = Ext->Class;
  if ((C.Live || C.Safe || C.StronglyConnected) && !C.MarkedGraph)
    return Broken("liveness/safeness claimed for a non-marked-graph");
  if (C.Safe && !C.Live)
    return Broken("safeness claimed for a non-live net");
  if (C.MarkedGraph && !C.Consistent)
    return Broken("marked graph without a uniform T-invariant");

  // Round-trip stability: the canonical export must re-import to a net
  // that exports to the same bytes (the CI gate's in-process leg).  The
  // re-import runs under the session's deadline.  Its element bound is
  // sized from the export, text this run wrote itself: the canonical
  // form names every node, so a net accepted near the reader's default
  // bound exports to more elements than that bound.
  Expected<ArtifactRef<PnmlText>> P = Session.exportPnml(Ext);
  if (!P)
    return {exitCodeFor(P.status()), P.status().code()};
  auto Stopped = [&](const Status &St) {
    Err << "sdspc: " << St.str() << "\n";
    return RenderResult{exitCodeFor(St), St.code()};
  };
  const CancelToken &Cancel = Session.cancelToken();
  if (FaultContext *Faults = Session.faults())
    if (Status St = Faults->checkpoint("pnml:verify"); !St)
      return Stopped(St);
  const std::string &Text = (*P)->Text;
  size_t Elements = static_cast<size_t>(
      std::count(Text.begin(), Text.end(), '<'));
  Expected<PnmlNet> Again =
      parsePnml(Text, Cancel, std::max(PnmlMaxElements, Elements));
  if (!Again) {
    ErrorCode Code = Again.status().code();
    if (Code == ErrorCode::Cancelled || Code == ErrorCode::DeadlineExceeded)
      return Stopped(Again.status());
    return Broken("canonical export does not re-import: " +
                  Again.status().str());
  }
  // The re-import exports to the same bytes exactly when it agrees with
  // the imported net on every field the writer prints.
  if (!samePnmlExport(Again->Net, Again->NetId, Ext->Net, Ext->NetId))
    return Broken("canonical export is not round-trip byte-stable");
  if (Cancel.cancelled())
    return Stopped(Cancel.status("pnml-verify", "after the round trip"));

  if (!(C.MarkedGraph && C.Live)) {
    Err << "verify: ok (classification consistent, round-trip stable)\n";
    return {0, ErrorCode::Ok};
  }

  Expected<ArtifactRef<RateReport>> R = Session.computeRate(Ext, Engine);
  if (!R)
    return {exitCodeFor(R.status()), R.status().code()};
  Expected<ArtifactRef<FrustumInfo>> F = Session.searchFrustum(Ext, FO);
  if (!F)
    return {exitCodeFor(F.status()), F.status().code()};
  if (!(*F)->hasUniformCount(Ext->Net.numTransitions()))
    return Broken("frustum transition counts are not uniform");
  if ((*F)->computationRate(TransitionId(0u)) != (*R)->OptimalRate)
    return Broken("frustum rate disagrees with the analytic optimal rate");
  Err << "verify: ok (rate " << (*R)->OptimalRate
      << ", frustum uniform, round-trip stable)\n";
  return {0, ErrorCode::Ok};
}

/// Emits one external net per the --pnml emit grammar (classify when
/// --emit is absent).  Import, classification, rate, frustum, and
/// export all run as session passes, so caching / tracing / fault
/// injection / metrics behave exactly as in loop mode.
RenderResult emitExternalNet(CompilationSession &Session, const Options &Opts,
                             const std::string &Text, std::ostream &Out,
                             std::ostream &Err) {
  std::string Emit = Opts.EmitGiven ? Opts.Emit : "classify";
  if (Emit != "classify" && Emit != "rate" && Emit != "frustum" &&
      Emit != "dot-pn" && Emit != "pnml" && Emit != "pnml-behavior" &&
      Emit != "pnml-frustum") {
    Err << "sdspc: unknown --emit mode '" << Emit
        << "' for --pnml (classify, rate, frustum, dot-pn, pnml, "
           "pnml-behavior, pnml-frustum)\n";
    return {1, ErrorCode::InvalidInput};
  }

  Expected<ArtifactRef<ExternalNet>> Imported = Session.importPnml(Text);
  if (!Imported)
    return reportFailure(Imported.status(), DiagnosticEngine(), Err);
  ArtifactRef<ExternalNet> Ext = *Imported;
  const PetriNet &Net = Ext->Net;
  const NetClassification &C = Ext->Class;
  FrustumOptions FO{Opts.Pipe.FrustumBudgetSteps, Opts.Pipe.Engine};

  RenderResult RR{0, ErrorCode::Ok};
  if (Emit == "classify") {
    size_t Arcs = 0;
    for (TransitionId T : Net.transitionIds())
      Arcs += Net.transition(T).InputPlaces.size() +
              Net.transition(T).OutputPlaces.size();
    Out << "net: " << Ext->NetId << " (" << Net.numPlaces() << " places, "
        << Net.numTransitions() << " transitions, " << Arcs << " arcs)\n"
        << "marked graph:       " << yesNo(C.MarkedGraph) << "\n"
        << "live:               "
        << (C.MarkedGraph ? yesNo(C.Live) : "n/a") << "\n"
        << "safe:               "
        << (C.MarkedGraph && C.Live ? yesNo(C.Safe) : "n/a") << "\n"
        << "strongly connected: "
        << (C.MarkedGraph ? yesNo(C.StronglyConnected) : "n/a") << "\n"
        << "persistent:         " << yesNo(C.Persistent) << "\n"
        << "consistent:         " << yesNo(C.Consistent) << "\n";
    if (C.MarkedGraph && C.Live) {
      Expected<ArtifactRef<RateReport>> R =
          Session.computeRate(Ext, Opts.Pipe.Rate);
      if (!R)
        return reportFailure(R.status(), DiagnosticEngine(), Err);
      Out << "cycle time alpha*:  " << (*R)->CycleTime << "\n"
          << "optimal rate:       " << (*R)->OptimalRate
          << " iterations/cycle\n";
      if (C.Safe)
        Out << "place bound:        1 token (safe)\n";
    }
  } else if (Emit == "rate") {
    Expected<ArtifactRef<RateReport>> R =
        Session.computeRate(Ext, Opts.Pipe.Rate);
    if (!R)
      return reportFailure(R.status(), DiagnosticEngine(), Err);
    Out << "operations:        " << Net.numTransitions() << "\n"
        << "cycle time alpha*: " << (*R)->CycleTime << "\n"
        << "optimal rate:      " << (*R)->OptimalRate
        << " iterations/cycle\n"
        << "critical ops:      ";
    for (TransitionId T : (*R)->CriticalTransitions)
      Out << Net.transition(T).Name << " ";
    Out << "\ncritical cycles:   " << (*R)->NumCriticalCycles << "\n";
  } else if (Emit == "frustum") {
    Expected<ArtifactRef<FrustumInfo>> F = Session.searchFrustum(Ext, FO);
    if (!F)
      return reportFailure(F.status(), DiagnosticEngine(), Err);
    const FrustumInfo &Frustum = **F;
    Out << "frustum: [" << Frustum.StartTime << ", " << Frustum.RepeatTime
        << "), length " << Frustum.length() << "\n";
    for (TransitionId T : Net.transitionIds())
      Out << "  " << Net.transition(T).Name << ": "
          << Frustum.transitionCount(T) << " firings, rate "
          << Frustum.computationRate(T) << "\n";
  } else if (Emit == "dot-pn") {
    Net.printDot(Out, "pnml_net");
  } else if (Emit == "pnml") {
    Expected<ArtifactRef<PnmlText>> P = Session.exportPnml(Ext);
    if (!P)
      return reportFailure(P.status(), DiagnosticEngine(), Err);
    Out << (*P)->Text;
  } else { // pnml-behavior | pnml-frustum
    Expected<ArtifactRef<FrustumInfo>> F = Session.searchFrustum(Ext, FO);
    if (!F)
      return reportFailure(F.status(), DiagnosticEngine(), Err);
    Expected<ArtifactRef<PnmlText>> P = Session.exportPnml(
        Ext, *F,
        Emit == "pnml-behavior" ? PnmlFlavor::Behavior
                                : PnmlFlavor::Frustum);
    if (!P)
      return reportFailure(P.status(), DiagnosticEngine(), Err);
    Out << (*P)->Text;
  }

  if (Opts.Pipe.Verify) {
    RenderResult V =
        verifyExternalNet(Session, Ext, FO, Opts.Pipe.Rate, Err);
    if (V.ExitCode)
      return V;
  }
  return RR;
}

int runPnml(const Options &Opts, const Env &E, std::ostream &Out,
            std::ostream &Err) {
  if (Opts.batchMode() || !Opts.KernelId.empty() ||
      !Opts.InputPath.empty()) {
    Err << "sdspc: --pnml cannot be combined with --batch, -k, or a "
           "loop input\n";
    return 1;
  }
  if (Opts.RunIterations > 0 || Opts.ScpGiven) {
    Err << "sdspc: --pnml analyzes the net itself; --run and --scp "
           "need a compiled loop\n";
    return 1;
  }
  std::optional<std::string> Text;
  if (Opts.PnmlPath == "-") {
    std::ostringstream SS;
    if (E.In)
      SS << E.In->rdbuf();
    Text = SS.str();
  } else {
    std::ifstream File(Opts.PnmlPath);
    if (!File) {
      Err << "sdspc: cannot open '" << Opts.PnmlPath << "'\n";
      return 1;
    }
    std::ostringstream SS;
    SS << File.rdbuf();
    Text = SS.str();
  }
  ResolvedFaults Faults;
  if (!resolveFaultSchedule(Opts, Faults, Err))
    return 1;
  TraceCollector Collector;
  SessionConfig Cfg;
  Cfg.Store = E.Store;
  std::string Scope =
      "pnml:" + (Opts.PnmlPath == "-" ? std::string("stdin")
                                      : Opts.PnmlPath);
  if (!Opts.TracePath.empty())
    Cfg.Trace = &Collector.track(Scope);
  FaultContext FC(Faults.Sched, Scope, Cfg.Trace);
  if (Faults.Sched && !Faults.Sched->empty())
    Cfg.Faults = &FC;
  if (Opts.DeadlineGiven)
    Cfg.Cancel = CancelSource::withDeadline(
                     std::chrono::milliseconds(Opts.DeadlineMillis))
                     .token();
  CompilationSession Session(Cfg);
  int Code = emitExternalNet(Session, Opts, *Text, Out, Err).ExitCode;
  return finishRunOutputs(Opts, E, Session, Collector, Code, Err);
}

//===----------------------------------------------------------------------===//
// Batch mode
//===----------------------------------------------------------------------===//

void batchJsonEscape(std::ostream &OS, const std::string &S) {
  for (char C : S) {
    if (C == '"' || C == '\\')
      OS << '\\' << C;
    else if (C == '\n')
      OS << "\\n";
    else
      OS << C;
  }
}

/// The deterministic batch report: independent of the thread count, so
/// the batch-determinism CI job can diff it across -j values.
void writeBatchJson(std::ostream &OS, const BatchOutcome &Outcome) {
  size_t Failed = 0;
  for (const BatchResult &R : Outcome.Results)
    Failed += R.ExitCode != 0;
  OS << "{\n"
     << "  \"schema\": \"sdsp-batch-v1\",\n"
     << "  \"jobs\": " << Outcome.Results.size() << ",\n"
     << "  \"failed\": " << Failed << ",\n"
     << "  \"retries\": " << Outcome.Retries << ",\n"
     << "  \"exit_code\": " << Outcome.ExitCode << ",\n"
     << "  \"results\": [\n";
  bool First = true;
  for (const BatchResult &R : Outcome.Results) {
    if (!First)
      OS << ",\n";
    First = false;
    OS << "    {\"name\": \"";
    batchJsonEscape(OS, R.Name);
    OS << "\", \"exit_code\": " << R.ExitCode << ", \"attempts\": "
       << R.Attempts << ", \"ok\": "
       << (R.ExitCode == 0 ? "true" : "false") << "}";
  }
  OS << "\n  ]\n}\n";
}

/// Gathers batch jobs: every *.loop under --batch=DIR (sorted by path,
/// non-recursive), then every bundled kernel under --batch-kernels.
bool collectBatchJobs(const Options &Opts, std::vector<BatchJob> &Jobs,
                      std::ostream &Err) {
  namespace fs = std::filesystem;
  if (!Opts.BatchDir.empty()) {
    std::vector<fs::path> Paths;
    std::error_code EC;
    for (fs::directory_iterator It(Opts.BatchDir, EC), End;
         !EC && It != End; It.increment(EC)) {
      if (It->is_regular_file() && It->path().extension() == ".loop")
        Paths.push_back(It->path());
    }
    if (EC) {
      Err << "sdspc: cannot scan '" << Opts.BatchDir
          << "': " << EC.message() << "\n";
      return false;
    }
    // Directory iteration order is filesystem-dependent; the batch
    // contract is deterministic input order.
    std::sort(Paths.begin(), Paths.end());
    for (const fs::path &P : Paths) {
      std::ifstream File(P);
      if (!File) {
        Err << "sdspc: cannot open '" << P.string() << "'\n";
        return false;
      }
      std::ostringstream SS;
      SS << File.rdbuf();
      Jobs.push_back(BatchJob{P.string(), SS.str()});
    }
  }
  if (Opts.BatchKernels)
    for (const LivermoreKernel &K : livermoreKernels())
      Jobs.push_back(BatchJob{"kernel:" + K.Id, K.Source});

  // A job's identity in batch output is its basename, so two inputs
  // reducing to the same stem would collide silently (last wins in any
  // downstream keyed artifact).  Reject it up front, naming both.
  std::map<std::string, const BatchJob *> Stems;
  for (const BatchJob &J : Jobs) {
    std::string Stem = J.Name.rfind("kernel:", 0) == 0
                           ? J.Name.substr(7)
                           : fs::path(J.Name).stem().string();
    auto [It, Inserted] = Stems.emplace(std::move(Stem), &J);
    if (!Inserted) {
      Status St = Status::error(ErrorCode::InvalidInput, "batch",
                                "duplicate loop basename '" + It->first +
                                    "': '" + It->second->Name + "' and '" +
                                    J.Name + "'");
      Err << "sdspc: " << St.str() << "\n";
      return false;
    }
  }
  return true;
}

int runBatch(const Options &Opts, const Env &E, std::ostream &Out,
             std::ostream &Err) {
  if (!Opts.InputPath.empty() || !Opts.KernelId.empty()) {
    Err << "sdspc: --batch cannot be combined with an input file "
           "or -k\n";
    return 1;
  }
  std::vector<BatchJob> Jobs;
  if (!collectBatchJobs(Opts, Jobs, Err))
    return 1;
  if (Jobs.empty()) {
    Status St = Status::error(ErrorCode::InvalidInput, "batch",
                              "directory '" + Opts.BatchDir +
                                  "' contains no *.loop files");
    Err << "sdspc: " << St.str() << "\n";
    return exitCodeFor(St);
  }

  ResolvedFaults Faults;
  if (!resolveFaultSchedule(Opts, Faults, Err))
    return 1;

  TraceCollector Collector;
  BatchOptions BO;
  BO.Threads = Opts.Jobs;
  BO.Store = E.Store;
  if (!Opts.TracePath.empty())
    BO.Trace = &Collector;
  BO.MaxRetries = Opts.Retries;
  BO.KeepGoing = Opts.KeepGoing;
  BO.JobDeadlineMillis = Opts.DeadlineMillis;
  // An explicit zero deadline is already expired: cancel the whole
  // batch up front (the per-job field treats 0 as "none").
  if (Opts.DeadlineGiven && !Opts.DeadlineMillis)
    BO.Cancel =
        CancelSource::withDeadline(std::chrono::milliseconds(0)).token();
  BO.Faults = Faults.Sched;
  BatchCompiler Batch(BO);
  BatchOutcome Outcome = Batch.run(
      Jobs, [&Opts](CompilationSession &Session, const BatchJob &Job,
                    std::ostream &JobOut, std::ostream &JobErr) {
        return compileAndEmit(Session, Opts, Job.Source, JobOut, JobErr);
      });

  // Replay per-job output in input order: byte-identical whatever the
  // thread count (the batch-determinism CI job pins this).
  size_t Failed = 0;
  for (const BatchResult &R : Outcome.Results) {
    Out << "=== " << R.Name << " ===\n" << R.Out;
    if (!R.TaskStatus)
      Err << "=== " << R.Name << " ===\n"
          << "sdspc: " << R.TaskStatus.str() << "\n";
    else if (!R.Err.empty())
      Err << "=== " << R.Name << " ===\n" << R.Err;
    Failed += R.ExitCode != 0;
  }
  Out << "batch: " << Outcome.Results.size() << " jobs, " << Failed
      << " failed";
  if (Outcome.Retries)
    Out << ", " << Outcome.Retries << " retried";
  Out << "\n";

  int Code = Outcome.ExitCode;
  if (Opts.Timings)
    Outcome.MergedTrace.printTable(Err);
  if (!Opts.TimingsJsonPath.empty())
    if (!writeOutput(
            E, Opts.TimingsJsonPath,
            [&](std::ostream &OS) { Outcome.MergedTrace.writeJson(OS); },
            Err))
      Code = Code ? Code : 1;
  if (!Opts.TracePath.empty())
    if (!writeOutput(
            E, Opts.TracePath,
            [&](std::ostream &OS) { Collector.writeJson(OS); }, Err))
      Code = Code ? Code : 1;
  if (!Opts.MetricsJsonPath.empty()) {
    // With an external store the batch's built-in cache sat idle; the
    // cache.* series then reports the shared memory tier instead.
    if (E.Store)
      flushEnvStoreMetrics(E);
    else
      driver::flushMemoryStoreMetrics(Batch.cache());
    if (!writeOutput(
            E, Opts.MetricsJsonPath,
            [](std::ostream &OS) {
              MetricsRegistry::writeJson(
                  MetricsRegistry::global().snapshot(), OS);
            },
            Err))
      Code = Code ? Code : 1;
  }
  if (!Opts.BatchJsonPath.empty())
    if (!writeOutput(
            E, Opts.BatchJsonPath,
            [&](std::ostream &OS) { writeBatchJson(OS, Outcome); }, Err))
      return Code ? Code : 1;
  return Code;
}

} // namespace

void driver::flushDiskStoreMetrics(const DiskStore &Disk) {
  MetricsRegistry &MR = MetricsRegistry::global();
  DiskStore::Counters C = Disk.counters();
  MR.add("store.disk.hits", C.Hits);
  MR.add("store.disk.misses", C.Misses);
  MR.add("store.disk.writes", C.Writes);
  MR.add("store.disk.evictions", C.Evictions);
  MR.add("store.disk.corrupt", C.Corrupt);
  MR.add("store.disk.entries", Disk.entries());
  MR.add("store.disk.bytes", Disk.bytes());
}

int driver::run(const Options &Opts, const Env &E, std::ostream &Out,
                std::ostream &Err) {
  if (Opts.pnmlMode())
    return runPnml(Opts, E, Out, Err);
  return Opts.batchMode() ? runBatch(Opts, E, Out, Err)
                          : runSingle(Opts, E, Out, Err);
}
