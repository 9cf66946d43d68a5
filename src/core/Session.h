//===- core/Session.h - Compilation sessions over an artifact graph -*- C++ -*-===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's compilation flow as an explicit pass/artifact graph:
///
///   source --lower--> graph --transform--> graph --sdsp--> SDSP
///     --sdsp-pn--> SDSP-PN --rate--> rate report
///     --scp--> SDSP-SCP-PN --frustum--> cyclic frustum
///     --schedule--> software pipeline --codegen--> loop program
///
/// A CompilationSession runs each stage as a *registered pass* with
/// declared inputs and outputs over immutable, content-hashed artifacts
/// (ArtifactRef<T>).  Results are interned in an ArtifactStore (the
/// given one, else a MemoryStore of the session's own) keyed by (pass,
/// input content hashes, options fingerprint), so a parameter sweep —
/// SCP depths, unroll factors, choice policies — recomputes only the
/// stages whose inputs or options actually changed: an l = 1..8 SCP
/// ablation lowers, builds the SDSP, and translates the SDSP-PN exactly
/// once.  Every pass records wall time, invocation and cache-hit
/// counters, and produced-artifact bytes into a PipelineTrace that
/// `sdspc --timings` prints and tools/benchreport.py distills into
/// BENCH_passes.json.
///
/// The cache is semantically invisible: pipeline outputs are
/// byte-identical with it enabled or disabled (tests/SessionTest.cpp
/// pins this on the six Livermore kernels), and setting the environment
/// variable SDSP_DISABLE_ARTIFACT_CACHE=1 turns it off process-wide
/// (the cache-equivalence CI job diffs sdspc output both ways).
/// Failures are never cached.
///
/// The one-call runPipeline() of core/Pipeline.h remains as a thin
/// wrapper that builds a throwaway session; docs/ARCHITECTURE.md
/// documents the pass graph, artifact types, and hashing scheme.
///
//===----------------------------------------------------------------------===//

#ifndef SDSP_CORE_SESSION_H
#define SDSP_CORE_SESSION_H

#include "codegen/LoopProgram.h"
#include "core/ArtifactHash.h"
#include "core/Pipeline.h"
#include "support/CancelToken.h"

#include <array>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace sdsp {

/// An immutable, content-hashed artifact produced by a session pass.
/// Ownership is shared with the session cache; the value is never
/// mutated after construction, so references stay valid for the life of
/// any ArtifactRef holding them.
template <typename T> class ArtifactRef {
public:
  ArtifactRef() = default;
  ArtifactRef(std::shared_ptr<const T> Value, uint64_t Hash)
      : Value(std::move(Value)), ContentHash(Hash) {}

  const T &operator*() const { return *Value; }
  const T *operator->() const { return Value.get(); }
  const std::shared_ptr<const T> &ptr() const { return Value; }

  /// The artifact's content hash (core/ArtifactHash.h): equal hashes
  /// mean structurally identical artifacts, and downstream cache keys
  /// are built from these.
  uint64_t hash() const { return ContentHash; }

  explicit operator bool() const { return Value != nullptr; }

private:
  std::shared_ptr<const T> Value;
  uint64_t ContentHash = 0;
};

/// The registered passes, in pipeline order.  Each entry of passInfo()
/// declares the pass's inputs and output artifact type; the trace and
/// docs/ARCHITECTURE.md render the same table.
enum class PassKind : unsigned {
  Lower,     ///< source -> dataflow graph (parse, sema, lowering)
  Import,    ///< external dataflow graph -> validated graph artifact
  Transform, ///< graph -> graph (constant folding/CSE/DCE, unrolling)
  Sdsp,      ///< graph -> SDSP (ack arcs; optional Section 6 minimizer)
  SdspPn,    ///< SDSP -> SDSP-PN (Section 3.2 translation)
  Rate,      ///< SDSP-PN -> rate report (alpha*, critical cycles)
  Scp,       ///< SDSP-PN -> SDSP-SCP-PN (Section 5.2 machine model)
  Frustum,   ///< machine net -> cyclic frustum (earliest firing search)
  Schedule,  ///< SDSP-PN + frustum -> software pipeline (+ replay check)
  Codegen,   ///< SDSP + SDSP-PN + schedule -> register-transfer program
  Verify,    ///< compiled loop -> cross-stage invariant checks
  // The PNML interop passes are appended after Verify (not inserted in
  // pipeline position) so existing PassKind values — which key persisted
  // disk-store artifacts — keep their meaning.
  ImportPnml, ///< PNML text -> classified external net
  ExportPnml, ///< net [+ frustum trace] -> canonical PNML text
};

inline constexpr size_t NumPassKinds =
    static_cast<size_t>(PassKind::ExportPnml) + 1;

/// Static pass registration record.
struct PassInfo {
  const char *Id;     ///< Stable identifier ("sdsp-pn", ...).
  const char *Inputs; ///< Declared inputs, human-readable.
  const char *Output; ///< Produced artifact type.
  bool Cached;        ///< Whether results are interned in the cache.
};

/// The registration table entry for \p K.
const PassInfo &passInfo(PassKind K);

/// Per-pass instrumentation counters.
struct PassStats {
  uint64_t Invocations = 0; ///< Calls, including cache hits.
  uint64_t CacheHits = 0;   ///< Calls answered from the cache.
  uint64_t Failures = 0;    ///< Calls that returned an error.
  double WallSeconds = 0;   ///< Time spent actually computing (misses).
  uint64_t ArtifactBytes = 0; ///< Approximate bytes of computed artifacts.
};

/// A snapshot of a session's per-pass instrumentation.
struct PipelineTrace {
  struct Row {
    std::string Pass;   ///< PassInfo::Id.
    std::string Inputs; ///< PassInfo::Inputs.
    std::string Output; ///< PassInfo::Output.
    PassStats Stats;
  };

  bool CacheEnabled = true;
  /// One row per registered pass, pipeline order (including never-run
  /// passes, whose counters are zero).
  std::vector<Row> Passes;

  double totalWallSeconds() const;
  uint64_t totalInvocations() const;
  uint64_t totalCacheHits() const;

  /// Renders the rows with nonzero invocations as an aligned table
  /// (the `sdspc --timings` output).
  void printTable(std::ostream &OS) const;

  /// Emits the machine-readable form ("sdsp-pipeline-trace-v1") that
  /// tools/benchreport.py ingests.
  void writeJson(std::ostream &OS) const;
};

class ArtifactStore;
class FaultContext;
class MemoryStore;
class TraceTrack;

/// Session construction knobs.
struct SessionConfig {
  /// Tri-state: unset honors SDSP_DISABLE_ARTIFACT_CACHE (any value
  /// other than empty or "0" disables); set forces the cache on/off.
  std::optional<bool> EnableCache;
  /// When set, pass results are interned in this shared artifact store
  /// (core/ArtifactStore.h) instead of a single-shard MemoryStore the
  /// session builds for itself: a shared MemoryStore shares work across
  /// concurrent sessions — one per batch job — and a TieredStore
  /// additionally persists artifacts across processes (the sdspd
  /// service).  The caller keeps ownership; the store must outlive the
  /// session.  Ignored while the cache is disabled (EnableCache /
  /// environment).
  ArtifactStore *Store = nullptr;
  /// When set, every pass run is recorded as a span on this track
  /// (support/Trace.h), with instants for cache publish/abandon and
  /// frustum repeat detection — the `sdspc --trace=FILE` channel.
  /// Sessions are single-threaded, so the track needs no locking; the
  /// caller keeps ownership and the track must outlive the session.
  TraceTrack *Trace = nullptr;
  /// Polled at every pass boundary (verify's included), once more when
  /// a compile ends (after verify, or after the last pass when verify
  /// is off), and — through the frustum pass — at every sampled instant
  /// of the search.  A cancelled token fails the next checkpoint with
  /// Cancelled or DeadlineExceeded, so a deadline that expires inside
  /// any pass fails the compile; nothing already computed is discarded.
  CancelToken Cancel = {};
  /// When set, arms the session's named fault sites ("pass:<id>",
  /// "cache:lookup", "cache:publish", "frustum:step"; see
  /// support/FaultInjection.h).  The caller keeps ownership; like the
  /// session, the context is single-threaded and must outlive it.
  FaultContext *Faults = nullptr;
};

/// Output of the transform pass: the rewritten graph plus what the
/// rewrites did (sdspc reports the stats, so they are part of the
/// artifact, not a side channel).
struct TransformedGraph {
  DataflowGraph Graph;
  TransformStats Stats;
  /// artifactHash(Graph), computed once where the graph is: by the
  /// transform pass, or by the codec from the graph it decoded.  It is
  /// never persisted, so a store's integrity check still hashes what it
  /// read.
  uint64_t GraphHash = 0;
};

/// Output of the sdsp pass: the acknowledged SDSP plus the storage
/// minimizer's before/after accounting when it ran.
struct SdspArtifact {
  Sdsp S;
  std::optional<StorageOptSummary> Storage;
};

uint64_t artifactHash(const TransformedGraph &T);
uint64_t artifactSizeBytes(const TransformedGraph &T);
uint64_t artifactHash(const SdspArtifact &S);
/// artifactHash(S) given the hash of S's graph.
uint64_t artifactHash(const SdspArtifact &S, uint64_t GraphHash);
uint64_t artifactSizeBytes(const SdspArtifact &S);

/// Which net a PNML export renders (docs/INTEROP.md).
enum class PnmlFlavor : uint8_t {
  Net,      ///< The net itself (SDSP-PN or external net).
  Behavior, ///< Occurrence net of the whole recorded execution.
  Frustum,  ///< Occurrence net restricted to the cyclic frustum window.
};

/// Structural classification of an imported net, computed once at
/// import so every consumer (driver gating, --verify, classify output)
/// reads the same verdicts.
struct NetClassification {
  /// Every place has exactly one producer and one consumer (A.4).
  bool MarkedGraph = false;
  /// Live marked graph: every token-free-edge subgraph cycle is marked
  /// (Thm A.5.1).  Only meaningful when MarkedGraph.
  bool Live = false;
  /// Safe under earliest firing (Thm A.5.2); requires Live.
  bool Safe = false;
  /// Structurally persistent (no place feeds two transitions).
  bool Persistent = false;
  /// The marked-graph view is one strongly connected component.
  bool StronglyConnected = false;
  /// Carries the all-ones T-invariant (Thm A.5.3 consistency witness).
  bool Consistent = false;
};

/// Classifies \p Net as the import-pnml pass does, polling \p Cancel
/// and checking the `pnml:classify` fault site in \p Faults (when
/// given) before each batch of the safety check's sweep; fails with the
/// status that stopped it.
Expected<NetClassification> classifyNet(const PetriNet &Net,
                                        const CancelToken &Cancel = {},
                                        FaultContext *Faults = nullptr);

/// Output of the import-pnml pass: the parsed net, its document
/// identity, and its structural classification.
struct ExternalNet {
  PetriNet Net;
  std::string NetId;
  NetClassification Class;
};

/// Output of the export-pnml pass: the canonical PNML document.
struct PnmlText {
  std::string Text;
  std::string NetId;
  PnmlFlavor Flavor = PnmlFlavor::Net;
};

uint64_t artifactHash(const ExternalNet &E);
uint64_t artifactSizeBytes(const ExternalNet &E);
uint64_t artifactHash(const PnmlText &P);
uint64_t artifactSizeBytes(const PnmlText &P);

/// Options of the frustum pass.  Both fields are part of the pass's
/// options fingerprint: changing the budget or the engine must miss the
/// cache (a budget-exceeded outcome under a small budget is not
/// interchangeable with a frustum found under a large one, and the
/// reference engine is timed against the fast path by the benches).
struct FrustumOptions {
  /// Steps to simulate; 0 = the Thm 4.1.1-4.2.2 theory bound.
  TimeStep BudgetSteps = 0;
  FrustumEngine Engine = FrustumEngine::Fast;
};

/// A compilation session: typed pass manager + artifact store +
/// instrumentation.  Sessions are single-threaded and not copyable;
/// artifacts they hand out outlive them (shared ownership).  Sessions
/// on different threads may share one ArtifactStore (see
/// SessionConfig::Store and core/BatchCompiler.h); everything else in a
/// session is thread-private.
class CompilationSession {
public:
  explicit CompilationSession(SessionConfig Config = {});
  ~CompilationSession();

  CompilationSession(const CompilationSession &) = delete;
  CompilationSession &operator=(const CompilationSession &) = delete;

  bool cacheEnabled() const { return Store != nullptr; }
  /// The artifact store this session interns into: SessionConfig::Store
  /// when given, else the session's own MemoryStore; null while the
  /// cache is disabled.
  ArtifactStore *store() const { return Store; }

  /// Instrumentation for one pass.
  const PassStats &passStats(PassKind K) const {
    return Stats[static_cast<size_t>(K)];
  }

  /// Snapshot of all per-pass instrumentation.
  PipelineTrace trace() const;

  //===--------------------------------------------------------------===//
  // Individual passes.  Each validates its inputs and returns a
  // stage-tagged Status on failure (the core/Pipeline.h contract).
  //===--------------------------------------------------------------===//

  /// Lowering: parse + analyze + lower \p Source.  Frontend problems go
  /// to \p Diags (when given) and are summarized in the Status.
  Expected<ArtifactRef<DataflowGraph>>
  lower(const std::string &Source, DiagnosticEngine *Diags = nullptr);

  /// Validates and interns an externally built graph.
  Expected<ArtifactRef<DataflowGraph>> importGraph(DataflowGraph G);

  /// Optimize and/or unroll.  The one-call drivers skip this pass
  /// entirely under identity options (no optimization, unroll factor
  /// 1); calling it directly always runs (and records) the pass.
  Expected<ArtifactRef<TransformedGraph>>
  transform(const ArtifactRef<DataflowGraph> &G, bool Optimize,
            uint32_t Unroll);

  /// Projects the graph out of a transform result as its own artifact
  /// (shared ownership, no copy).
  ArtifactRef<DataflowGraph>
  transformedGraph(const ArtifactRef<TransformedGraph> &T) const;

  /// SDSP construction, optionally followed by the Section 6 storage
  /// minimizer.
  Expected<ArtifactRef<SdspArtifact>>
  buildSdsp(const ArtifactRef<DataflowGraph> &G, uint32_t Capacity,
            bool OptimizeStorage);

  /// Section 3.2 translation to the SDSP-PN.
  Expected<ArtifactRef<SdspPn>> buildPn(const ArtifactRef<SdspArtifact> &S);

  /// Analytic rate report (alpha*, critical cycles).  The engine choice
  /// is part of the artifact-cache fingerprint: a Howard-computed report
  /// (NumCriticalCycles unset) can never be served to an enumeration
  /// request expecting exact cycle counts, and vice versa.
  Expected<ArtifactRef<RateReport>>
  computeRate(const ArtifactRef<SdspPn> &Pn,
              RateEngine Engine = RateEngine::Auto);

  /// Section 5.2 machine model.
  Expected<ArtifactRef<ScpPn>> buildScp(const ArtifactRef<SdspPn> &Pn,
                                        uint32_t Depth, uint32_t Pipelines);

  /// Earliest-firing frustum search on the ideal machine.
  Expected<ArtifactRef<FrustumInfo>>
  searchFrustum(const ArtifactRef<SdspPn> &Pn, const FrustumOptions &FO);

  /// Earliest-firing frustum search on the SCP machine (fresh FIFO
  /// policy per search, Assumption 5.2.1).
  Expected<ArtifactRef<FrustumInfo>>
  searchFrustum(const ArtifactRef<ScpPn> &Scp, const FrustumOptions &FO);

  /// Frustum -> software pipeline, replay-validated for
  /// \p ValidateIterations iterations.
  Expected<ArtifactRef<SoftwarePipelineSchedule>>
  deriveSchedule(const ArtifactRef<SdspArtifact> &S,
                 const ArtifactRef<SdspPn> &Pn,
                 const ArtifactRef<FrustumInfo> &F,
                 uint64_t ValidateIterations);

  /// Register-transfer program generation.
  Expected<ArtifactRef<LoopProgram>>
  generateProgram(const ArtifactRef<SdspArtifact> &S,
                  const ArtifactRef<SdspPn> &Pn,
                  const ArtifactRef<SoftwarePipelineSchedule> &Sched);

  //===--------------------------------------------------------------===//
  // PNML interop (petri/Pnml.h wired through the pass/artifact graph;
  // docs/INTEROP.md).
  //===--------------------------------------------------------------===//

  /// Parses \p Text as PNML and classifies the net (marked graph,
  /// live, safe, persistent, strongly connected, consistent).  Fault
  /// site "pnml:parse" fires inside the compute, so injected parse
  /// faults replay deterministically through the cache.
  Expected<ArtifactRef<ExternalNet>> importPnml(const std::string &Text);

  /// Canonical PNML of the SDSP-PN (net id "sdsp_pn").
  Expected<ArtifactRef<PnmlText>> exportPnml(const ArtifactRef<SdspPn> &Pn);

  /// Canonical PNML of an execution of \p Pn: the behavior graph's
  /// occurrence net (PnmlFlavor::Behavior, whole trace, net id
  /// "behavior") or its restriction to the cyclic frustum window
  /// (PnmlFlavor::Frustum, net id "frustum").
  Expected<ArtifactRef<PnmlText>> exportPnml(const ArtifactRef<SdspPn> &Pn,
                                             const ArtifactRef<FrustumInfo> &F,
                                             PnmlFlavor Flavor);

  /// Canonical re-export of an imported net (net id preserved) — the
  /// round-trip gate's second leg.
  Expected<ArtifactRef<PnmlText>>
  exportPnml(const ArtifactRef<ExternalNet> &Ext);

  /// Behavior/frustum occurrence net of an imported net's execution.
  Expected<ArtifactRef<PnmlText>>
  exportPnml(const ArtifactRef<ExternalNet> &Ext,
             const ArtifactRef<FrustumInfo> &F, PnmlFlavor Flavor);

  /// Rate analysis of an imported net (requires a live marked graph;
  /// InvalidNet otherwise).
  Expected<ArtifactRef<RateReport>>
  computeRate(const ArtifactRef<ExternalNet> &Ext,
              RateEngine Engine = RateEngine::Auto);

  /// Earliest-firing frustum search on an imported net.
  Expected<ArtifactRef<FrustumInfo>>
  searchFrustum(const ArtifactRef<ExternalNet> &Ext,
                const FrustumOptions &FO);

  //===--------------------------------------------------------------===//
  // One-call drivers (the runPipeline equivalents; same stage order,
  // error precedence, and --verify semantics as before the refactor).
  //===--------------------------------------------------------------===//

  Expected<CompiledLoop> compile(const std::string &Source,
                                 const PipelineOptions &Opts,
                                 DiagnosticEngine *Diags = nullptr);

  Expected<CompiledLoop> compile(DataflowGraph G,
                                 const PipelineOptions &Opts);

  /// The session's cancellation token and fault context (null when
  /// none), for checks that run outside a pass, such as sdspc's verify
  /// of an imported net.
  const CancelToken &cancelToken() const { return Cancel; }
  FaultContext *faults() const { return Faults; }

private:
  /// The pass-boundary prologue of runPass and finish(): counts the
  /// invocation, opens the pass span, then polls cancellation and the
  /// "pass:<id>" fault site.  A failure returns already recorded.
  Status enterPass(PassKind K);

  /// A computed artifact's content hash from scratch.
  struct FromScratch {
    template <typename T> uint64_t operator()(const T &A) const {
      return artifactHash(A);
    }
  };

  /// Looks up (K, InputsHash, OptionsFp) in the store; on a miss runs
  /// \p Compute (returning Expected<T>), publishing and instrumenting
  /// the result under its content hash, \p HashOf of it: a pass whose
  /// artifact shares an input, or whose compute fed the hash already,
  /// gives a hasher that takes what is known instead of feeding it
  /// again.  The words a computed pass feeds to HashStreams, its
  /// content hash's included, are added to the hash.words counter once.
  template <typename T, typename Fn, typename HashFn = FromScratch>
  Expected<ArtifactRef<T>> runPass(PassKind K, uint64_t InputsHash,
                                   uint64_t OptionsFp, Fn &&Compute,
                                   HashFn HashOf = {});

  /// The frustum pass over \p Net.  \p Imported is the imported net
  /// \p Net belongs to, whose classification must admit the analysis,
  /// or null for nets the session built.
  Expected<ArtifactRef<FrustumInfo>> frustumPass(const PetriNet &Net,
                                                 uint64_t MachineHash,
                                                 const ScpPn *Scp,
                                                 const FrustumOptions &FO,
                                                 const ExternalNet *Imported);

  Expected<ArtifactRef<PnmlText>> exportPnmlPass(const PetriNet &Net,
                                                 const std::string &NetId,
                                                 uint64_t InputsHash,
                                                 PnmlFlavor Flavor,
                                                 const FrustumInfo *F);

  Expected<CompiledLoop> compileFromGraph(ArtifactRef<DataflowGraph> G,
                                          const PipelineOptions &Opts);

  /// Runs the verify pass (timed, never cached) and seals the result.
  Expected<CompiledLoop> finish(CompiledLoop CL, const PipelineOptions &Opts);

  std::array<PassStats, NumPassKinds> Stats{};
  std::unique_ptr<MemoryStore> OwnStore; ///< When no store was given.
  ArtifactStore *Store = nullptr;
  TraceTrack *Trace = nullptr;
  CancelToken Cancel;
  FaultContext *Faults = nullptr;
};

} // namespace sdsp

#endif // SDSP_CORE_SESSION_H
