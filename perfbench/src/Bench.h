//===- perfbench/src/Bench.h - End-to-end benchmark internals ---*- C++ -*-===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared declarations of the end-to-end benchmark (perfbench/README.md):
/// the request model and the seeded workload generators (Workloads.cpp),
/// the two ways of serving a request — one compile() call, or the same
/// pass calls made one by one under trace spans (Requests.cpp) — the
/// span recorder and store decorators of the traced run (Spans.cpp), and
/// the output oracle every request is checked against (Oracle.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "core/ArtifactStore.h"
#include "core/Session.h"
#include "livermore/Livermore.h"
#include "support/Random.h"
#include "support/Trace.h"

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

namespace perfbench {

//===----------------------------------------------------------------------===//
// Workloads (Workloads.cpp)
//===----------------------------------------------------------------------===//

enum class Workload { LivermoreService, UnrolledVerify, PnmlImport };

inline constexpr Workload AllWorkloads[] = {Workload::LivermoreService,
                                            Workload::UnrolledVerify,
                                            Workload::PnmlImport};

const char *workloadName(Workload W);
std::optional<Workload> parseWorkload(std::string_view Name);

/// One request as generated.  On the compile workloads it names a
/// kernel and the sdspc options to compile it with (always --verify);
/// on pnml-import, Doc indexes the document set-up exported (and
/// Kernel/Unroll say which compile produced that document).
struct Request {
  const sdsp::LivermoreKernel *Kernel = nullptr;
  uint32_t Unroll = 1;
  uint32_t Capacity = 1;
  uint32_t ScpDepth = 0;
  bool Optimize = false;
  uint64_t ValidateIterations = 64;
  /// Which spelling of the kernel's source: variant v > 0 carries a
  /// comment line naming it, so it lowers to the same graph under a
  /// different source hash.
  uint32_t Variant = 0;
  sdsp::RateEngine Rate = sdsp::RateEngine::Auto;
  uint32_t Doc = 0;

  sdsp::PipelineOptions options() const;
  std::string source() const;
  bool idealMachine() const { return ScpDepth == 0; }
  std::string describe() const;
};

/// Order-sensitive digest of a request list.
uint64_t digest(const std::vector<Request> &Requests);

/// Closed-loop clients of livermore-service.
inline constexpr unsigned ServiceClients = 2;

/// One livermore-service client's endless request stream.
class ServiceStream {
public:
  ServiceStream(std::vector<Request> Fresh, uint64_t Seed)
      : Fresh(std::move(Fresh)), R(Seed) {}
  Request next();

private:
  /// The client's first-seen configs, in order.
  std::vector<Request> Fresh;
  sdsp::Rng R;
  size_t Next = 0;
};

/// livermore-service: one request stream per client, plus the configs
/// set-up compiles into the disk store before the "restart".
struct ServicePlan {
  std::vector<ServiceStream> Streams;
  std::vector<Request> Prefill;
};

ServicePlan servicePlan(uint64_t Seed);

/// The other two workloads repeat a fixed multiset of requests — one
/// block — in a seed-shuffled order, so every seed serves the same mix
/// and a run stops on a block boundary.  Returns block \p Index.
std::vector<Request> workloadBlock(Workload W, uint64_t Seed, size_t Index);

/// pnml-import's documents: the sources set-up compiles and exports,
/// indexed by Request::Doc.
const std::vector<Request> &pnmlSources();

//===----------------------------------------------------------------------===//
// Spans (Spans.cpp)
//===----------------------------------------------------------------------===//

/// Self time per span name, in seconds.
using SelfTimes = std::map<std::string, double>;

/// Makes \p Track the calling thread's span target (null: spans off).
void setSpanTrack(sdsp::TraceTrack *Track);

/// A span on the calling thread's current track, closed at scope exit;
/// a no-op while no track is set (the untraced run).
class Span {
public:
  explicit Span(std::string_view Name);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  sdsp::TraceTrack *Track;
};

/// The capture of one traced request: a "request" track for the timed
/// request and an "arms" track for the untimed side measurements.
class RequestCapture {
public:
  RequestCapture();
  sdsp::TraceTrack &request() { return *Request; }
  sdsp::TraceTrack &arms() { return *Arms; }

  /// Adds every closed span's self time to \p Into (by name) and
  /// returns the summed self time of the request track.
  double fold(SelfTimes &Into) const;

private:
  sdsp::TraceCollector Collector;
  sdsp::TraceTrack *Request;
  sdsp::TraceTrack *Arms;
};

/// Self times of every span in a Chrome trace-event document as
/// support/Trace.h writes it (one event per line).  \p TrackSelf, when
/// given, receives the summed self time per track id.
SelfTimes selfTimesOf(const std::string &TraceJson,
                      std::map<uint32_t, double> *TrackSelf = nullptr);

/// An ArtifactStore that records a span around each call into \p Inner.
/// The traced run wraps the TieredStore sessions use ("store.disk.*":
/// their self time is the disk tier) and the MemoryStore handed to it as
/// the memory tier ("store.lookup" / "store.publish").
class TimedStore final : public sdsp::ArtifactStore {
public:
  TimedStore(sdsp::ArtifactStore &Inner, const char *LookupSpan,
             const char *PublishSpan)
      : Inner(Inner), LookupSpan(LookupSpan), PublishSpan(PublishSpan) {}

  std::optional<sdsp::ArtifactEntry>
  lookupOrLock(const sdsp::ArtifactKey &K, sdsp::FaultContext *F) override;
  sdsp::PublishResult publish(const sdsp::ArtifactKey &K,
                              sdsp::ArtifactEntry E,
                              sdsp::FaultContext *F) override;
  void abandon(const sdsp::ArtifactKey &K) override { Inner.abandon(K); }

private:
  sdsp::ArtifactStore &Inner;
  const char *LookupSpan;
  const char *PublishSpan;
};

//===----------------------------------------------------------------------===//
// Serving requests (Requests.cpp)
//===----------------------------------------------------------------------===//

/// What a request returned, kept until the oracle has looked at it.
struct Outcome {
  sdsp::Status St = sdsp::Status::ok();
  /// Wall time of the request: session construction to destruction.
  double Seconds = 0;
  /// Compile workloads.
  std::optional<sdsp::CompiledLoop> Loop;
  sdsp::ArtifactRef<sdsp::LoopProgram> Program;
  /// pnml-import.
  sdsp::ArtifactRef<sdsp::ExternalNet> Net;
  sdsp::ArtifactRef<sdsp::RateReport> Rate;
  sdsp::ArtifactRef<sdsp::FrustumInfo> Frustum;
};

/// Layer counts the traced run sums over its requests.
struct LayerCounts {
  uint64_t PassComputed = 0;
  uint64_t PassHits = 0;
  uint64_t ArtifactBytes = 0;
  uint64_t TransformNodesOut = 0;
  uint64_t NetTransitions = 0;
  uint64_t PnmlBytes = 0;
  /// Registry counter movement caused by the arms, which the run's
  /// counter deltas must not include.
  std::map<std::string, uint64_t> ArmCounters;
};

/// One request as sdspd serves it: a fresh session over \p Store (null:
/// the session-private cache), compile() with --verify, then the codegen
/// pass on the ideal machine.
Outcome serveCompile(const Request &R, sdsp::ArtifactStore *Store);

/// serveCompile's work on a caller-owned session, with or without the
/// verify pass (set-up reuses the session to export the net).
void compileIn(sdsp::CompilationSession &S, const Request &R, bool Verify,
               Outcome &O);

/// One pnml-import request: importPnml, computeRate, searchFrustum.
Outcome serveImport(const std::string &Pnml);

/// Side measurements a traced request may add after its clock stops.
struct TraceArms {
  /// Time encodeArtifact/decodeArtifact on every pass artifact.
  bool Codec = false;
  /// Re-run the ideal-machine frustum with the analytic engine.
  bool Census = false;
};

/// The same work as serveCompile, made pass by pass through the
/// session's public methods under spans on the current track, with
/// verifyCompiledLoop's checks called one by one.  Arms run on \p Arms
/// after the "request" span closes.
Outcome serveCompileTraced(const Request &R, sdsp::ArtifactStore *Store,
                           RequestCapture &Capture, const TraceArms &Arms,
                           LayerCounts &Counts);

/// The same work as serveImport under spans, plus the parse and
/// classification arm (parsePnml and the predicates on the document).
Outcome serveImportTraced(const std::string &Pnml, RequestCapture &Capture,
                          LayerCounts &Counts);

//===----------------------------------------------------------------------===//
// Output oracle (Oracle.cpp)
//===----------------------------------------------------------------------===//

/// Exact figures of a generated program, from its oracle run.
struct ProgramFigures {
  double CyclesPerIteration = 0;
  size_t Ops = 0;
};

/// Oracle iterations of the source loop for an unroll factor \p U: a
/// whole number of unrolled iterations, at least 256 source iterations
/// and at least 4 unrolled ones.
size_t oracleIterations(uint32_t U);

/// Checks outputs against references that do not come from the
/// scheduler: the dataflow interpreter on the lowered, untransformed
/// graph (ideal machine), the analytic rate (every frustum), and the
/// rate and structure set-up recorded from the source compile
/// (pnml-import).
/// Returns an empty string when the output is right, else why not.
/// Holds per-client caches, so each client owns one.
class Oracle {
public:
  explicit Oracle(uint64_t InputSeed) : InputSeed(InputSeed) {}

  /// Computes the reference outputs \p R will be checked against.
  void prime(const Request &R) {
    reference(R.Kernel, oracleIterations(R.Unroll));
  }

  /// Deliberately corrupts the next checked output (self-test).
  void corruptNext() { Corrupt = true; }

  std::string checkCompile(const Request &R, const Outcome &O,
                           ProgramFigures *Figures);
  /// \p Expected is the source SDSP-PN's rate; \p Connected whether that
  /// net is strongly connected (unrolled copies of a recurrence-free
  /// body are not), which the import's verdict must reproduce.
  std::string checkImport(const Outcome &O, const sdsp::Rational &Expected,
                          bool Connected);

private:
  struct Reference {
    sdsp::StreamMap Inputs;
    sdsp::StreamMap Outputs;
  };
  const Reference &reference(const sdsp::LivermoreKernel *K, size_t N);
  std::string checkProgram(const Request &R, const sdsp::LoopProgram &P,
                           ProgramFigures &Figures);

  uint64_t InputSeed;
  bool Corrupt = false;
  std::map<std::pair<const sdsp::LivermoreKernel *, size_t>, Reference> Refs;
  /// Verdicts already reached, by program content hash, kernel and
  /// unroll factor: a repeat served from the store is the same program.
  std::map<std::tuple<uint64_t, const sdsp::LivermoreKernel *, uint32_t>,
           std::pair<std::string, ProgramFigures>>
      Seen;
};

/// verifyCompiledLoop's rate section on \p CL: the ideal-machine
/// frustum rate equals alpha*; an SCP frustum issues at most Pipelines
/// per cycle and, on one coupled net, respects alpha* and Thm 5.2.2's
/// issue bound.  Empty string when it holds.
std::string checkRates(const sdsp::CompiledLoop &CL,
                       const sdsp::PipelineOptions &O);

//===----------------------------------------------------------------------===//
// Core speed (Speed.cpp)
//===----------------------------------------------------------------------===//

/// Runs the speed probe once and returns its wall time in milliseconds.
double probeMs();

/// The probe's time on the reference core (README.md, "Reference-core
/// time").  A time T measured beside probes of median P reads
/// T * ReferenceProbeMs / P on the reference core.
inline constexpr double ReferenceProbeMs = 1.5;

/// One thread's probe samples over a run, and the reference-core scale
/// they give the work the thread did between them.
class SpeedTrack {
public:
  /// Probes now (ProbesPerSample times); \p Now is in seconds.
  void probe(double Now);
  /// Probes when the last probe is ProbeIntervalSeconds old.
  void maybeProbe(double Now);
  /// ReferenceProbeMs over the median probe time within
  /// ProbeMarginSeconds of [From, To].
  double scale(double From, double To) const;
  /// Median probe time over the whole track.
  double medianMs() const;

private:
  static constexpr int ProbesPerSample = 2;
  static constexpr double ProbeIntervalSeconds = 0.1;
  static constexpr double ProbeMarginSeconds = 1.0;
  std::vector<std::pair<double, double>> Samples;
  double LastProbe = 0;
};

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

/// Linear-interpolation quantile (Q in [0, 1]) of \p V; 0 when empty.
double quantile(std::vector<double> V, double Q);
/// Geometric mean of positive values; 0 when empty.
double geomean(const std::vector<double> &V);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
