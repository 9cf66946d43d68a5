//===- core/ArtifactHash.h - Content hashes of pipeline artifacts -*- C++ -*-===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic 64-bit content hashes and approximate in-memory sizes
/// for every artifact type flowing through the compilation session
/// (core/Session.h).  The hash of an artifact is a pure function of its
/// observable content — node/arc/place/transition structure, names,
/// execution times, token counts, schedule slots — never of addresses
/// or construction order, so two artifacts built by different routes
/// hash equal iff they are structurally identical.  The session's
/// artifact cache keys on (pass, input content hashes, options
/// fingerprint); docs/ARCHITECTURE.md describes the scheme.
///
/// The mixer is the same boost-style hashCombine of support/Hashing.h
/// seeded per artifact kind, deliberately not std::hash (whose values
/// may differ between standard libraries): hashes must be stable enough
/// to compare across processes in the cache-equivalence CI job.
///
//===----------------------------------------------------------------------===//

#ifndef SDSP_CORE_ARTIFACTHASH_H
#define SDSP_CORE_ARTIFACTHASH_H

#include <cstdint>
#include <string>
#include <string_view>

namespace sdsp {

class DataflowGraph;
class Sdsp;
struct SdspPn;
class PetriNet;
struct ScpPn;
struct RateReport;
struct FrustumInfo;
class SoftwarePipelineSchedule;
class LoopProgram;
struct TransformStats;

/// Accumulates a deterministic 64-bit content hash.  A tiny explicit
/// stream (rather than overloads of hashCombine) so call sites read as
/// a serialization of the artifact's observable content.
class HashStream {
public:
  explicit HashStream(uint64_t Seed) : H(Seed) {}

  HashStream &u64(uint64_t V);
  HashStream &i64(int64_t V) { return u64(static_cast<uint64_t>(V)); }
  HashStream &f64(double V);
  HashStream &str(std::string_view S);

  uint64_t hash() const { return H; }

private:
  uint64_t H;
};

/// Content hash of a loop source string (the "lower" pass input).
uint64_t artifactHash(const std::string &Source);

uint64_t artifactHash(const DataflowGraph &G);
uint64_t artifactHash(const TransformStats &S);
uint64_t artifactHash(const Sdsp &S);
uint64_t artifactHash(const PetriNet &Net);
uint64_t artifactHash(const SdspPn &Pn);
uint64_t artifactHash(const ScpPn &Scp);
uint64_t artifactHash(const RateReport &R);
uint64_t artifactHash(const FrustumInfo &F);
uint64_t artifactHash(const SoftwarePipelineSchedule &S);
uint64_t artifactHash(const LoopProgram &P);

/// Approximate resident bytes of each artifact, for the per-pass
/// artifact-size accounting in the PipelineTrace.  Counts payload
/// vectors and strings, not allocator overhead.
uint64_t artifactSizeBytes(const std::string &Source);
uint64_t artifactSizeBytes(const DataflowGraph &G);
uint64_t artifactSizeBytes(const Sdsp &S);
uint64_t artifactSizeBytes(const PetriNet &Net);
uint64_t artifactSizeBytes(const SdspPn &Pn);
uint64_t artifactSizeBytes(const ScpPn &Scp);
uint64_t artifactSizeBytes(const RateReport &R);
uint64_t artifactSizeBytes(const FrustumInfo &F);
uint64_t artifactSizeBytes(const SoftwarePipelineSchedule &S);
uint64_t artifactSizeBytes(const LoopProgram &P);

} // namespace sdsp

#endif // SDSP_CORE_ARTIFACTHASH_H
