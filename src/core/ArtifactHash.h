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
/// The hasher is support/HashStream.h's block hash, seeded per artifact
/// kind, deliberately not std::hash (whose values may differ between
/// standard libraries): hashes must be stable enough to compare across
/// processes and hosts.  Each artifact feeds its flat arrays whole,
/// length-prefixes every variable-length section, hashes names by value
/// and never walks a list the layout derives from others; an artifact
/// that shares a graph or schedule folds in that value's own hash.
///
//===----------------------------------------------------------------------===//

#ifndef SDSP_CORE_ARTIFACTHASH_H
#define SDSP_CORE_ARTIFACTHASH_H

#include "support/HashStream.h"

#include <cstdint>
#include <string>

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

/// The seed of artifactHash(const SoftwarePipelineSchedule &), whose
/// stream a schedule's Builder feeds while it fills the index
/// (core/Schedule.h).
inline constexpr uint64_t ScheduleHashSeed = 0x5d5370a00aULL;

/// Content hash of a loop source string (the "lower" pass input).
uint64_t artifactHash(const std::string &Source);

uint64_t artifactHash(const DataflowGraph &G);
uint64_t artifactHash(const TransformStats &S);
uint64_t artifactHash(const PetriNet &Net);
uint64_t artifactHash(const SdspPn &Pn);
uint64_t artifactHash(const ScpPn &Scp);
uint64_t artifactHash(const RateReport &R);
uint64_t artifactHash(const FrustumInfo &F);
uint64_t artifactHash(const SoftwarePipelineSchedule &S);
/// Folds in the hash of P's schedule.
uint64_t artifactHash(const LoopProgram &P);
/// artifactHash(P) given the hash of P's schedule.
uint64_t artifactHash(const LoopProgram &P, uint64_t ScheduleHash);

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
