//===- petri/Marking.h - Token distributions --------------------*- C++ -*-===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A marking M : P -> N assigns a token count to every place (Appendix
/// A.2).  Markings are hashable and totally ordered so they can key the
/// state tables used by frustum detection and reachability analysis.
///
//===----------------------------------------------------------------------===//

#ifndef SDSP_PETRI_MARKING_H
#define SDSP_PETRI_MARKING_H

#include "support/Ids.h"

#include <cassert>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace sdsp {

struct PlaceTag {};
/// Identifies a place within one PetriNet.
using PlaceId = Id<PlaceTag>;

/// A token distribution over the places of one net.
class Marking {
public:
  Marking() = default;
  explicit Marking(size_t NumPlaces) : Tokens(NumPlaces, 0) {}

  size_t size() const { return Tokens.size(); }

  uint32_t tokens(PlaceId P) const { return Tokens[P.index()]; }
  /// Every place's token count, by place index.
  std::span<const uint32_t> counts() const { return Tokens; }
  void setTokens(PlaceId P, uint32_t N) { Tokens[P.index()] = N; }

  /// Adds one token to \p P.
  void produce(PlaceId P) { ++Tokens[P.index()]; }

  /// Removes one token from \p P; the place must be marked.  Inline:
  /// the simulation engines call this once per consumed token.
  void consume(PlaceId P) {
    assert(Tokens[P.index()] > 0 && "consuming from an empty place");
    --Tokens[P.index()];
  }

  /// Total number of tokens in the net.
  uint64_t totalTokens() const;

  /// True if every place holds at most one token (a "safe" distribution).
  bool allSafe() const;

  /// Compact rendering "[p0 p3 p7]" listing marked places (with xN
  /// suffixes for multiplicities above one).
  std::string str() const;

  size_t hashValue() const;

  friend bool operator==(const Marking &A, const Marking &B) {
    return A.Tokens == B.Tokens;
  }
  friend bool operator!=(const Marking &A, const Marking &B) {
    return !(A == B);
  }
  friend bool operator<(const Marking &A, const Marking &B) {
    return A.Tokens < B.Tokens;
  }

private:
  std::vector<uint32_t> Tokens;
};

} // namespace sdsp

namespace std {
template <> struct hash<sdsp::Marking> {
  size_t operator()(const sdsp::Marking &M) const { return M.hashValue(); }
};
} // namespace std

#endif // SDSP_PETRI_MARKING_H
