//===- support/HashStream.h - The block content hash ------------*- C++ -*-===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The project's one content hasher: every artifact content hash
/// (core/ArtifactHash.h), store key and stored-object checksum
/// (core/ArtifactStore.h) is a HashStream.  It lives in support/ so the
/// flat containers of petri/ and dataflow/ can feed their own arrays.
///
/// Input.  The hash is a function of a sequence of 64-bit words.  u64,
/// i64 and f64 feed one word each (a double as its IEEE-754 bits).  A
/// string or array feeds its element count, then its contents packed
/// into words: bytes eight to a word and 32-bit values two to a word,
/// lowest first, the last word zero-padded.  Words are formed from
/// values, never from host byte order, so every host computes the same
/// hash.
///
/// Rounds.  Four independent 64-bit lanes take the words in turn, so
/// word i goes to lane i mod 4 and one 32-byte stripe advances every
/// lane once.  A lane absorbs a word with XXH64's round (Collet,
/// xxHash), and hash() merges the lanes, adds the byte count and ends
/// with XXH64's avalanche.  Unlike XXH64, a word that does not complete
/// a stripe still goes straight to its lane, so the stream keeps no
/// buffer; the count, folded in at the end, separates inputs that differ
/// only by trailing words.  Arrays run a stripe loop with the lanes in
/// registers: the rounds of one stripe are independent, so they overlap
/// instead of forming one serial chain per word.
///
/// Words fed are counted: a stream adds its count to hashWordsFed() of
/// its thread when it is destroyed (the session's hash.words counter).
///
//===----------------------------------------------------------------------===//

#ifndef SDSP_SUPPORT_HASHSTREAM_H
#define SDSP_SUPPORT_HASHSTREAM_H

#include "support/Ids.h"

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

namespace sdsp {

/// Words fed to the HashStreams destroyed on this thread so far.
inline uint64_t &hashWordsFed() {
  static thread_local uint64_t Words = 0;
  return Words;
}

/// Accumulates a deterministic 64-bit content hash (see the file
/// comment).  Call sites read as a serialization of what they hash.
class HashStream {
public:
  explicit HashStream(uint64_t Seed)
      : Lane{Seed + P1 + P2, Seed + P2, Seed, Seed - P1} {}
  ~HashStream() { hashWordsFed() += Words; }
  HashStream(const HashStream &) = delete;
  HashStream &operator=(const HashStream &) = delete;

  HashStream &u64(uint64_t V) {
    uint64_t &L = Lane[Words & 3];
    L = round(L, V);
    ++Words;
    return *this;
  }
  HashStream &i64(int64_t V) { return u64(static_cast<uint64_t>(V)); }
  HashStream &f64(double V) { return u64(std::bit_cast<uint64_t>(V)); }

  /// The byte count, then the bytes eight to a word.
  HashStream &str(std::string_view S) {
    u64(S.size());
    const char *P = S.data();
    const size_t Full = S.size() / 8;
    absorb(Full, [P](size_t I) { return loadBytes(P + 8 * I, 8); });
    if (size_t Tail = S.size() % 8)
      u64(loadBytes(P + 8 * Full, Tail));
    return *this;
  }

  /// The value count, then the values two to a word.
  HashStream &u32s(std::span<const uint32_t> V) {
    return halves(V.size(), V.data(), V.size());
  }

  /// Ids as their raw values (the invalid id is 0xffffffff), like u32s.
  template <typename Tag> HashStream &ids(std::span<const Id<Tag>> V) {
    static_assert(sizeof(Id<Tag>) == sizeof(uint32_t) &&
                  std::is_trivially_copyable_v<Id<Tag>>);
    return halves(V.size(), V.data(), V.size());
  }
  template <typename Tag>
  HashStream &ids(const std::vector<Id<Tag>> &V) {
    return ids(std::span<const Id<Tag>>(V));
  }

  /// Records whose fields are all 32-bit values: the record count, then
  /// every field in order, two to a word.
  template <typename T> HashStream &u32Records(std::span<const T> V) {
    static_assert(sizeof(T) % sizeof(uint32_t) == 0 &&
                  std::has_unique_object_representations_v<T>);
    return halves(V.size(), V.data(), V.size() * (sizeof(T) / 4));
  }

  /// The value count, then one word per value.
  HashStream &f64s(std::span<const double> V) {
    u64(V.size());
    const double *P = V.data();
    absorb(V.size(),
           [P](size_t I) { return std::bit_cast<uint64_t>(P[I]); });
    return *this;
  }

  /// The hash of everything fed so far; the stream may go on.
  uint64_t hash() const {
    uint64_t H = std::rotl(Lane[0], 1) + std::rotl(Lane[1], 7) +
                 std::rotl(Lane[2], 12) + std::rotl(Lane[3], 18);
    for (uint64_t L : Lane)
      H = (H ^ round(0, L)) * P1 + P4;
    H += Words * 8;
    H ^= H >> 33;
    H *= P2;
    H ^= H >> 29;
    H *= P3;
    H ^= H >> 32;
    return H;
  }

private:
  static constexpr uint64_t P1 = 0x9e3779b185ebca87ULL;
  static constexpr uint64_t P2 = 0xc2b2ae3d27d4eb4fULL;
  static constexpr uint64_t P3 = 0x165667b19e3779f9ULL;
  static constexpr uint64_t P4 = 0x85ebca77c2b2ae63ULL;

  static uint64_t round(uint64_t Acc, uint64_t In) {
    return std::rotl(Acc + In * P2, 31) * P1;
  }

  /// \p N (at most 8) bytes at \p P as one little-endian word.
  static uint64_t loadBytes(const char *P, size_t N) {
    uint64_t W = 0;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&W, P, N);
    } else {
      for (size_t I = 0; I < N; ++I)
        W |= uint64_t{static_cast<unsigned char>(P[I])} << (8 * I);
    }
    return W;
  }

  /// \p Count, then \p N 32-bit values at \p P two to a word.
  HashStream &halves(uint64_t Count, const void *P, size_t N) {
    u64(Count);
    const char *B = static_cast<const char *>(P);
    auto Half = [B](size_t I) {
      uint32_t V;
      std::memcpy(&V, B + 4 * I, 4);
      return static_cast<uint64_t>(V);
    };
    if constexpr (std::endian::native == std::endian::little)
      absorb(N / 2, [B](size_t I) {
        uint64_t W;
        std::memcpy(&W, B + 8 * I, 8);
        return W;
      });
    else
      absorb(N / 2, [Half](size_t I) {
        return Half(2 * I) | Half(2 * I + 1) << 32;
      });
    if (N % 2)
      u64(Half(N - 1));
    return *this;
  }

  /// Feeds words Load(0) .. Load(N - 1): one at a time up to a stripe
  /// boundary, then whole stripes with the lanes in registers.
  template <typename LoadFn> void absorb(size_t N, LoadFn Load) {
    size_t I = 0;
    for (; I < N && (Words & 3) != 0; ++I)
      u64(Load(I));
    uint64_t A = Lane[0], B = Lane[1], C = Lane[2], D = Lane[3];
    for (; I + 4 <= N; I += 4) {
      A = round(A, Load(I));
      B = round(B, Load(I + 1));
      C = round(C, Load(I + 2));
      D = round(D, Load(I + 3));
      Words += 4;
    }
    Lane[0] = A;
    Lane[1] = B;
    Lane[2] = C;
    Lane[3] = D;
    for (; I < N; ++I)
      u64(Load(I));
  }

  uint64_t Lane[4];
  uint64_t Words = 0;
};

} // namespace sdsp

#endif // SDSP_SUPPORT_HASHSTREAM_H
