//===- tests/HashStreamTest.cpp - The block hasher against a reference ----===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
//
// support/HashStream.h keeps four lanes and runs arrays through a
// stripe loop with the lanes in registers.  ReferenceHash below is the
// same function written plainly: every input becomes its list of words
// first, then the words go through the round one at a time.  Random
// feeds of words, strings and arrays of random lengths, in random
// orders, start and end arrays at every lane offset, so every stripe
// and tail boundary of the bulk path is compared with the plain one.
//
//===----------------------------------------------------------------------===//

#include "support/HashStream.h"

#include "gtest/gtest.h"

#include <bit>
#include <memory>
#include <random>
#include <string>
#include <vector>

using namespace sdsp;

namespace {

constexpr uint64_t P1 = 0x9e3779b185ebca87ULL;
constexpr uint64_t P2 = 0xc2b2ae3d27d4eb4fULL;
constexpr uint64_t P3 = 0x165667b19e3779f9ULL;
constexpr uint64_t P4 = 0x85ebca77c2b2ae63ULL;

uint64_t round(uint64_t Acc, uint64_t In) {
  return std::rotl(Acc + In * P2, 31) * P1;
}

/// The words of every input, then one round per word.
class ReferenceHash {
public:
  void u64(uint64_t V) { Words.push_back(V); }

  void str(const std::string &S) {
    u64(S.size());
    for (size_t I = 0; I < S.size(); I += 8) {
      uint64_t W = 0;
      for (size_t B = 0; B < 8 && I + B < S.size(); ++B)
        W |= uint64_t{static_cast<unsigned char>(S[I + B])} << (8 * B);
      u64(W);
    }
  }

  void u32s(uint64_t Count, const std::vector<uint32_t> &V) {
    u64(Count);
    for (size_t I = 0; I < V.size(); I += 2)
      u64(V[I] | (I + 1 < V.size() ? uint64_t{V[I + 1]} << 32 : 0));
  }

  void f64s(const std::vector<double> &V) {
    u64(V.size());
    for (double D : V)
      u64(std::bit_cast<uint64_t>(D));
  }

  uint64_t hash(uint64_t Seed) const {
    uint64_t Lane[4] = {Seed + P1 + P2, Seed + P2, Seed, Seed - P1};
    for (size_t I = 0; I < Words.size(); ++I)
      Lane[I % 4] = round(Lane[I % 4], Words[I]);
    uint64_t H = std::rotl(Lane[0], 1) + std::rotl(Lane[1], 7) +
                 std::rotl(Lane[2], 12) + std::rotl(Lane[3], 18);
    for (uint64_t L : Lane)
      H = (H ^ round(0, L)) * P1 + P4;
    H += Words.size() * 8;
    H ^= H >> 33;
    H *= P2;
    H ^= H >> 29;
    H *= P3;
    H ^= H >> 32;
    return H;
  }

  size_t words() const { return Words.size(); }

private:
  std::vector<uint64_t> Words;
};

struct Triple {
  uint32_t A, B, C;
};

struct TestTag {};
using TestId = Id<TestTag>;

TEST(HashStream, LanesAndBulkFeedsMatchThePlainReference) {
  std::mt19937_64 Rng(20261018);
  auto Below = [&](uint64_t N) { return Rng() % N; };
  for (int Trial = 0; Trial < 2000; ++Trial) {
    const uint64_t Seed = Rng();
    const uint64_t WordsBefore = hashWordsFed();
    auto Stream = std::make_unique<HashStream>(Seed);
    HashStream &HS = *Stream;
    ReferenceHash Ref;
    const int Calls = static_cast<int>(Below(24));
    for (int Call = 0; Call < Calls; ++Call) {
      switch (Below(7)) {
      case 0: {
        uint64_t V = Rng();
        HS.u64(V);
        Ref.u64(V);
        break;
      }
      case 1: {
        double D = static_cast<double>(static_cast<int64_t>(Rng())) / 7.0;
        HS.f64(D);
        Ref.u64(std::bit_cast<uint64_t>(D));
        break;
      }
      case 2: {
        std::string S(Below(90), '\0');
        for (char &C : S)
          C = static_cast<char>(Rng());
        HS.str(S);
        Ref.str(S);
        break;
      }
      case 3: {
        std::vector<uint32_t> V(Below(70));
        for (uint32_t &X : V)
          X = static_cast<uint32_t>(Rng());
        HS.u32s(V);
        Ref.u32s(V.size(), V);
        break;
      }
      case 4: {
        std::vector<TestId> V(Below(70));
        std::vector<uint32_t> Raw;
        for (TestId &X : V) {
          if (Below(5) != 0)
            X = TestId(static_cast<uint32_t>(Below(1000)));
          Raw.push_back(X.isValid() ? X.index() : 0xffffffffu);
        }
        HS.ids(V);
        Ref.u32s(V.size(), Raw);
        break;
      }
      case 5: {
        std::vector<double> V(Below(40));
        for (double &D : V)
          D = std::bit_cast<double>(Rng());
        HS.f64s(V);
        Ref.f64s(V);
        break;
      }
      default: {
        std::vector<Triple> V(Below(30));
        std::vector<uint32_t> Raw;
        for (Triple &T : V) {
          T = {static_cast<uint32_t>(Rng()), static_cast<uint32_t>(Rng()),
               static_cast<uint32_t>(Rng())};
          Raw.insert(Raw.end(), {T.A, T.B, T.C});
        }
        HS.u32Records(std::span<const Triple>(V));
        Ref.u32s(V.size(), Raw);
        break;
      }
      }
      // hash() leaves the stream going: check mid-stream too.
      ASSERT_EQ(HS.hash(), Ref.hash(Seed))
          << "trial " << Trial << " call " << Call;
    }
    Stream.reset();
    ASSERT_EQ(hashWordsFed() - WordsBefore, Ref.words()) << "trial " << Trial;
  }
}

TEST(HashStream, EveryWordAndTheSeedMove) {
  const uint64_t Base = HashStream(1).u64(2).u64(3).hash();
  EXPECT_NE(HashStream(2).u64(2).u64(3).hash(), Base);
  EXPECT_NE(HashStream(1).u64(3).u64(2).hash(), Base);
  EXPECT_NE(HashStream(1).u64(2).u64(3).u64(0).hash(), Base);
  // A name byte at every position of a two-stripe string.
  std::string S(64, 'a');
  const uint64_t Str = HashStream(1).str(S).hash();
  for (size_t I = 0; I < S.size(); ++I) {
    std::string T = S;
    T[I] = 'b';
    EXPECT_NE(HashStream(1).str(T).hash(), Str) << I;
  }
}

TEST(HashStream, DestroyedStreamsCountTheirWords) {
  const uint64_t Before = hashWordsFed();
  {
    HashStream HS(0);
    HS.u64(1).str("twelve bytes").u32s(std::vector<uint32_t>{1, 2, 3});
    EXPECT_EQ(hashWordsFed(), Before);
  }
  // One word, then a count and two words each for the string and array.
  EXPECT_EQ(hashWordsFed(), Before + 7);
}

} // namespace
