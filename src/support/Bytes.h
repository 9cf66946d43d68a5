//===- support/Bytes.h - Bounds-checked binary serialization ----*- C++ -*-===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tiny explicit byte codec for the persistent artifact store
/// (core/ArtifactCodec.h) and the daemon wire protocol.  All integers
/// are little-endian regardless of host order, doubles travel as their
/// IEEE-754 bit pattern, and strings as a u64 length prefix plus raw
/// bytes — so an artifact written by one process decodes identically in
/// any other, which is the whole point of a cross-process store.
///
/// ByteReader never trusts its input: every accessor bounds-checks and
/// latches a failure flag instead of reading past the end, so a
/// truncated or corrupted object file degrades into a clean decode
/// failure (the store then falls back to recomputation) rather than
/// undefined behavior.
///
//===----------------------------------------------------------------------===//

#ifndef SDSP_SUPPORT_BYTES_H
#define SDSP_SUPPORT_BYTES_H

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace sdsp {

/// Appends little-endian encoded values to a growable byte buffer.
class ByteWriter {
public:
  void u8(uint8_t V) { Buf.push_back(V); }

  void u32(uint32_t V) { put(V); }
  void u64(uint64_t V) { put(V); }

  void f64(double V) {
    uint64_t Bits;
    static_assert(sizeof(Bits) == sizeof(V));
    std::memcpy(&Bits, &V, sizeof(Bits));
    u64(Bits);
  }

  void str(std::string_view S) {
    u64(S.size());
    Buf.insert(Buf.end(), S.begin(), S.end());
  }

  const std::vector<uint8_t> &bytes() const { return Buf; }
  std::vector<uint8_t> take() { return std::move(Buf); }
  size_t size() const { return Buf.size(); }

private:
  /// Appends \p V's little-endian bytes in one append.
  template <typename U> void put(U V) {
    uint8_t Le[sizeof(U)];
    for (size_t I = 0; I < sizeof(U); ++I)
      Le[I] = static_cast<uint8_t>(V >> (8 * I));
    Buf.insert(Buf.end(), Le, Le + sizeof(U));
  }

  std::vector<uint8_t> Buf;
};

/// Reads the ByteWriter encoding back.  Any out-of-bounds access sets
/// the failure flag and returns a zero value; once failed, every later
/// read also fails, so decoders can check ok() once at the end of a
/// section instead of after every field.
class ByteReader {
public:
  ByteReader(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {}
  explicit ByteReader(const std::vector<uint8_t> &Buf)
      : ByteReader(Buf.data(), Buf.size()) {}

  bool ok() const { return !Failed; }
  size_t remaining() const { return Size - Pos; }
  bool atEnd() const { return Pos == Size; }

  uint8_t u8() {
    if (!require(1))
      return 0;
    return Data[Pos++];
  }

  uint32_t u32() {
    if (!require(4))
      return 0;
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= static_cast<uint32_t>(Data[Pos++]) << (8 * I);
    return V;
  }

  uint64_t u64() {
    if (!require(8))
      return 0;
    uint64_t V = 0;
    for (int I = 0; I < 8; ++I)
      V |= static_cast<uint64_t>(Data[Pos++]) << (8 * I);
    return V;
  }

  double f64() {
    uint64_t Bits = u64();
    double V;
    std::memcpy(&V, &Bits, sizeof(V));
    return V;
  }

  std::string str() { return std::string(strView()); }

  /// Like str(), but views the bytes in place: valid while the buffer
  /// the reader reads is.
  std::string_view strView() {
    uint64_t N = u64();
    if (!require(N))
      return {};
    std::string_view S(reinterpret_cast<const char *>(Data + Pos),
                       static_cast<size_t>(N));
    Pos += static_cast<size_t>(N);
    return S;
  }

  /// Reads a length prefix for a sequence whose elements occupy at
  /// least \p MinElemBytes each, rejecting counts the remaining buffer
  /// cannot possibly hold (a corrupted length would otherwise drive a
  /// multi-gigabyte reserve before the per-element reads failed).
  uint64_t seqLen(size_t MinElemBytes) {
    uint64_t N = u64();
    if (MinElemBytes > 0 && N > remaining() / MinElemBytes) {
      Failed = true;
      return 0;
    }
    return N;
  }

private:
  bool require(uint64_t N) {
    if (Failed || N > Size - Pos) {
      Failed = true;
      return false;
    }
    return true;
  }

  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
  bool Failed = false;
};

} // namespace sdsp

#endif // SDSP_SUPPORT_BYTES_H
