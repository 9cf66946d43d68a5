//===- support/Ids.h - Strongly typed dense identifiers --------*- C++ -*-===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Strongly typed wrappers around dense vector indices.  Places,
/// transitions, dataflow nodes, and arcs are all stored in flat vectors;
/// wrapping the index in a distinct type per entity kind prevents the
/// classic bug of indexing the place table with a transition id.
/// IdRange walks every id of one table without building a vector of
/// them.
///
//===----------------------------------------------------------------------===//

#ifndef SDSP_SUPPORT_IDS_H
#define SDSP_SUPPORT_IDS_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>

namespace sdsp {

/// A dense, strongly typed identifier.  \p Tag is an empty struct that
/// makes each instantiation a distinct type.
template <typename Tag> class Id {
public:
  using ValueType = uint32_t;

  /// Sentinel for "no entity".
  static constexpr ValueType InvalidValue =
      std::numeric_limits<ValueType>::max();

  constexpr Id() : Value(InvalidValue) {}
  constexpr explicit Id(ValueType V) : Value(V) {}
  constexpr explicit Id(size_t V) : Value(static_cast<ValueType>(V)) {
    assert(V < InvalidValue && "id value overflows 32 bits");
  }

  static constexpr Id invalid() { return Id(); }

  constexpr bool isValid() const { return Value != InvalidValue; }

  /// Returns the raw index.  The id must be valid.
  constexpr ValueType index() const {
    assert(isValid() && "indexing with an invalid id");
    return Value;
  }

  friend constexpr bool operator==(Id A, Id B) { return A.Value == B.Value; }
  friend constexpr bool operator!=(Id A, Id B) { return A.Value != B.Value; }
  friend constexpr bool operator<(Id A, Id B) { return A.Value < B.Value; }

private:
  ValueType Value;
};

/// The ids 0 .. N-1 of one table, in order, without a vector of them.
template <typename IdT> class IdRange {
public:
  class iterator {
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = IdT;
    using difference_type = std::ptrdiff_t;
    using pointer = const IdT *;
    using reference = IdT;

    iterator() = default;
    IdT operator*() const { return IdT(I); }
    iterator &operator++() {
      ++I;
      return *this;
    }
    iterator operator++(int) {
      iterator Old = *this;
      ++I;
      return Old;
    }
    friend bool operator==(iterator A, iterator B) { return A.I == B.I; }

  private:
    friend class IdRange;
    explicit iterator(size_t I) : I(I) {}
    size_t I = 0;
  };

  explicit IdRange(size_t N) : N(N) {}
  size_t size() const { return N; }
  iterator begin() const { return iterator(0); }
  iterator end() const { return iterator(N); }

private:
  size_t N;
};

} // namespace sdsp

namespace std {
template <typename Tag> struct hash<sdsp::Id<Tag>> {
  size_t operator()(sdsp::Id<Tag> V) const {
    return std::hash<uint32_t>()(V.isValid() ? V.index()
                                             : sdsp::Id<Tag>::InvalidValue);
  }
};
} // namespace std

#endif // SDSP_SUPPORT_IDS_H
