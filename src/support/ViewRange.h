//===- support/ViewRange.h - Ranges of views into flat storage --*- C++ -*-===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A range over rows [Begin, End) of a flat table, yielding each row as a
/// small view built by the table's owner.  Artifacts stored as records
/// plus arenas hand these out where they used to hand out vectors of
/// structs, so their readers keep iterating and indexing as before.
///
/// The owner builds row I's view with `View view(const View *, size_t I)
/// const`, which it may keep private by befriending ViewRange; the unused
/// pointer only selects the overload, so one owner can serve several view
/// types.  A range, like its views, is valid while the owner lives and is
/// not modified.
///
//===----------------------------------------------------------------------===//

#ifndef SDSP_SUPPORT_VIEWRANGE_H
#define SDSP_SUPPORT_VIEWRANGE_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>

namespace sdsp {

template <typename Owner, typename View> class ViewRange {
public:
  class iterator {
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = View;
    using difference_type = std::ptrdiff_t;
    using pointer = const View *;
    using reference = View;

    iterator() = default;
    View operator*() const { return O->view(static_cast<View *>(nullptr), I); }
    iterator &operator++() {
      ++I;
      return *this;
    }
    iterator operator++(int) {
      iterator Old = *this;
      ++I;
      return Old;
    }
    friend bool operator==(const iterator &A, const iterator &B) {
      return A.I == B.I;
    }

  private:
    friend class ViewRange;
    iterator(const Owner *O, size_t I) : O(O), I(I) {}
    const Owner *O = nullptr;
    size_t I = 0;
  };

  ViewRange(const Owner *O, size_t Begin, size_t End)
      : O(O), Begin(static_cast<uint32_t>(Begin)),
        End(static_cast<uint32_t>(End)) {}

  size_t size() const { return End - Begin; }
  bool empty() const { return Begin == End; }
  View operator[](size_t I) const {
    assert(I < size() && "view index out of range");
    return O->view(static_cast<View *>(nullptr), Begin + I);
  }
  iterator begin() const { return iterator(O, Begin); }
  iterator end() const { return iterator(O, End); }

private:
  const Owner *O;
  uint32_t Begin;
  uint32_t End;
};

} // namespace sdsp

#endif // SDSP_SUPPORT_VIEWRANGE_H
