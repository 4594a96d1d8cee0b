// Span-style views and compressed-sparse-row (CSR) storage for the flat
// engine.
//
// The seed engine stored Instance membership as vector<vector<ElementId>>,
// which scatters every set's element list across the heap and costs one
// allocation per row.  CSR packs all rows into one flat value array plus an
// offsets array, so iterating a row is a contiguous scan and building the
// structure is two passes and two allocations total — the layout used by
// batched PRAM-style graph processing.
//
// C++17 has no std::span, so Span<T> below is the minimal read-only view
// the library needs.  It compares against vectors so gtest matchers keep
// working; a copy into a vector is always the explicit to_vector().
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/types.hpp"
#include "util/require.hpp"

namespace osp {

/// Read-only contiguous view, analogous to std::span<const T>.
template <typename T>
class Span {
 public:
  using value_type = T;
  using const_iterator = const T*;

  Span() = default;
  Span(const T* data, std::size_t size) : data_(data), size_(size) {}
  explicit Span(const std::vector<T>& v) : data_(v.data()), size_(v.size()) {}

  const T* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  const T& operator[](std::size_t i) const { return data_[i]; }
  const T& front() const { return data_[0]; }
  const T& back() const { return data_[size_ - 1]; }

  /// Copies the view into a vector; the one way a Span allocates.
  std::vector<T> to_vector() const { return std::vector<T>(begin(), end()); }

 private:
  const T* data_ = nullptr;
  std::size_t size_ = 0;
};

template <typename T>
bool operator==(Span<T> a, Span<T> b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}
template <typename T>
bool operator!=(Span<T> a, Span<T> b) {
  return !(a == b);
}
template <typename T>
bool operator==(Span<T> a, const std::vector<T>& b) {
  return a == Span<T>(b);
}
template <typename T>
bool operator==(const std::vector<T>& a, Span<T> b) {
  return Span<T>(a) == b;
}
template <typename T>
bool operator!=(Span<T> a, const std::vector<T>& b) {
  return !(a == b);
}
template <typename T>
bool operator!=(const std::vector<T>& a, Span<T> b) {
  return !(a == b);
}

/// Rows of variable length packed into one flat array (CSR form).
template <typename T>
class CsrArray {
 public:
  CsrArray() : offsets_(1, 0) {}

  /// Builds from per-row sizes, leaving values default-initialized; fill
  /// through mutable_row() afterwards.
  static CsrArray from_sizes(const std::vector<std::size_t>& sizes) {
    CsrArray csr;
    csr.assign_sizes(sizes.data(), sizes.size());
    return csr;
  }

  /// In-place form of from_sizes: rebuilds the row structure reusing the
  /// existing storage (grow-only, so repeated builds of same-scale arrays
  /// allocate nothing in steady state).  Values are left unspecified; fill
  /// through mutable_row().
  void assign_sizes(const std::size_t* sizes, std::size_t count) {
    offsets_.resize(count + 1);
    offsets_[0] = 0;
    std::size_t total = 0;
    for (std::size_t i = 0; i < count; ++i) {
      total += sizes[i];
      offsets_[i + 1] = total;
    }
    values_.resize(total);
  }

  /// Reserves room for `rows` more rows holding `values` more values, so
  /// the push_row() calls that follow do not reallocate.
  void reserve(std::size_t rows, std::size_t values) {
    offsets_.reserve(offsets_.size() + rows);
    values_.reserve(values_.size() + values);
  }

  /// Appends one row holding [first, last).
  template <typename It>
  void push_row(It first, It last) {
    values_.insert(values_.end(), first, last);
    offsets_.push_back(values_.size());
  }

  /// Removes the rows that hold no values; the values stay as they are.
  void drop_empty_rows() {
    offsets_.erase(std::unique(offsets_.begin(), offsets_.end()),
                   offsets_.end());
  }

  std::size_t num_rows() const { return offsets_.size() - 1; }
  std::size_t total_values() const { return values_.size(); }

  Span<T> row(std::size_t i) const {
    OSP_ASSERT(i + 1 < offsets_.size());
    return Span<T>(values_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]);
  }

  std::size_t row_size(std::size_t i) const {
    return offsets_[i + 1] - offsets_[i];
  }

  T* mutable_row(std::size_t i) { return values_.data() + offsets_[i]; }

  const std::vector<T>& values() const { return values_; }
  const std::vector<std::size_t>& offsets() const { return offsets_; }

 private:
  std::vector<std::size_t> offsets_;  // size num_rows + 1, offsets_[0] == 0
  std::vector<T> values_;
};

/// A contiguous run of arrivals [first, first + count), viewed CSR-style:
/// record i is element first + i with capacity capacities[i] and candidate
/// span candidates[offsets[i] .. offsets[i+1]).  Offsets index into the
/// block owner's full candidate array, so a block at any position borrows
/// the storage zero-copy (Instance::arrival_block just shifts pointers).
/// This is what OnlineAlgorithm::decide_batch consumes.
struct ArrivalBlock {
  ElementId first = 0;
  std::size_t count = 0;
  const Capacity* capacities = nullptr;  // capacities[i] = b(first + i)
  const SetId* candidates = nullptr;     // base of the flat candidate array
  const std::size_t* offsets = nullptr;  // count + 1 entries into candidates

  ElementId element(std::size_t i) const {
    return first + static_cast<ElementId>(i);
  }
  Capacity capacity(std::size_t i) const { return capacities[i]; }
  std::size_t num_candidates(std::size_t i) const {
    return offsets[i + 1] - offsets[i];
  }
  const SetId* candidates_of(std::size_t i) const {
    return candidates + offsets[i];
  }
  Span<SetId> candidate_span(std::size_t i) const {
    return Span<SetId>(candidates_of(i), num_candidates(i));
  }
};

/// Caller-owned flat output of one decide_batch call: the choices of block
/// record i are ids[offsets[i] .. offsets[i+1]).  Buffers grow on demand
/// and are reused across calls — ids is never shrunk, so its size may
/// exceed the valid region [0, offsets.back()) and steady-state blocks
/// allocate (and memset) nothing.  Offsets are 32-bit on purpose — a
/// block's total choice count must fit in std::uint32_t (blocks are
/// engine-sized chunks, not whole runs), and the narrower offsets halve
/// the output traffic of the hot kernels.
struct BlockChoices {
  std::vector<std::uint32_t> offsets;  // count + 1 once filled, [0] == 0
  std::vector<SetId> ids;              // choices in [0, offsets.back())

  std::size_t num_chosen(std::size_t i) const {
    return offsets[i + 1] - offsets[i];
  }
  const SetId* chosen_of(std::size_t i) const {
    return ids.data() + offsets[i];
  }
  Span<SetId> row(std::size_t i) const {
    return Span<SetId>(chosen_of(i), num_chosen(i));
  }
};

/// Shared prologue of every decide_batch implementation: sizes `out` for
/// `block` and returns the output bound.  The block's total candidate
/// count bounds every possible choice count (a record chooses at most
/// min(b(u), sigma(u)) <= sigma(u)) in O(1); ids is grown once and never
/// shrunk, so warm blocks touch no allocator and memset nothing.
inline std::size_t prepare_block_output(const ArrivalBlock& block,
                                        BlockChoices& out) {
  out.offsets.resize(block.count + 1);
  out.offsets[0] = 0;
  const std::size_t bound =
      block.count == 0 ? 0 : block.offsets[block.count] - block.offsets[0];
  OSP_REQUIRE_MSG(bound <= 0xffffffffULL,
                  "arrival block too large: choice offsets are 32-bit");
  if (out.ids.size() < bound) out.ids.resize(bound);
  return bound;
}

}  // namespace osp
