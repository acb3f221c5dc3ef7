// DynamicBitset: a fixed-capacity, heap-compact bitset sized at run
// time, with small-buffer optimization. Category sets inside the DIMSAT
// search (subhierarchy node sets, In*/ancestor sets, frontier sets) are
// DynamicBitsets; schemas are at most a few hundred categories, so the
// words live in an inline array (kInlineWords * 64 bits) and copying or
// constructing a set on the EXPAND hot path touches no allocator at
// all. Larger universes transparently spill to a heap vector — nothing
// caps the schema size, only the fast path assumes it is small.
//
// Every bulk operation is one plain word loop. The sets DIMSAT builds
// for the paper's schemas and the generated workloads are one or two
// words long, where loop overhead, not data width, is the cost.

#ifndef OLAPDC_COMMON_BITSET_H_
#define OLAPDC_COMMON_BITSET_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace olapdc {

/// A set of small non-negative integers (node ids) backed by 64-bit
/// words. Size is fixed at construction; all binary operations require
/// operands of equal size. Universes up to kInlineWords * 64 elements
/// are stored inline (no heap allocation, copies are plain memcpy).
class DynamicBitset {
 public:
  /// Inline capacity in words: 512 elements cover every schema the
  /// paper's workloads (and our generators) produce with room to
  /// spare.
  static constexpr int kInlineWords = 8;
  static constexpr int kInlineBits = kInlineWords * 64;

  DynamicBitset() = default;

  /// Creates an empty set over the universe {0, ..., size-1}.
  explicit DynamicBitset(int size)
      : size_(size), num_words_((size + 63) / 64) {
    OLAPDC_CHECK(size >= 0);
    if (num_words_ > kInlineWords) heap_.assign(num_words_, 0);
  }

  DynamicBitset(const DynamicBitset&) = default;
  DynamicBitset& operator=(const DynamicBitset&) = default;
  DynamicBitset(DynamicBitset&&) = default;
  DynamicBitset& operator=(DynamicBitset&&) = default;

  int size() const { return size_; }

  /// Bytes one set over a universe of `size` elements occupies: the
  /// object itself plus its heap words once the universe outgrows the
  /// inline buffer. The memory governor's unit for category sets
  /// (common/memory_budget.h).
  static uint64_t Bytes(int size) {
    const uint64_t words = (static_cast<uint64_t>(size) + 63) / 64;
    return sizeof(DynamicBitset) + (words > kInlineWords ? words * 8 : 0);
  }

  bool test(int i) const {
    OLAPDC_DCHECK(0 <= i && i < size_);
    return (data()[i >> 6] >> (i & 63)) & 1;
  }

  void set(int i) {
    OLAPDC_DCHECK(0 <= i && i < size_);
    data()[i >> 6] |= uint64_t{1} << (i & 63);
  }

  void reset(int i) {
    OLAPDC_DCHECK(0 <= i && i < size_);
    data()[i >> 6] &= ~(uint64_t{1} << (i & 63));
  }

  void clear() {
    uint64_t* w = data();
    for (int i = 0; i < num_words_; ++i) w[i] = 0;
  }

  bool any() const {
    const uint64_t* w = data();
    for (int i = 0; i < num_words_; ++i)
      if (w[i]) return true;
    return false;
  }

  bool none() const { return !any(); }

  int count() const {
    const uint64_t* w = data();
    int count = 0;
    for (int i = 0; i < num_words_; ++i) count += __builtin_popcountll(w[i]);
    return count;
  }

  /// In-place union.
  DynamicBitset& operator|=(const DynamicBitset& o) {
    OLAPDC_DCHECK(size_ == o.size_);
    uint64_t* w = data();
    const uint64_t* v = o.data();
    for (int i = 0; i < num_words_; ++i) w[i] |= v[i];
    return *this;
  }

  /// In-place intersection.
  DynamicBitset& operator&=(const DynamicBitset& o) {
    OLAPDC_DCHECK(size_ == o.size_);
    uint64_t* w = data();
    const uint64_t* v = o.data();
    for (int i = 0; i < num_words_; ++i) w[i] &= v[i];
    return *this;
  }

  /// In-place difference (this \ o).
  DynamicBitset& operator-=(const DynamicBitset& o) {
    OLAPDC_DCHECK(size_ == o.size_);
    uint64_t* w = data();
    const uint64_t* v = o.data();
    for (int i = 0; i < num_words_; ++i) w[i] &= ~v[i];
    return *this;
  }

  friend DynamicBitset operator|(DynamicBitset a, const DynamicBitset& b) {
    a |= b;
    return a;
  }
  friend DynamicBitset operator&(DynamicBitset a, const DynamicBitset& b) {
    a &= b;
    return a;
  }
  friend DynamicBitset operator-(DynamicBitset a, const DynamicBitset& b) {
    a -= b;
    return a;
  }

  bool operator==(const DynamicBitset& o) const {
    if (size_ != o.size_) return false;
    const uint64_t* w = data();
    const uint64_t* v = o.data();
    for (int i = 0; i < num_words_; ++i)
      if (w[i] != v[i]) return false;
    return true;
  }
  bool operator!=(const DynamicBitset& o) const { return !(*this == o); }

  /// True if this and o share at least one element.
  bool Intersects(const DynamicBitset& o) const {
    OLAPDC_DCHECK(size_ == o.size_);
    const uint64_t* w = data();
    const uint64_t* v = o.data();
    for (int i = 0; i < num_words_; ++i)
      if (w[i] & v[i]) return true;
    return false;
  }

  /// True if some element of this is missing from o — the fused
  /// and-not-any the DIMSAT into-prune asks ("is any forced target
  /// outside the allowed set?") without materializing (this \ o).
  bool AndNotAny(const DynamicBitset& o) const {
    OLAPDC_DCHECK(size_ == o.size_);
    const uint64_t* w = data();
    const uint64_t* v = o.data();
    for (int i = 0; i < num_words_; ++i)
      if (w[i] & ~v[i]) return true;
    return false;
  }

  /// True if every element of this is in o.
  bool IsSubsetOf(const DynamicBitset& o) const { return !AndNotAny(o); }

  /// The smallest element, or -1 if empty.
  int First() const {
    const uint64_t* w = data();
    for (int i = 0; i < num_words_; ++i)
      if (w[i]) return i * 64 + __builtin_ctzll(w[i]);
    return -1;
  }

  /// The smallest element strictly greater than i, or -1 if none.
  int Next(int i) const {
    ++i;
    if (i >= size_) return -1;
    const uint64_t* words = data();
    int wi = i >> 6;
    uint64_t w = words[wi] & (~uint64_t{0} << (i & 63));
    while (true) {
      if (w) return wi * 64 + __builtin_ctzll(w);
      if (++wi >= num_words_) return -1;
      w = words[wi];
    }
  }

  /// Calls fn(i) for every element i in ascending order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (int i = First(); i >= 0; i = Next(i)) fn(i);
  }

  /// The elements as a sorted vector (for error messages and tests).
  std::vector<int> ToVector() const {
    std::vector<int> out;
    out.reserve(count());
    ForEach([&](int i) { out.push_back(i); });
    return out;
  }

  /// Hash over contents (for use as an unordered_map key).
  size_t Hash() const {
    const uint64_t* w = data();
    size_t h = static_cast<size_t>(size_);
    for (int i = 0; i < num_words_; ++i)
      h = h * 1099511628211ULL + static_cast<size_t>(w[i]);
    return h;
  }

 private:
  const uint64_t* data() const {
    return num_words_ <= kInlineWords ? inline_.data() : heap_.data();
  }
  uint64_t* data() {
    return num_words_ <= kInlineWords ? inline_.data() : heap_.data();
  }

  std::array<uint64_t, kInlineWords> inline_{};
  int size_ = 0;
  int num_words_ = 0;
  std::vector<uint64_t> heap_;
};

}  // namespace olapdc

#endif  // OLAPDC_COMMON_BITSET_H_
