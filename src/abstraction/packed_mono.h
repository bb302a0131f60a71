#pragma once
// Packed multilinear monomials (the PolyBoRi lesson, arXiv:0801.1177):
// Boolean-ring monomials deserve a specialized layout, not a generic
// std::vector key. A PackedMono is a strictly-increasing VarId set stored
// inline in two 64-bit words whenever it fits — which is essentially always
// for gate-level reduction chains, where monomials are the 1- and 2-variable
// partial products of a multiplier — and spilled to a pooled heap buffer for
// the rare wide monomial (deep OR cones) or huge net id.
//
// Inline layout (little-endian bit offsets within the two words):
//
//   w0  [ 0.. 3)  count 0..6 (the value 7 tags the spilled form)
//       [ 3.. 4)  reserved, zero
//       [ 4..24)  id[0]     [24..44) id[1]     [44..64) id[2]
//   w1  [ 0..20)  id[3]     [20..40) id[4]     [40..60) id[5]
//       [60..64)  reserved, zero
//
// Spilled layout: w0 = (count << 3) | 7, w1 = pointer to a VarId buffer from
// the thread-local spill pool (see packed_mono_pool_stats). A monomial spills
// iff it has more than 6 variables or any id >= 2^20; for a given id set the
// choice is therefore *canonical* — equality and hashing never compare across
// forms, and the inline fast paths stay branch-light.
//
// This is BitMono (bitpoly.h): the circuit-variable phase (rewriter chain,
// extractor, hierarchy) runs entirely on PackedMono keys; the word-level
// BigUint-exponent endgame (word_lift, equivalence) stays on the generic
// MPoly ring.

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <ostream>
#include <vector>

#include "poly/varpool.h"

namespace gfa {

namespace detail {

/// Thread-local size-classed free lists backing spilled monomials. Buffers
/// are recycled within the freeing thread (a spill built on one thread and
/// freed on another simply joins the freeing thread's pool); each class
/// caches a bounded number of buffers and falls back to operator new beyond
/// that.
VarId* spill_alloc(std::size_t n);
void spill_free(VarId* p, std::size_t n) noexcept;
/// Bytes the pool accounts for an n-id spill buffer (its size class, not n).
std::size_t spill_capacity_bytes(std::size_t n) noexcept;

}  // namespace detail

/// Allocation/recycle counters for the spill pool, summed across threads.
/// live_bytes is the current footprint of outstanding spill buffers — the
/// number the rewriter folds into its rewriter.terms budget lease.
struct SpillPoolStats {
  std::uint64_t allocs = 0;     // spill buffers handed out
  std::uint64_t pool_hits = 0;  // ... of which came from a free list
  std::uint64_t frees = 0;      // buffers returned
  std::uint64_t live_bytes = 0; // outstanding buffer bytes right now
};
SpillPoolStats packed_mono_pool_stats();

class PackedMono {
 public:
  static constexpr std::size_t kMaxInline = 6;
  static constexpr VarId kMaxInlineId = (VarId{1} << 20) - 1;

  PackedMono() = default;

  /// Sorts and deduplicates, so brace lists read like variable sets.
  PackedMono(std::initializer_list<VarId> ids);

  /// `ids[0..n)` must be strictly increasing (the class invariant). The
  /// inline-form path is header-inline — it is the single hottest
  /// constructor in the reduction chain (every tail term, every stripped
  /// monomial) and compiles to a handful of shifts.
  static PackedMono from_sorted(const VarId* ids, std::size_t n) {
    if (n <= kMaxInline && (n == 0 || ids[n - 1] <= kMaxInlineId)) {
      PackedMono m;
      m.w0_ = static_cast<std::uint64_t>(n);
      for (std::size_t i = 0; i < n && i < 3; ++i)
        m.w0_ |= static_cast<std::uint64_t>(ids[i]) << (4 + 20 * i);
      for (std::size_t i = 3; i < n; ++i)
        m.w1_ |= static_cast<std::uint64_t>(ids[i]) << (20 * (i - 3));
      return m;
    }
    return spill_from(ids, n);
  }

  PackedMono(const PackedMono& o) { copy_from(o); }
  PackedMono(PackedMono&& o) noexcept : w0_(o.w0_), w1_(o.w1_) {
    o.w0_ = 0;
    o.w1_ = 0;
  }
  PackedMono& operator=(const PackedMono& o) {
    if (this != &o) {
      destroy();
      copy_from(o);
    }
    return *this;
  }
  PackedMono& operator=(PackedMono&& o) noexcept {
    if (this != &o) {
      destroy();
      w0_ = o.w0_;
      w1_ = o.w1_;
      o.w0_ = 0;
      o.w1_ = 0;
    }
    return *this;
  }
  ~PackedMono() { destroy(); }

  bool spilled() const { return (w0_ & 7u) == 7u; }
  std::size_t size() const {
    return spilled() ? static_cast<std::size_t>(w0_ >> 3)
                     : static_cast<std::size_t>(w0_ & 7u);
  }
  bool empty() const { return w0_ == 0; }

  VarId operator[](std::size_t i) const {
    return spilled() ? spill_ptr()[i] : inline_id(i);
  }

  /// Bytes held outside the two inline words (0 unless spilled); what the
  /// budget accounting adds on top of the term-map slot.
  std::size_t spill_bytes() const {
    return spilled() ? detail::spill_capacity_bytes(size()) : 0;
  }

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = VarId;
    using difference_type = std::ptrdiff_t;
    using pointer = const VarId*;
    using reference = VarId;

    const_iterator() = default;
    const_iterator(const PackedMono* m, std::size_t i) : m_(m), i_(i) {}
    VarId operator*() const { return (*m_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator c = *this;
      ++i_;
      return c;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }

   private:
    const PackedMono* m_ = nullptr;
    std::size_t i_ = 0;
  };
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size()}; }

  bool operator==(const PackedMono& o) const {
    if (w0_ != o.w0_) return false;
    if (!spilled()) return w1_ == o.w1_;
    const VarId* a = spill_ptr();
    const VarId* b = o.spill_ptr();
    for (std::size_t i = 0, n = size(); i < n; ++i)
      if (a[i] != b[i]) return false;
    return true;
  }
  bool operator!=(const PackedMono& o) const { return !(*this == o); }

  /// Lexicographic over the id sequence (shorter prefix first) — the same
  /// order std::vector<VarId>::operator< induces, so sorted renderings and
  /// serializations agree across representations.
  bool operator<(const PackedMono& o) const {
    const std::size_t n = size(), m = o.size();
    const std::size_t c = n < m ? n : m;
    for (std::size_t i = 0; i < c; ++i) {
      const VarId a = (*this)[i], b = o[i];
      if (a != b) return a < b;
    }
    return n < m;
  }

  /// Full-avalanche hash. Inline monomials mix the two words directly —
  /// no per-id loop, the point of packing — with distinct salts per word so
  /// id slots in w0 and w1 never cancel.
  std::uint64_t hash() const {
    if (!spilled()) {
      return mix(w0_ + 0x9e3779b97f4a7c15ull) ^
             mix(w1_ + 0xd1b54a32d192ed03ull);
    }
    std::uint64_t h = 0x9e3779b97f4a7c15ull * (size() + 1);
    for (VarId v : *this) h = mix(h + 0x9e3779b97f4a7c15ull + v);
    return h;
  }

  /// This monomial with one occurrence of `v` removed (a no-op when absent):
  /// the rewriter's "strip the substituted variable" step. Re-canonicalizes,
  /// so a 7-variable spill dropping to 6 returns to the inline form. The
  /// inline form filters through a stack buffer without touching the heap.
  PackedMono without(VarId v) const {
    if (!spilled()) {
      VarId buf[kMaxInline];
      const std::size_t n = static_cast<std::size_t>(w0_ & 7u);
      std::size_t j = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const VarId x = inline_id(i);
        if (x != v) buf[j++] = x;
      }
      return from_sorted(buf, j);
    }
    return without_spilled(v);
  }

  /// The ids as a plain vector.
  std::vector<VarId> ids() const { return std::vector<VarId>(begin(), end()); }

 private:
  friend PackedMono packed_mono_mul(const PackedMono&, const PackedMono&);

  static std::uint64_t mix(std::uint64_t z) {
    z ^= z >> 30;
    z *= 0xbf58476d1ce4e5b9ull;
    z ^= z >> 27;
    z *= 0x94d049bb133111ebull;
    z ^= z >> 31;
    return z;
  }

  VarId inline_id(std::size_t i) const {
    const std::uint64_t w = i < 3 ? w0_ >> (4 + 20 * i) : w1_ >> (20 * (i - 3));
    return static_cast<VarId>(w & 0xFFFFFu);
  }

  const VarId* spill_ptr() const {
    return reinterpret_cast<const VarId*>(static_cast<std::uintptr_t>(w1_));
  }
  VarId* spill_ptr() {
    return reinterpret_cast<VarId*>(static_cast<std::uintptr_t>(w1_));
  }

  void destroy() noexcept {
    if (spilled()) detail::spill_free(spill_ptr(), size());
  }
  void copy_from(const PackedMono& o);
  static PackedMono spill_from(const VarId* ids, std::size_t n);
  PackedMono without_spilled(VarId v) const;

  std::uint64_t w0_ = 0;
  std::uint64_t w1_ = 0;
};

/// Spilled-operand fallback for packed_mono_mul below.
PackedMono packed_mono_mul_spilled(const PackedMono& a, const PackedMono& b);

/// Union of two monomials — x² = x collapses duplicates (multilinear mul).
/// Two inline operands merge through a stack buffer entirely in the header
/// (the reduction chain's innermost operation); any spilled operand takes
/// the out-of-line path.
inline PackedMono packed_mono_mul(const PackedMono& a, const PackedMono& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  if (!a.spilled() && !b.spilled()) {
    VarId buf[2 * PackedMono::kMaxInline];
    const std::size_t na = a.size(), nb = b.size();
    std::size_t i = 0, j = 0, n = 0;
    while (i < na && j < nb) {
      const VarId x = a.inline_id(i), y = b.inline_id(j);
      if (x < y) {
        buf[n++] = x;
        ++i;
      } else if (y < x) {
        buf[n++] = y;
        ++j;
      } else {
        buf[n++] = x;
        ++i;
        ++j;
      }
    }
    for (; i < na; ++i) buf[n++] = a.inline_id(i);
    for (; j < nb; ++j) buf[n++] = b.inline_id(j);
    return PackedMono::from_sorted(buf, n);
  }
  return packed_mono_mul_spilled(a, b);
}

struct PackedMonoHash {
  std::size_t operator()(const PackedMono& m) const {
    return static_cast<std::size_t>(m.hash());
  }
};

/// Renders as {1,4,9} — test failure messages, not a serialization.
std::ostream& operator<<(std::ostream& os, const PackedMono& m);

}  // namespace gfa
