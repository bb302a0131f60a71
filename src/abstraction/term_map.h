#pragma once
// Open-addressing term map keyed by PackedMono: the arena half of BitPoly
// (bitpoly.h). The generic unordered_map paid one node allocation plus a
// pointer chase per term; here every (monomial, coefficient) pair lives in a
// single contiguous slot array — the arena — probed linearly from the
// monomial's own full-avalanche hash.
//
// One control byte per slot says whether the slot is live and, when it is,
// how far the entry sits from its home slot (its displacement, saturating;
// a saturated byte falls back to rehashing the key). Slots are raw storage:
// an entry is constructed when inserted and destroyed when erased, so a new
// arena is never value-initialised and only the slots that are written are
// ever touched. Erasure shifts the rest of the probe run back into the hole
// (Knuth's Algorithm R, decided from the control bytes alone), so there are
// no tombstones and the arena only ever changes size by doubling.
//
// Semantics intentionally mirror the std::unordered_map subset the
// polynomial layer uses (try_emplace / find / at / erase(iterator) /
// iteration / operator==). Two deliberate differences:
//   * try_emplace takes the key by value (a PackedMono move is two words);
//   * erase invalidates iterators: it may move later entries back a slot.
// Callers that already hold a key's hash pass it to the `*_hashed` forms, so
// the reduction chain hashes each key once for its prefetch, find and insert.
//
// allocated_bytes() is exact (capacity × slot footprint), which the rewriter
// reports to the rewriter.terms ResourceBudget site.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <stdexcept>
#include <tuple>
#include <type_traits>
#include <utility>

#include "abstraction/packed_mono.h"

namespace gfa {

template <class V>
class PackedTermMap {
 public:
  using key_type = PackedMono;
  using mapped_type = V;
  using value_type = std::pair<PackedMono, V>;

  PackedTermMap() = default;
  ~PackedTermMap() { release(); }
  PackedTermMap(PackedTermMap&& o) noexcept { swap(o); }
  PackedTermMap& operator=(PackedTermMap&& o) noexcept {
    if (this != &o) {
      PackedTermMap tmp(std::move(o));
      swap(tmp);
    }
    return *this;
  }
  PackedTermMap(const PackedTermMap& o) {
    reserve(o.size_);
    for (std::size_t i = 0; i < o.cap_; ++i)
      if (o.ctrl_[i] != kEmpty)
        try_emplace(o.slots_[i].first, o.slots_[i].second);
  }
  PackedTermMap& operator=(const PackedTermMap& o) {
    if (this != &o) {
      PackedTermMap tmp(o);
      swap(tmp);
    }
    return *this;
  }

  template <bool Const>
  class iter {
   public:
    using value_type = typename PackedTermMap::value_type;
    using Map = std::conditional_t<Const, const PackedTermMap, PackedTermMap>;
    using Value = std::conditional_t<Const, const value_type, value_type>;
    using iterator_category = std::forward_iterator_tag;
    using difference_type = std::ptrdiff_t;
    using pointer = Value*;
    using reference = Value&;

    iter() = default;
    iter(Map* m, std::size_t i) : m_(m), i_(i) {}
    /// iterator -> const_iterator.
    template <bool C = Const, class = std::enable_if_t<C>>
    iter(const iter<false>& o) : m_(o.map()), i_(o.index()) {}

    Value& operator*() const { return m_->slots_[i_]; }
    Value* operator->() const { return &m_->slots_[i_]; }
    iter& operator++() {
      i_ = m_->next_full(i_ + 1);
      return *this;
    }
    iter operator++(int) {
      iter c = *this;
      ++*this;
      return c;
    }
    template <bool C>
    bool operator==(const iter<C>& o) const {
      return i_ == o.index();
    }
    template <bool C>
    bool operator!=(const iter<C>& o) const {
      return i_ != o.index();
    }

    Map* map() const { return m_; }
    std::size_t index() const { return i_; }

   private:
    Map* m_ = nullptr;
    std::size_t i_ = 0;
  };
  using iterator = iter<false>;
  using const_iterator = iter<true>;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  iterator begin() { return {this, next_full(0)}; }
  iterator end() { return {this, cap_}; }
  const_iterator begin() const { return {this, next_full(0)}; }
  const_iterator end() const { return {this, cap_}; }

  iterator find(const PackedMono& key) { return find_hashed(key.hash(), key); }
  const_iterator find(const PackedMono& key) const {
    return {this, find_index(key.hash(), key)};
  }
  /// find() for a caller that already holds `h == key.hash()`.
  iterator find_hashed(std::uint64_t h, const PackedMono& key) {
    return {this, find_index(h, key)};
  }

  /// Warms the cache lines a find/try_emplace of the key with hash `h` will
  /// touch first. The reduction chain's probes are independent random
  /// accesses into a table far larger than L2; issuing the next term's
  /// prefetch before processing the current one overlaps the memory latency
  /// instead of serializing it. Purely advisory — no observable state
  /// changes.
  void prefetch(std::uint64_t h) const {
    if (cap_ == 0) return;
    const std::size_t i = h & (cap_ - 1);
    __builtin_prefetch(ctrl_.get() + i, 0, 1);
    __builtin_prefetch(slots_ + i, 0, 1);
  }

  V& at(const PackedMono& key) {
    const std::size_t i = find_index(key.hash(), key);
    if (i == cap_) throw std::out_of_range("PackedTermMap::at: no such key");
    return slots_[i].second;
  }
  const V& at(const PackedMono& key) const {
    return const_cast<PackedTermMap*>(this)->at(key);
  }

  /// Inserts (key, V(args...)) unless the key is present; mirrors
  /// unordered_map::try_emplace but takes the key by value (two-word move).
  template <class... Args>
  std::pair<iterator, bool> try_emplace(PackedMono key, Args&&... args) {
    const std::uint64_t h = key.hash();
    return try_emplace_hashed(h, std::move(key), std::forward<Args>(args)...);
  }

  /// try_emplace() for a caller that already holds `h == key.hash()`.
  template <class... Args>
  std::pair<iterator, bool> try_emplace_hashed(std::uint64_t h, PackedMono key,
                                               Args&&... args) {
    std::size_t i = 0, d = 0;
    if (cap_ != 0) {
      const std::size_t mask = cap_ - 1;
      for (i = h & mask; ctrl_[i] != kEmpty; i = (i + 1) & mask, ++d)
        if (slots_[i].first == key) return {iterator{this, i}, false};
    }
    if ((size_ + 1) * 4 > cap_ * 3) {
      grow();
      const std::size_t mask = cap_ - 1;
      for (i = h & mask, d = 0; ctrl_[i] != kEmpty; i = (i + 1) & mask) ++d;
    }
    ::new (static_cast<void*>(slots_ + i)) value_type(
        std::piecewise_construct, std::forward_as_tuple(std::move(key)),
        std::forward_as_tuple(std::forward<Args>(args)...));
    ctrl_[i] = encode(d);
    ++size_;
    return {iterator{this, i}, true};
  }

  /// Removes the entry at `it` and shifts the rest of its probe run back:
  /// every later entry whose home slot does not lie between the hole and
  /// itself moves into the hole, which then continues from the moved
  /// entry's old slot. Invalidates iterators.
  void erase(iterator it) {
    const std::size_t mask = cap_ - 1;
    std::size_t hole = it.index();
    slots_[hole].~value_type();
    for (std::size_t j = (hole + 1) & mask; ctrl_[j] != kEmpty;
         j = (j + 1) & mask) {
      const std::size_t d = displacement(j);
      const std::size_t gap = (j - hole) & mask;
      if (d < gap) continue;  // home lies in (hole, j]: stays reachable
      ::new (static_cast<void*>(slots_ + hole))
          value_type(std::move(slots_[j]));
      slots_[j].~value_type();
      ctrl_[hole] = encode(d - gap);
      hole = j;
    }
    ctrl_[hole] = kEmpty;
    --size_;
  }

  std::size_t erase(const PackedMono& key) {
    const std::size_t i = find_index(key.hash(), key);
    if (i == cap_) return 0;
    erase(iterator{this, i});
    return 1;
  }

  void clear() {
    for (std::size_t i = 0; i < cap_; ++i)
      if (ctrl_[i] != kEmpty) slots_[i].~value_type();
    if (cap_ != 0) std::memset(ctrl_.get(), kEmpty, cap_);
    size_ = 0;
  }

  void reserve(std::size_t n) {
    std::size_t want = kMinCapacity;
    while (n * 4 > want * 3) want *= 2;
    if (want > cap_) rehash(want);
  }

  /// Exact arena footprint: slots plus one control byte per slot.
  std::size_t allocated_bytes() const {
    return cap_ * (sizeof(value_type) + 1);
  }

  /// Arenas this map has moved its entries out of (growth or reserve): the
  /// work counter behind chain.rehashes.
  std::size_t rehashes() const { return rehashes_; }

  /// Number of slots a find(key) walks before terminating (hit or empty
  /// slot), counting the final one — so a first-slot hit is 1. Observability
  /// re-walk for the rewriter.probe_len histogram; never called on the hot
  /// probe itself.
  std::size_t probe_length(const PackedMono& key) const {
    if (cap_ == 0) return 0;
    std::size_t i = key.hash() & (cap_ - 1);
    std::size_t steps = 1;
    while (ctrl_[i] != kEmpty && !(slots_[i].first == key)) {
      i = (i + 1) & (cap_ - 1);
      ++steps;
    }
    return steps;
  }

  /// Unordered (set) equality, as unordered_map defines it.
  bool operator==(const PackedTermMap& o) const {
    if (size_ != o.size_) return false;
    for (std::size_t i = 0; i < cap_; ++i) {
      if (ctrl_[i] == kEmpty) continue;
      const std::size_t j = o.find_index(slots_[i].first.hash(), slots_[i].first);
      if (j == o.cap_ || !(o.slots_[j].second == slots_[i].second))
        return false;
    }
    return true;
  }
  bool operator!=(const PackedTermMap& o) const { return !(*this == o); }

 private:
  static constexpr std::size_t kMinCapacity = 16;
  // Control byte: kEmpty, or 1 + the entry's displacement from its home
  // slot; kFar stands for any displacement of kFar - 1 or more.
  static constexpr std::uint8_t kEmpty = 0, kFar = 255;

  static std::uint8_t encode(std::size_t d) {
    return d + 1 < kFar ? static_cast<std::uint8_t>(d + 1) : kFar;
  }
  std::size_t displacement(std::size_t i) const {
    const std::uint8_t c = ctrl_[i];
    if (c != kFar) return c - 1u;
    return (i - slots_[i].first.hash()) & (cap_ - 1);
  }

  void swap(PackedTermMap& o) noexcept {
    std::swap(slots_, o.slots_);
    std::swap(ctrl_, o.ctrl_);
    std::swap(cap_, o.cap_);
    std::swap(size_, o.size_);
    std::swap(rehashes_, o.rehashes_);
  }

  std::size_t next_full(std::size_t i) const {
    while (i < cap_ && ctrl_[i] == kEmpty) ++i;
    return i;
  }

  /// Index of `key` (hash `h`), or cap_ (== end) when absent.
  std::size_t find_index(std::uint64_t h, const PackedMono& key) const {
    if (cap_ == 0) return cap_;
    const std::size_t mask = cap_ - 1;
    for (std::size_t i = h & mask; ctrl_[i] != kEmpty; i = (i + 1) & mask)
      if (slots_[i].first == key) return i;
    return cap_;
  }

  void grow() { rehash(cap_ == 0 ? kMinCapacity : cap_ * 2); }

  /// Moves every entry into a fresh arena of `new_cap` slots. Only the
  /// control bytes are zeroed; slots stay raw until an entry lands in them.
  void rehash(std::size_t new_cap) {
    if (cap_ != 0) ++rehashes_;
    value_type* slots = std::allocator<value_type>{}.allocate(new_cap);
    auto ctrl = std::make_unique<std::uint8_t[]>(new_cap);  // zero == kEmpty
    const std::size_t mask = new_cap - 1;
    // Entries scatter into the new arrays at random; a large table's rehash
    // is therefore one cold miss per entry if placed naively. Run a small
    // window ahead of the placements and prefetch each entry's home line
    // before it is needed. Placement order (old-slot order) is unchanged —
    // the window only warms lines.
    constexpr std::size_t kWindow = 8;
    std::size_t look = 0;  // next old slot to prefetch
    std::size_t in_flight = 0;
    for (std::size_t i = 0; i < cap_; ++i) {
      if (ctrl_[i] == kEmpty) continue;
      while (in_flight < kWindow && look < cap_) {
        if (ctrl_[look] != kEmpty) {
          const std::size_t h = slots_[look].first.hash() & mask;
          __builtin_prefetch(ctrl.get() + h, 1, 1);
          __builtin_prefetch(slots + h, 1, 1);
          ++in_flight;
        }
        ++look;
      }
      if (in_flight > 0) --in_flight;
      std::size_t j = slots_[i].first.hash() & mask;
      std::size_t d = 0;
      for (; ctrl[j] != kEmpty; j = (j + 1) & mask) ++d;
      ::new (static_cast<void*>(slots + j)) value_type(std::move(slots_[i]));
      slots_[i].~value_type();
      ctrl[j] = encode(d);
    }
    if (slots_ != nullptr) std::allocator<value_type>{}.deallocate(slots_, cap_);
    slots_ = slots;
    ctrl_ = std::move(ctrl);
    cap_ = new_cap;
  }

  /// Destroys every entry and frees the arena.
  void release() noexcept {
    if (slots_ == nullptr) return;
    for (std::size_t i = 0; i < cap_; ++i)
      if (ctrl_[i] != kEmpty) slots_[i].~value_type();
    std::allocator<value_type>{}.deallocate(slots_, cap_);
    slots_ = nullptr;
  }

  value_type* slots_ = nullptr;  // raw storage; ctrl_ says which slots live
  std::unique_ptr<std::uint8_t[]> ctrl_;
  std::size_t cap_ = 0;
  std::size_t size_ = 0;
  std::size_t rehashes_ = 0;
};

}  // namespace gfa
