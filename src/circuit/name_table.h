#pragma once
// Open-addressed index from net names to dense ids (parser and Netlist).
//
// The table holds no names. Each slot is a (hash tag, id) pair, and a probe
// fetches a candidate's name through the caller's `name_of(id)` only when
// the 32-bit tags match, so a lookup almost never touches a name it does
// not return. The owner keeps the names (Netlist in its gates, the parser
// in views of the text). Capacity is a power of two at most half full,
// linear probing, no erasure; a rehash moves slots by their tags alone.

#include <cstdint>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

namespace gfa {

class NameTable {
 public:
  static constexpr std::uint32_t kNoId = UINT32_MAX;

  /// The tag of `name`: a full-avalanche hash, eight bytes per step.
  static std::uint32_t hash(std::string_view name) {
    constexpr std::uint64_t kMul = 0xff51afd7ed558ccdull;
    std::uint64_t h = 0x9e3779b97f4a7c15ull ^ name.size();
    const char* p = name.data();
    std::size_t n = name.size();
    for (; n >= 8; p += 8, n -= 8) {
      std::uint64_t w;
      std::memcpy(&w, p, 8);
      h = (h ^ w) * kMul;
      h ^= h >> 32;
    }
    if (n != 0) {
      std::uint64_t w = 0;
      for (std::size_t i = 0; i < n; ++i)
        w |= std::uint64_t{static_cast<unsigned char>(p[i])} << (8 * i);
      h = (h ^ w) * kMul;
      h ^= h >> 32;
    }
    h *= 0xc4ceb9fe1a85ec53ull;
    return static_cast<std::uint32_t>(h ^ (h >> 29));
  }

  std::size_t size() const { return size_; }

  /// Room for `n` names without a rehash.
  void reserve(std::size_t n) {
    std::size_t cap = slots_.empty() ? kMinCapacity : slots_.size();
    while (cap < 2 * n) cap *= 2;
    if (cap > slots_.size()) rehash(cap);
  }

  /// Warms the slot a find or insert of a name with hash() `tag` probes
  /// first. Advisory only.
  void prefetch(std::uint32_t tag) const {
    if (!slots_.empty()) __builtin_prefetch(&slots_[tag & (slots_.size() - 1)]);
  }

  /// The id named `name` (whose hash() is `tag`), or kNoId.
  template <class NameOf>
  std::uint32_t find(std::string_view name, std::uint32_t tag,
                     const NameOf& name_of) const {
    if (slots_.empty()) return kNoId;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = tag & mask;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.id == kNoId) return kNoId;
      if (s.tag == tag && name_of(s.id) == name) return s.id;
    }
  }

  /// Inserts `id` under `name` (hash() `tag`) unless the name is present.
  /// Returns the id now under the name and whether it is the new one.
  template <class NameOf>
  std::pair<std::uint32_t, bool> insert(std::string_view name,
                                        std::uint32_t tag, std::uint32_t id,
                                        const NameOf& name_of) {
    if (2 * (size_ + 1) > slots_.size())
      rehash(slots_.empty() ? kMinCapacity : 2 * slots_.size());
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = tag & mask;; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.id == kNoId) {
        s = Slot{tag, id};
        ++size_;
        return {id, true};
      }
      if (s.tag == tag && name_of(s.id) == name) return {s.id, false};
    }
  }

 private:
  struct Slot {
    std::uint32_t tag = 0;
    std::uint32_t id = kNoId;
  };
  static constexpr std::size_t kMinCapacity = 16;

  void rehash(std::size_t cap) {
    std::vector<Slot> old(cap);
    old.swap(slots_);
    const std::size_t mask = cap - 1;
    for (const Slot& s : old) {
      if (s.id == kNoId) continue;
      std::size_t i = s.tag & mask;
      while (slots_[i].id != kNoId) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace gfa
