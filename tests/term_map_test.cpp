// PackedTermMap against std::unordered_map: randomized inserts, merges to
// zero and erasures in small tables, so probe runs wrap the arena's end and
// erasure shifts entries across it; growth after erasures; copy, move,
// operator== and iteration; and the exact arena footprint.

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "abstraction/term_map.h"
#include "gf2/gf2_poly.h"

namespace gfa {
namespace {

using Map = PackedTermMap<Gf2Poly>;
using Oracle = std::unordered_map<PackedMono, Gf2Poly, PackedMonoHash>;

/// Deterministic splitmix64 stream.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    state += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

/// One of `keys` distinct monomials: mostly 1–2 variables, a few spilled
/// (7 variables) so spilled keys move through erase shifts and growth.
PackedMono key_of(std::uint64_t i) {
  if (i % 13 == 12) {
    std::vector<VarId> ids;
    for (VarId v = 0; v < 7; ++v) ids.push_back(static_cast<VarId>(i * 8 + v));
    return PackedMono::from_sorted(ids.data(), ids.size());
  }
  if (i % 2 == 0) return PackedMono{static_cast<VarId>(i)};
  return PackedMono{static_cast<VarId>(i), static_cast<VarId>(i + 100000)};
}

void expect_same(const Map& m, const Oracle& o) {
  ASSERT_EQ(m.size(), o.size());
  ASSERT_EQ(m.empty(), o.empty());
  std::size_t seen = 0;
  for (const auto& [k, v] : m) {
    ++seen;
    const auto it = o.find(k);
    ASSERT_NE(it, o.end()) << k;
    EXPECT_EQ(v, it->second) << k;
  }
  EXPECT_EQ(seen, o.size());
  for (const auto& [k, v] : o) {
    const auto it = m.find(k);
    ASSERT_NE(it, m.end()) << k;
    EXPECT_EQ(it->second, v);
    EXPECT_EQ(m.at(k), v);
  }
}

/// Capacity as the map reports it through the arena footprint.
std::size_t capacity(const Map& m) {
  return m.allocated_bytes() / (sizeof(Map::value_type) + 1);
}

TEST(PackedTermMap, RandomizedOpsMatchUnorderedMap) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng{seed};
    // Few distinct keys keep the table at 16–64 slots, so runs wrap.
    const std::uint64_t keys = 8 + 8 * seed;
    Map m;
    Oracle o;
    for (int step = 0; step < 4000; ++step) {
      const PackedMono k = key_of(rng.below(keys));
      const std::uint64_t r = rng.below(10);
      if (r < 6) {
        // Add a coefficient: insert, merge, or merge to zero and erase.
        const Gf2Poly c = Gf2Poly::from_bits(1 + rng.below(3));
        auto [it, inserted] = m.try_emplace(k, c);
        if (!inserted) {
          it->second += c;
          if (it->second.is_zero()) m.erase(it);
        }
        auto [ot, oins] = o.try_emplace(k, c);
        if (!oins) {
          ot->second += c;
          if (ot->second.is_zero()) o.erase(ot);
        }
        EXPECT_EQ(inserted, oins);
      } else if (r < 9) {
        EXPECT_EQ(m.erase(k), o.erase(k));
      } else {
        EXPECT_EQ(m.find(k) == m.end(), o.find(k) == o.end());
      }
      if (step % 97 == 0) expect_same(m, o);
    }
    expect_same(m, o);
    // Growth after erasures: refill past the old capacity.
    const std::size_t before = capacity(m);
    for (std::uint64_t i = 0; i < 4 * before; ++i) {
      const PackedMono k = key_of(1000 + i);
      m.try_emplace(k, Gf2Poly::from_bits(i + 1));
      o.try_emplace(k, Gf2Poly::from_bits(i + 1));
    }
    expect_same(m, o);
    EXPECT_GT(capacity(m), before);
  }
}

TEST(PackedTermMap, EraseEveryOtherKeyThenReinsert) {
  Map m;
  Oracle o;
  for (std::uint64_t i = 0; i < 11; ++i) {  // 11 of 16 slots: long runs
    m.try_emplace(key_of(2 * i), Gf2Poly::from_bits(i + 1));
    o.try_emplace(key_of(2 * i), Gf2Poly::from_bits(i + 1));
  }
  ASSERT_EQ(capacity(m), 16u);
  for (std::uint64_t i = 0; i < 11; i += 2) {
    EXPECT_EQ(m.erase(key_of(2 * i)), 1u);
    o.erase(key_of(2 * i));
    expect_same(m, o);
  }
  for (std::uint64_t i = 0; i < 11; i += 2) {
    m.try_emplace(key_of(2 * i), Gf2Poly::from_bits(7));
    o.try_emplace(key_of(2 * i), Gf2Poly::from_bits(7));
  }
  expect_same(m, o);
  EXPECT_EQ(capacity(m), 16u);  // erasure never grows the arena
}

TEST(PackedTermMap, CopyMoveAndEquality) {
  Map a;
  for (std::uint64_t i = 0; i < 40; ++i)
    a.try_emplace(key_of(i), Gf2Poly::from_bits(i + 1));
  for (std::uint64_t i = 0; i < 40; i += 3) a.erase(key_of(i));
  Map b = a;
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a != b);
  b.at(key_of(1)) += Gf2Poly::one();
  EXPECT_FALSE(a == b);
  b.at(key_of(1)) += Gf2Poly::one();
  EXPECT_TRUE(a == b);
  // The same entries inserted in another order into a different capacity.
  Map c;
  c.reserve(500);
  for (std::uint64_t i = 40; i-- > 0;)
    if (i % 3 != 0) c.try_emplace(key_of(i), Gf2Poly::from_bits(i + 1));
  EXPECT_TRUE(a == c);
  EXPECT_NE(a.allocated_bytes(), c.allocated_bytes());
  Map d = std::move(c);
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.begin(), c.end());
  EXPECT_EQ(c.allocated_bytes(), 0u);
  EXPECT_TRUE(a == d);
  Map e;
  e = std::move(d);
  EXPECT_TRUE(a == e);
  e = a;
  EXPECT_TRUE(a == e);
  e.clear();
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.begin(), e.end());
  EXPECT_EQ(e.find(key_of(1)), e.end());
}

TEST(PackedTermMap, AllocatedBytesIsCapacityTimesSlotFootprint) {
  Map m;
  EXPECT_EQ(m.allocated_bytes(), 0u);
  const std::size_t slot = sizeof(Map::value_type) + 1;
  std::size_t cap = 16;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    m.try_emplace(key_of(i), Gf2Poly::one());
    // Growth doubles at 3/4 load.
    while (m.size() * 4 > cap * 3) cap *= 2;
    ASSERT_EQ(m.allocated_bytes(), cap * slot) << i;
  }
  for (std::uint64_t i = 0; i < 1000; ++i) m.erase(key_of(i));
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.allocated_bytes(), cap * slot);  // erasure never shrinks
}

}  // namespace
}  // namespace gfa
