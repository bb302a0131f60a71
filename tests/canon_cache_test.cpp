// Tests for the service's canonical-form plumbing: the hex word codec and
// WordFunction serialization (abstraction/canon_serial.h), the CRC-guarded
// content-addressed cache (service/canon_cache.h) including the
// "cache:corrupt" fault site and LRU eviction, the CRC and netlist content
// hash the cache and the service quarantine key on (worker/checkpoint.h), and
// directory hygiene (worker::ensure_directory).

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdlib>
#include <fstream>
#include <string>

#include "abstraction/canon_serial.h"
#include "abstraction/equivalence.h"
#include "abstraction/extractor.h"
#include "circuit/mastrovito.h"
#include "circuit/montgomery.h"
#include "service/canon_cache.h"
#include "util/fault_inject.h"
#include "worker/checkpoint.h"

namespace gfa {
namespace {

struct Disarmer {
  ~Disarmer() { fault::disarm(); }
};

std::string temp_dir() {
  std::string tmpl = ::testing::TempDir() + "gfa_canon_XXXXXX";
  const char* dir = mkdtemp(tmpl.data());
  EXPECT_NE(dir, nullptr);
  return dir;
}

// ---------------------------------------------------------------------------
// Hex word codec.

TEST(CanonSerial, HexCodecRoundTrips) {
  const std::vector<std::uint64_t> cases[] = {
      {},                      // zero
      {1},
      {0xdeadbeefull},
      {0xffffffffffffffffull},
      {0, 1},                  // 2^64
      {0x0123456789abcdefull, 0xfedcba9876543210ull, 7},
  };
  for (const auto& words : cases) {
    const std::string hex = hex_of_words(words);
    const Result<std::vector<std::uint64_t>> back = words_of_hex(hex);
    ASSERT_TRUE(back.ok()) << hex;
    EXPECT_EQ(*back, words) << hex;
  }
  EXPECT_EQ(hex_of_words({}), "0");
  EXPECT_EQ(hex_of_words(std::vector<std::uint64_t>{0x1a2b}), "1a2b");
}

TEST(CanonSerial, HexCodecRejectsGarbage) {
  EXPECT_FALSE(words_of_hex("").ok());
  EXPECT_FALSE(words_of_hex("12g4").ok());
  EXPECT_FALSE(words_of_hex("0x12").ok());
}

// ---------------------------------------------------------------------------
// Canonical-form serialization.

TEST(CanonSerial, WordFunctionRoundTripsAndStillMatches) {
  const Gf2k field = Gf2k::make(8);
  const Netlist spec = make_mastrovito_multiplier(field);
  const WordFunction original = extract_word_function(spec, field);

  const std::string payload = encode_canon_form(original);
  const Result<WordFunction> decoded = decode_canon_form(payload, field);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();

  EXPECT_EQ(decoded->output_word, original.output_word);
  EXPECT_EQ(decoded->input_words, original.input_words);
  EXPECT_EQ(decoded->g.terms().size(), original.g.terms().size());
  // The decoded form must be interchangeable with the fresh one in the
  // coefficient match — both directions, and against the *other* circuit.
  EXPECT_TRUE(same_word_function(*decoded, original));
  const WordFunction other =
      extract_word_function(make_montgomery_multiplier_flat(field), field);
  EXPECT_TRUE(same_word_function(*decoded, other));
  // And a second round trip is bit-identical (canonical serialization).
  EXPECT_EQ(encode_canon_form(*decoded), payload);
}

TEST(CanonSerial, DecodeRejectsDamage) {
  const Gf2k field = Gf2k::make(4);
  const WordFunction fn =
      extract_word_function(make_mastrovito_multiplier(field), field);
  const std::string payload = encode_canon_form(fn);

  EXPECT_FALSE(decode_canon_form("", field).ok());
  EXPECT_FALSE(decode_canon_form("not json", field).ok());
  EXPECT_FALSE(decode_canon_form("{}", field).ok());
  // Version skew.
  std::string skewed = payload;
  const auto vpos = skewed.find("\"v\":1");
  ASSERT_NE(vpos, std::string::npos);
  skewed[vpos + 4] = '9';
  EXPECT_FALSE(decode_canon_form(skewed, field).ok());
  // A coefficient of degree >= k cannot be a canonical field element: 0x8 is
  // x^3, fine over GF(2^4) but not GF(2^2).
  const std::string high_coeff =
      R"({"v":1,"output_word":"Z","input_words":["A"],)"
      R"("terms":[{"m":[["A","1"]],"c":"8"}]})";
  EXPECT_TRUE(decode_canon_form(high_coeff, field).ok());
  EXPECT_FALSE(decode_canon_form(high_coeff, Gf2k::make(2)).ok());
  // A monomial over a variable outside the declared input words.
  const std::string stray_var =
      R"({"v":1,"output_word":"Z","input_words":["A"],)"
      R"("terms":[{"m":[["B","1"]],"c":"1"}]})";
  EXPECT_FALSE(decode_canon_form(stray_var, field).ok());
}

// ---------------------------------------------------------------------------
// Entry integrity and circuit identity.

using worker::crc32;
using worker::netlist_content_hash;

TEST(Crc32, MatchesTheReferenceVector) {
  // The classic IEEE 802.3 check value for "123456789".
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST(ContentHash, SeparatesCircuitsAndIsStable) {
  const Gf2k field = Gf2k::make(8);
  const Netlist mastro = make_mastrovito_multiplier(field);
  const Netlist mont = make_montgomery_multiplier_flat(field);
  EXPECT_EQ(netlist_content_hash(mastro), netlist_content_hash(mastro));
  EXPECT_NE(netlist_content_hash(mastro), netlist_content_hash(mont));
}

// ---------------------------------------------------------------------------
// Directory hygiene (the cache's and the daemon's store directories).

TEST(EnsureDirectory, CreatesAndValidates) {
  const std::string dir = temp_dir();
  EXPECT_TRUE(worker::ensure_directory(dir).ok());          // already exists
  EXPECT_TRUE(worker::ensure_directory(dir + "/sub").ok()); // created now
  struct stat st;
  EXPECT_EQ(::stat((dir + "/sub").c_str(), &st), 0);
  EXPECT_TRUE(S_ISDIR(st.st_mode));
}

TEST(EnsureDirectory, MissingParentIsInvalidArgument) {
  const std::string dir = temp_dir();
  const Status s = worker::ensure_directory(dir + "/no/such/parent");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("parent"), std::string::npos) << s.to_string();
}

TEST(EnsureDirectory, FileInTheWayIsInvalidArgument) {
  const std::string dir = temp_dir();
  const std::string file = dir + "/plain";
  std::ofstream(file) << "x";
  const Status s = worker::ensure_directory(file);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("not a directory"), std::string::npos)
      << s.to_string();
}

// ---------------------------------------------------------------------------
// The cache.

service::CacheKey key_of(std::uint64_t h) {
  return service::CacheKey{h, 8, 0x1234abcdull};
}

TEST(CanonCache, FrameValidatesEveryField) {
  const service::CacheKey key = key_of(42);
  const std::string framed = service::frame_entry(key, "payload");
  ASSERT_TRUE(service::unframe_entry(key, framed).ok());
  EXPECT_EQ(*service::unframe_entry(key, framed), "payload");

  // Truncation, bit rot, and a misfiled (wrong-key) entry must all fail.
  EXPECT_FALSE(service::unframe_entry(key, framed.substr(1)).ok());
  EXPECT_FALSE(
      service::unframe_entry(key, framed.substr(0, framed.size() - 1)).ok());
  std::string flipped = framed;
  flipped[flipped.size() / 2] ^= 0x40;
  EXPECT_FALSE(service::unframe_entry(key, flipped).ok());
  EXPECT_FALSE(service::unframe_entry(key_of(43), framed).ok());
}

TEST(CanonCache, MissThenHit) {
  service::CanonCache cache({/*directory=*/"", /*max_bytes=*/1 << 20});
  ASSERT_TRUE(cache.open().ok());
  EXPECT_FALSE(cache.get(key_of(1)).has_value());
  cache.put(key_of(1), "the canonical form");
  const auto hit = cache.get(key_of(1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "the canonical form");
  const service::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(CanonCache, InjectedCorruptionIsAMissNeverAWrongPayload) {
  if (!fault::compiled_in()) GTEST_SKIP() << "GFA_FAULT_INJECTION is off";
  Disarmer disarm;
  service::CanonCache cache({"", 1 << 20});
  ASSERT_TRUE(cache.open().ok());
  ASSERT_TRUE(fault::arm_spec("cache:corrupt").ok());
  cache.put(key_of(7), "soon to be damaged");
  // The armed fault flipped a stored byte after the CRC was computed: the
  // guard must catch it on the next get and answer "miss", counting the
  // drop. It must never return the damaged payload.
  EXPECT_FALSE(cache.get(key_of(7)).has_value());
  const service::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.corrupt_dropped, 1u);
  EXPECT_EQ(stats.entries, 0u);
  // Recompute-and-store heals it (the fault was one-shot).
  cache.put(key_of(7), "recomputed");
  ASSERT_TRUE(cache.get(key_of(7)).has_value());
  EXPECT_EQ(*cache.get(key_of(7)), "recomputed");
}

TEST(CanonCache, LruEvictionStaysUnderTheBound) {
  // Three ~100-byte framed entries under a bound that fits only two.
  service::CanonCache cache({"", 250});
  ASSERT_TRUE(cache.open().ok());
  const std::string payload(60, 'x');
  cache.put(key_of(1), payload);
  cache.put(key_of(2), payload);
  ASSERT_TRUE(cache.get(key_of(1)).has_value());  // 1 is now newer than 2
  cache.put(key_of(3), payload);                  // evicts 2, the LRU
  EXPECT_TRUE(cache.get(key_of(1)).has_value());
  EXPECT_FALSE(cache.get(key_of(2)).has_value());
  EXPECT_TRUE(cache.get(key_of(3)).has_value());
  const service::CacheStats stats = cache.stats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_LE(stats.bytes, 250u);
}

TEST(CanonCache, PersistsAcrossReopen) {
  const std::string dir = temp_dir() + "/cache";
  {
    service::CanonCache cache({dir, 1 << 20});
    ASSERT_TRUE(cache.open().ok());  // creates the directory
    cache.put(key_of(11), "persisted form");
  }
  service::CanonCache reopened({dir, 1 << 20});
  ASSERT_TRUE(reopened.open().ok());
  const auto hit = reopened.get(key_of(11));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "persisted form");
}

TEST(CanonCache, DamagedFileOnDiskIsDroppedOnGet) {
  const std::string dir = temp_dir() + "/cache";
  {
    service::CanonCache cache({dir, 1 << 20});
    ASSERT_TRUE(cache.open().ok());
    cache.put(key_of(21), "about to rot on disk");
  }
  // Flip one payload byte in the mirrored file, as a bad disk would.
  const std::string path =
      dir + "/" + service::key_name(key_of(21)) + ".cf";
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(static_cast<bool>(in));
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  bytes[bytes.size() - 6] ^= 0x01;
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));

  service::CanonCache reopened({dir, 1 << 20});
  ASSERT_TRUE(reopened.open().ok());
  EXPECT_FALSE(reopened.get(key_of(21)).has_value());
  EXPECT_EQ(reopened.stats().corrupt_dropped, 1u);
  // The damaged file is gone too: the next reopen starts clean.
  std::ifstream gone(path, std::ios::binary);
  EXPECT_FALSE(static_cast<bool>(gone));
}

TEST(CanonCache, BadCacheDirectoryIsInvalidArgument) {
  service::CanonCache cache({temp_dir() + "/no/parent/here", 1 << 20});
  const Status s = cache.open();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(CanonCache, FingerprintSeparatesFields) {
  const Gf2k f8 = Gf2k::make(8);
  const Gf2k f16 = Gf2k::make(16);
  EXPECT_NE(service::cache_fingerprint(f8), service::cache_fingerprint(f16));
  EXPECT_EQ(service::cache_fingerprint(f8),
            service::cache_fingerprint(Gf2k::make(8)));
}

}  // namespace
}  // namespace gfa
