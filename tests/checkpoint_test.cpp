// Tests for checkpoint/resume of the reduction chain (src/worker/checkpoint.h
// + the extractor's plumbing): serialization round-trips, every documented
// integrity failure (missing file, truncation, flipped bytes, version skew,
// injected CRC corruption) loading as kInvalidArgument, and — the acceptance
// bar — a resumed k=64 extraction producing the bit-identical canonical
// polynomial of a fresh run. A damaged or mismatched checkpoint may cost
// time, never correctness.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>

#include "abstraction/extractor.h"
#include "circuit/mastrovito.h"
#include "circuit/montgomery.h"
#include "obs/progress.h"
#include "util/fault_inject.h"
#include "worker/checkpoint.h"

namespace gfa::worker {
namespace {

struct Disarmer {
  ~Disarmer() { fault::disarm(); }
};

std::string make_temp_dir() {
  std::string tmpl = ::testing::TempDir() + "gfa_ckpt_XXXXXX";
  const char* dir = mkdtemp(tmpl.data());
  EXPECT_NE(dir, nullptr);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Rewrites the version field (right after the 8-byte magic) of a saved
// checkpoint and re-seals the CRC, so only the version check can object.
std::string with_version(std::string bytes, std::uint32_t version) {
  for (int i = 0; i < 4; ++i)
    bytes[8 + i] = static_cast<char>((version >> (8 * i)) & 0xFF);
  const std::uint32_t crc = crc32(bytes.data(), bytes.size() - 4);
  for (int i = 0; i < 4; ++i)
    bytes[bytes.size() - 4 + i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
  return bytes;
}

ReductionCheckpoint sample_checkpoint() {
  ReductionCheckpoint cp;
  cp.k = 8;
  cp.circuit_hash = 0xDEADBEEFCAFEF00Dull;
  cp.word = "Z";
  cp.step = 42;
  Gf2Poly c1;
  c1.set_coeff(0, true);
  c1.set_coeff(7, true);
  Gf2Poly c2;
  c2.set_coeff(3, true);
  cp.terms.emplace_back(BitMono{}, c1);          // constant term
  cp.terms.emplace_back(BitMono{1, 4, 9}, c2);   // a_1·a_4·a_9
  return cp;
}

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

TEST(CheckpointPath, KeyedByHashAndWord) {
  const std::string a = checkpoint_path("/tmp/ck", 1, "Z");
  const std::string b = checkpoint_path("/tmp/ck", 2, "Z");
  const std::string c = checkpoint_path("/tmp/ck", 1, "X3");
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  // Hostile word names cannot escape the directory.
  const std::string evil = checkpoint_path("/tmp/ck", 1, "../../etc/passwd");
  EXPECT_EQ(evil.find("/tmp/ck/"), 0u);
  EXPECT_EQ(evil.find("..", 8), std::string::npos);
}

TEST(Checkpoint, RoundTrips) {
  const std::string dir = make_temp_dir();
  const std::string path = dir + "/a.ckpt";
  const ReductionCheckpoint cp = sample_checkpoint();
  ASSERT_TRUE(save_checkpoint(path, cp).ok());
  const Result<ReductionCheckpoint> back = load_checkpoint(path);
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(back->k, cp.k);
  EXPECT_EQ(back->circuit_hash, cp.circuit_hash);
  EXPECT_EQ(back->word, cp.word);
  EXPECT_EQ(back->step, cp.step);
  ASSERT_EQ(back->terms.size(), cp.terms.size());
  for (std::size_t i = 0; i < cp.terms.size(); ++i) {
    EXPECT_EQ(back->terms[i].first, cp.terms[i].first);
    EXPECT_EQ(back->terms[i].second, cp.terms[i].second);
  }
}

TEST(Checkpoint, MissingFileIsInvalidArgument) {
  const Result<ReductionCheckpoint> r =
      load_checkpoint(make_temp_dir() + "/nope.ckpt");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(Checkpoint, TruncatedFileIsRejected) {
  const std::string dir = make_temp_dir();
  const std::string path = dir + "/t.ckpt";
  ASSERT_TRUE(save_checkpoint(path, sample_checkpoint()).ok());
  const std::string bytes = read_file(path);
  ASSERT_GT(bytes.size(), 16u);
  // Chop anywhere: header-only, mid-terms, and missing trailer must all fail.
  for (const std::size_t keep :
       {std::size_t{5}, bytes.size() / 2, bytes.size() - 2}) {
    write_file(path, bytes.substr(0, keep));
    const Result<ReductionCheckpoint> r = load_checkpoint(path);
    ASSERT_FALSE(r.ok()) << "kept " << keep << " of " << bytes.size();
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(Checkpoint, FlippedByteIsRejectedByTheCrc) {
  const std::string dir = make_temp_dir();
  const std::string path = dir + "/f.ckpt";
  ASSERT_TRUE(save_checkpoint(path, sample_checkpoint()).ok());
  std::string bytes = read_file(path);
  bytes[bytes.size() / 2] ^= 0x40;
  write_file(path, bytes);
  const Result<ReductionCheckpoint> r = load_checkpoint(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(Checkpoint, VersionSkewIsRejected) {
  const std::string dir = make_temp_dir();
  const std::string path = dir + "/v.ckpt";
  ASSERT_TRUE(save_checkpoint(path, sample_checkpoint()).ok());
  write_file(path, with_version(read_file(path), kCheckpointVersion + 1));
  const Result<ReductionCheckpoint> r = load_checkpoint(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("version"), std::string::npos)
      << r.status().message();
}

TEST(Checkpoint, PreVersion2IsRejected) {
  // Only kCheckpointVersion is read: a v1 or v2 file (any earlier layout)
  // is version skew, not a parse attempt, so the chain starts fresh.
  const std::string dir = make_temp_dir();
  const std::string path = dir + "/old.ckpt";
  ASSERT_TRUE(save_checkpoint(path, sample_checkpoint()).ok());
  const std::string bytes = read_file(path);
  for (const std::uint32_t version : {1u, 2u}) {
    write_file(path, with_version(bytes, version));
    const Result<ReductionCheckpoint> r = load_checkpoint(path);
    ASSERT_FALSE(r.ok()) << "v" << version;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("version skew"), std::string::npos)
        << r.status().message();
  }
}

TEST(Checkpoint, InjectedCorruptionIsCaughtOnLoad) {
  if (!fault::compiled_in()) GTEST_SKIP() << "GFA_FAULT_INJECTION is off";
  Disarmer disarm;
  const std::string dir = make_temp_dir();
  const std::string path = dir + "/c.ckpt";
  ASSERT_TRUE(fault::arm("checkpoint:corrupt", 1).ok());
  ASSERT_TRUE(save_checkpoint(path, sample_checkpoint()).ok());
  EXPECT_TRUE(fault::fired());
  const Result<ReductionCheckpoint> r = load_checkpoint(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Extractor integration: interrupt, resume, compare against a fresh run.

TEST(CheckpointResume, ResumedK64ExtractionMatchesTheFreshPolynomial) {
  const Gf2k field = Gf2k::make(64);
  const Netlist nl = make_mastrovito_multiplier(field);

  const WordFunction fresh = extract_word_function(nl, field);
  const std::string fresh_poly = fresh.g.to_string(fresh.pool);

  const std::string dir = make_temp_dir();
  ExtractionCheckpoint ck;
  ck.directory = dir;
  ck.interval = 500;
  ExecControl control;
  ExtractionOptions options;
  options.control = &control;
  options.checkpoint = &ck;

  // Kill the chain partway through, at a chain step: once a progress report
  // passes step 1000, cancel. Steps are counted in RATO gates, so the cut
  // lands after the same saves at every pool width (a poll count would not:
  // S chain shards poll about S times as often per gate). The cancel
  // unwinds cleanly and leaves the last periodic checkpoint behind.
  obs::set_progress_sink([&control](const obs::Progress& p) {
    if (std::string_view(p.phase) == "reduction_chain" && p.step > 1000)
      control.cancel.request_cancel();
  });
  const Result<WordFunction> interrupted =
      try_extract_word_function(nl, field, options);
  obs::set_progress_sink(nullptr);
  ASSERT_FALSE(interrupted.ok());
  EXPECT_EQ(interrupted.status().code(), StatusCode::kCancelled);
  const std::string path =
      checkpoint_path(dir, netlist_content_hash(nl), "Z");
  EXPECT_TRUE(load_checkpoint(path).ok())
      << "no checkpoint survived the interruption";

  control.cancel = CancelToken();  // a fresh, unfired token for the resume

  ck.resume = true;
  const Result<WordFunction> resumed =
      try_extract_word_function(nl, field, options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().to_string();
  EXPECT_TRUE(resumed->stats.resumed);
  // Fewer substitutions than the full chain: the skipped prefix was real.
  EXPECT_LT(resumed->stats.substitutions, fresh.stats.substitutions);
  EXPECT_EQ(resumed->g.to_string(resumed->pool), fresh_poly);
  // A finished run cleans up after itself.
  EXPECT_FALSE(load_checkpoint(path).ok());
}

TEST(CheckpointResume, MismatchedCheckpointFallsBackToAFreshStart) {
  const Gf2k field = Gf2k::make(16);
  const Netlist nl = make_mastrovito_multiplier(field);
  const std::string dir = make_temp_dir();
  const std::uint64_t hash = netlist_content_hash(nl);
  // A checkpoint at the right path but written for a different field: the
  // validator must ignore it rather than seed the rewriter with alien state.
  ReductionCheckpoint bogus;
  bogus.k = 8;  // != 16
  bogus.circuit_hash = hash;
  bogus.word = "Z";
  bogus.step = 7;
  Gf2Poly c;
  c.set_coeff(0, true);
  bogus.terms.emplace_back(BitMono{0}, c);
  ASSERT_TRUE(
      save_checkpoint(checkpoint_path(dir, hash, "Z"), bogus).ok());

  ExtractionCheckpoint ck;
  ck.directory = dir;
  ck.resume = true;
  ExtractionOptions options;
  options.checkpoint = &ck;
  const Result<WordFunction> r = try_extract_word_function(nl, field, options);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_FALSE(r->stats.resumed);
  const WordFunction fresh = extract_word_function(nl, field);
  EXPECT_EQ(r->g.to_string(r->pool), fresh.g.to_string(fresh.pool));
}

}  // namespace
}  // namespace gfa::worker
