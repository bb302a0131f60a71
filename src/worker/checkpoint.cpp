#include "worker/checkpoint.h"

#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>

#include "util/fault_inject.h"

namespace gfa::worker {

namespace {

constexpr char kMagic[8] = {'G', 'F', 'A', '_', 'C', 'K', 'P', 'T'};

/// Little-endian append helpers over a byte buffer; the buffer is the unit
/// the trailing CRC covers.
void put_u32(std::string& buf, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    buf += static_cast<char>((v >> (8 * i)) & 0xFF);
}

void put_u64(std::string& buf, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    buf += static_cast<char>((v >> (8 * i)) & 0xFF);
}

/// LEB128: 7 data bits per byte, high bit = continuation.
void put_varint(std::string& buf, std::uint64_t v) {
  while (v >= 0x80) {
    buf += static_cast<char>((v & 0x7F) | 0x80);
    v >>= 7;
  }
  buf += static_cast<char>(v);
}

/// Bounded little-endian reads; `pos` advances, failure = past the end.
struct Reader {
  const std::string& buf;
  std::size_t pos = 0;

  bool read_u32(std::uint32_t& v) {
    if (pos + 4 > buf.size()) return false;
    v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(buf[pos + i]))
           << (8 * i);
    pos += 4;
    return true;
  }

  bool read_u64(std::uint64_t& v) {
    if (pos + 8 > buf.size()) return false;
    v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf[pos + i]))
           << (8 * i);
    pos += 8;
    return true;
  }

  bool read_bytes(std::string& out, std::size_t n) {
    if (pos + n > buf.size()) return false;
    out.assign(buf, pos, n);
    pos += n;
    return true;
  }

  /// Rejects truncation and overlong (> 10 byte) encodings.
  bool read_varint(std::uint64_t& v) {
    v = 0;
    for (int shift = 0; shift < 70; shift += 7) {
      if (pos >= buf.size()) return false;
      const auto b = static_cast<unsigned char>(buf[pos++]);
      if (shift == 63 && (b & 0x7E) != 0) return false;  // overflows u64
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return true;
    }
    return false;
  }
};

Status damaged(const std::string& path, const std::string& why) {
  return Status::invalid_argument("checkpoint '" + path + "': " + why);
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  return fnv1a(h, &v, sizeof(v));
}

std::uint64_t fnv1a_str(std::uint64_t h, const std::string& s) {
  h = fnv1a_u64(h, s.size());
  return fnv1a(h, s.data(), s.size());
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int b = 0; b < 8; ++b)
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i)
    crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

std::uint64_t netlist_content_hash(const Netlist& netlist) {
  std::uint64_t h = 14695981039346656037ull;
  h = fnv1a_u64(h, netlist.num_nets());
  for (NetId n = 0; n < netlist.num_nets(); ++n) {
    const Netlist::Gate& g = netlist.gate(n);
    h = fnv1a_u64(h, static_cast<std::uint64_t>(g.type));
    h = fnv1a_str(h, g.name);
    h = fnv1a_u64(h, g.fanins.size());
    for (NetId f : g.fanins) h = fnv1a_u64(h, f);
  }
  h = fnv1a_u64(h, netlist.outputs().size());
  for (NetId n : netlist.outputs()) h = fnv1a_u64(h, n);
  h = fnv1a_u64(h, netlist.words().size());
  for (const Word& w : netlist.words()) {
    h = fnv1a_str(h, w.name);
    h = fnv1a_u64(h, w.bits.size());
    for (NetId b : w.bits) h = fnv1a_u64(h, b);
  }
  return h;
}

std::string checkpoint_path(const std::string& dir, std::uint64_t circuit_hash,
                            const std::string& word) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(circuit_hash));
  std::string name = word;
  // Word names come from netlist files; keep the file name shell-safe.
  for (char& c : name)
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-'))
      c = '_';
  return dir + "/" + hex + "." + name + ".ckpt";
}

Status ensure_directory(const std::string& dir) {
  if (dir.empty())
    return Status::invalid_argument("directory path is empty");
  struct stat st;
  if (::stat(dir.c_str(), &st) == 0) {
    if (!S_ISDIR(st.st_mode))
      return Status::invalid_argument("'" + dir +
                                      "' exists but is not a directory");
  } else if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST) {
    if (errno == ENOENT || errno == ENOTDIR) {
      std::string parent = dir;
      if (const std::size_t slash = parent.find_last_of('/');
          slash != std::string::npos)
        parent.resize(slash == 0 ? 1 : slash);
      else
        parent = ".";
      return Status::invalid_argument(
          "cannot create directory '" + dir + "': parent '" + parent +
          "' does not exist or is not a directory");
    }
    return Status::invalid_argument("cannot create directory '" + dir +
                                    "': " + std::strerror(errno));
  }
  if (::access(dir.c_str(), W_OK | X_OK) != 0)
    return Status::invalid_argument("directory '" + dir +
                                    "' is not writable: " +
                                    std::strerror(errno));
  return Status();
}

Status save_checkpoint(const std::string& path, const ReductionCheckpoint& cp) {
  std::string buf;
  buf.append(kMagic, sizeof(kMagic));
  put_u32(buf, kCheckpointVersion);
  put_u32(buf, cp.k);
  put_u64(buf, cp.circuit_hash);
  put_u32(buf, static_cast<std::uint32_t>(cp.word.size()));
  buf += cp.word;
  put_u64(buf, cp.step);
  put_u64(buf, cp.terms.size());
  for (const auto& [mono, coeff] : cp.terms) {
    // v3 term encoding: monomial ids are strictly increasing, so after the
    // first id only the (≥ 1) deltas are stored, as varints.
    put_varint(buf, mono.size());
    VarId prev = 0;
    bool first = true;
    for (VarId v : mono) {
      put_varint(buf, first ? v : v - prev);
      prev = v;
      first = false;
    }
    const std::vector<std::uint64_t>& words = coeff.words();
    put_varint(buf, words.size());
    for (std::uint64_t w : words) put_u64(buf, w);
  }
  std::uint32_t crc = crc32(buf.data(), buf.size());
  if (fault::consume("checkpoint:corrupt")) crc ^= 0xDEADBEEFu;
  put_u32(buf, crc);

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::internal("cannot write checkpoint '" + tmp + "'");
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    if (!out.flush())
      return Status::internal("short write to checkpoint '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::internal("cannot rename checkpoint into '" + path + "'");
  }
  return Status();
}

Result<ReductionCheckpoint> load_checkpoint(const std::string& path) {
  std::string buf;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) return damaged(path, "no checkpoint (cannot open)");
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    buf = std::move(data);
  }
  if (buf.size() < sizeof(kMagic) + 4 + 4)
    return damaged(path, "truncated (shorter than the header)");
  if (std::memcmp(buf.data(), kMagic, sizeof(kMagic)) != 0)
    return damaged(path, "bad magic (not a checkpoint file)");
  // CRC covers everything except its own trailing 4 bytes.
  std::uint32_t stored_crc = 0;
  {
    Reader tail{buf, buf.size() - 4};
    tail.read_u32(stored_crc);
  }
  const std::uint32_t computed = crc32(buf.data(), buf.size() - 4);
  if (stored_crc != computed)
    return damaged(path, "CRC mismatch (file is corrupt or truncated)");

  Reader r{buf, sizeof(kMagic)};
  ReductionCheckpoint cp;
  std::uint32_t version = 0;
  if (!r.read_u32(version)) return damaged(path, "truncated version");
  if (version != kCheckpointVersion)
    return damaged(path, "version skew (file v" + std::to_string(version) +
                             ", this build reads v" +
                             std::to_string(kCheckpointVersion) + ")");
  std::uint32_t word_len = 0;
  if (!r.read_u32(cp.k) || !r.read_u64(cp.circuit_hash) ||
      !r.read_u32(word_len) || !r.read_bytes(cp.word, word_len) ||
      !r.read_u64(cp.step))
    return damaged(path, "truncated header");
  std::uint64_t num_terms = 0;
  if (!r.read_u64(num_terms)) return damaged(path, "truncated term count");
  cp.terms.reserve(static_cast<std::size_t>(num_terms));
  std::vector<VarId> ids;
  for (std::uint64_t t = 0; t < num_terms; ++t) {
    std::uint64_t mono_len = 0;
    if (!r.read_varint(mono_len)) return damaged(path, "truncated monomial");
    // A monomial longer than the remaining payload cannot be real; bail
    // before reserving absurd amounts for a corrupt length.
    if (mono_len > buf.size() - r.pos)
      return damaged(path, "monomial length exceeds the file");
    ids.clear();
    ids.reserve(static_cast<std::size_t>(mono_len));
    std::uint64_t prev = 0;
    for (std::uint64_t i = 0; i < mono_len; ++i) {
      std::uint64_t delta = 0;
      if (!r.read_varint(delta)) return damaged(path, "truncated monomial");
      if (i > 0 && delta == 0)
        return damaged(path, "monomial ids not strictly increasing");
      const std::uint64_t v = i == 0 ? delta : prev + delta;
      if (i > 0 && v <= prev)
        return damaged(path, "monomial ids not strictly increasing");
      if (v > UINT32_MAX) return damaged(path, "monomial id out of range");
      ids.push_back(static_cast<VarId>(v));
      prev = v;
    }
    std::uint64_t num_words = 0;
    if (!r.read_varint(num_words))
      return damaged(path, "truncated coefficient");
    if (num_words > (buf.size() - r.pos) / 8 + 1)
      return damaged(path, "coefficient length exceeds the file");
    std::vector<std::uint64_t> words(static_cast<std::size_t>(num_words));
    for (std::uint64_t i = 0; i < num_words; ++i)
      if (!r.read_u64(words[i])) return damaged(path, "truncated coefficient");
    cp.terms.emplace_back(BitMono::from_sorted(ids.data(), ids.size()),
                          Gf2Poly::from_words(words.data(), words.size()));
  }
  if (r.pos != buf.size() - 4)
    return damaged(path, "trailing bytes after the last term");
  return cp;
}

void remove_checkpoint(const std::string& path) {
  std::remove(path.c_str());
}

}  // namespace gfa::worker
