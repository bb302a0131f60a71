#include "worker/checkpoint.h"

#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>

namespace gfa::worker {

namespace {

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

}  // namespace gfa::worker
