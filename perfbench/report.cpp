// Seeded randomness, percentiles, resource usage and the printed report.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "circuit/parser.h"
#include "perfbench.h"

namespace perfbench {

std::uint64_t Rng::next() {
  state_ += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

gfa::Gf2k::Elem random_elem(const gfa::Gf2k& field, Rng& rng) {
  const unsigned k = field.k();
  std::vector<std::uint64_t> words((k + 63) / 64);
  for (std::uint64_t& w : words) w = rng.next();
  if (k % 64 != 0) words.back() &= (std::uint64_t{1} << (k % 64)) - 1;
  return gfa::Gf2Poly::from_words(words.data(), words.size());
}

std::string shuffled_netlist_text(const gfa::Netlist& netlist,
                                  std::uint64_t seed) {
  std::vector<std::string> lines;
  std::istringstream in(gfa::write_netlist(netlist));
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  // write_netlist puts every gate line between the `input` and `output`
  // lines; the parser accepts gates in any order.
  std::size_t first = 0, last = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (first == 0 && lines[i].rfind("input ", 0) == 0) first = i + 1;
    if (first != 0 && lines[i].rfind("output ", 0) == 0) {
      last = i;
      break;
    }
  }
  Rng rng(seed);
  for (std::size_t i = last; i > first + 1; --i)
    std::swap(lines[i - 1], lines[first + rng.below(i - first)]);
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

double percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb(bool include_children) {
  struct rusage self {};
  getrusage(RUSAGE_SELF, &self);
  long kb = self.ru_maxrss;
  if (include_children) {
    struct rusage children {};
    getrusage(RUSAGE_CHILDREN, &children);
    kb = std::max(kb, children.ru_maxrss);
  }
  return static_cast<double>(kb) / 1024.0;
}

void Report::set(std::string name, double value, std::string unit,
                 std::uint64_t samples, std::string note, bool in_json) {
  metrics.push_back(Metric{std::move(name), value, std::move(unit), samples,
                           std::move(note), in_json});
}

void Report::wrong(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "perfbench: WRONG ANSWER: %s\n", why.c_str());
}

void Report::print() const {
  for (const auto& [key, value] : header)
    std::printf("# %-16s %s\n", key.c_str(), value.c_str());
  for (const Metric& m : metrics) {
    std::printf("%-26s %14.6g %-6s n=%-6llu %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples),
                m.note.c_str());
  }
  // Names and units are plain identifiers, so no JSON escaping is needed.
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  const char* sep = "";
  for (const Metric& m : metrics) {
    if (!m.in_json) continue;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                m.name.c_str(), m.value, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
