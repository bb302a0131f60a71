// Ingest outputs pinned against the straightforward algorithms they replace:
// RATO order and reverse-topological levels against a stable comparison
// sort over per-net fanout vectors, topological_order against a Kahn pass
// over the same vectors, NetIds and write_netlist bytes of shuffled text
// against digests taken from the map-based parser, and every ParseError
// text with its line number.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "abstraction/rato.h"
#include "circuit/karatsuba.h"
#include "circuit/mastrovito.h"
#include "circuit/montgomery.h"
#include "circuit/parser.h"
#include "gf/gf2k.h"
#include "test_util.h"

namespace gfa {
namespace {

std::vector<std::vector<NetId>> fanout_vectors(const Netlist& nl) {
  std::vector<std::vector<NetId>> fanouts(nl.num_nets());
  for (NetId n = 0; n < nl.num_nets(); ++n)
    for (NetId f : nl.gate(n).fanins) fanouts[f].push_back(n);
  return fanouts;
}

/// Kahn's algorithm with a FIFO of ready nets, sources in NetId order.
std::vector<NetId> reference_topological_order(const Netlist& nl) {
  const auto fanouts = fanout_vectors(nl);
  std::vector<unsigned> pending(nl.num_nets());
  std::vector<NetId> ready;
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    pending[n] = static_cast<unsigned>(nl.gate(n).fanins.size());
    if (pending[n] == 0) ready.push_back(n);
  }
  std::vector<NetId> order;
  for (std::size_t head = 0; head < ready.size(); ++head) {
    order.push_back(ready[head]);
    for (NetId fo : fanouts[ready[head]])
      if (--pending[fo] == 0) ready.push_back(fo);
  }
  return order;
}

/// 1 + max over fanouts, walking the reference order backwards.
std::vector<unsigned> reference_levels(const Netlist& nl) {
  const auto fanouts = fanout_vectors(nl);
  const std::vector<NetId> topo = reference_topological_order(nl);
  std::vector<unsigned> level(nl.num_nets(), 0);
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    unsigned lv = 0;
    for (NetId fo : fanouts[*it]) lv = std::max(lv, level[fo] + 1);
    level[*it] = lv;
  }
  return level;
}

std::vector<NetId> reference_rato(const Netlist& nl) {
  const std::vector<unsigned> level = reference_levels(nl);
  std::vector<NetId> order(nl.num_nets());
  for (NetId n = 0; n < order.size(); ++n) order[n] = n;
  std::stable_sort(order.begin(), order.end(),
                   [&](NetId a, NetId b) { return level[a] < level[b]; });
  return order;
}

/// write_netlist text with the gate lines (between `input` and `output`)
/// in a seeded Fisher-Yates order.
std::string shuffled_text(const Netlist& nl, std::uint64_t seed) {
  const std::string text = write_netlist(nl);
  std::vector<std::string_view> lines;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t nl_pos = text.find('\n', pos);
    lines.push_back(std::string_view(text).substr(pos, nl_pos - pos));
    pos = nl_pos + 1;
  }
  std::size_t first = 0, last = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (first == 0 && lines[i].starts_with("input ")) first = i + 1;
    if (first != 0 && lines[i].starts_with("output ")) {
      last = i;
      break;
    }
  }
  test::Rng rng(seed);
  for (std::size_t i = last; i > first + 1; --i)
    std::swap(lines[i - 1], lines[first + rng.below(i - first)]);
  std::string out;
  for (std::string_view line : lines) (out += line) += '\n';
  return out;
}

/// `nl` with bit 0 of word Z rerouted: its gate moves to a new net and z0
/// becomes a buffer of it, so z0's fanin carries a larger NetId than z0.
Netlist rerouted(Netlist nl) {
  const NetId z0 = nl.find_word("Z")->bits[0];
  const Netlist::Gate old = nl.gate(z0);
  const NetId moved = nl.add_gate(old.type, old.fanins, old.name + "_moved");
  nl.mutable_gate(z0) = Netlist::Gate{GateType::kBuf, {moved}, old.name};
  return nl;
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Net names in NetId order, one per line: equal digests, equal NetIds.
std::uint64_t net_id_digest(const Netlist& nl) {
  std::string names;
  for (NetId n = 0; n < nl.num_nets(); ++n) (names += nl.gate(n).name) += '\n';
  return fnv1a(names);
}

struct Case {
  std::string label;
  Netlist netlist;
};

std::vector<Case> cases_for(unsigned k) {
  const Gf2k field = Gf2k::make(k);
  std::vector<Case> out;
  out.push_back({"mastrovito", make_mastrovito_multiplier(field)});
  out.push_back({"montgomery", make_montgomery_multiplier_flat(field)});
  out.push_back({"karatsuba", make_karatsuba_multiplier(field)});
  for (std::size_t i = 0, n = out.size(); i < n; ++i)
    out.push_back({out[i].label + " shuffled and parsed",
                   parse_netlist(shuffled_text(out[i].netlist, 7 + i))});
  out.push_back({"mastrovito rerouted", rerouted(out[0].netlist)});
  return out;
}

class RatoOrder : public ::testing::TestWithParam<unsigned> {};

TEST_P(RatoOrder, MatchesTheStableSortOverFanoutVectors) {
  for (const Case& c : cases_for(GetParam())) {
    SCOPED_TRACE(c.label);
    EXPECT_EQ(c.netlist.reverse_topological_levels(),
              reference_levels(c.netlist));
    EXPECT_EQ(rato_net_order(c.netlist), reference_rato(c.netlist));
  }
}

TEST_P(RatoOrder, TopologicalOrderIsTheReferenceKahnOrder) {
  for (const Case& c : cases_for(GetParam())) {
    SCOPED_TRACE(c.label);
    EXPECT_EQ(c.netlist.topological_order(),
              reference_topological_order(c.netlist));
  }
}

INSTANTIATE_TEST_SUITE_P(K8AndK64, RatoOrder, ::testing::Values(8u, 64u));

TEST(RatoNetIdOrder, OnlyAReroutedNetlistLeavesIt) {
  for (const Case& c : cases_for(8))
    EXPECT_EQ(c.netlist.fanins_precede_gates(),
              c.label != "mastrovito rerouted")
        << c.label;
}

// Digests of the map-based parser's output on the same shuffled texts:
// net names in NetId order, and the bytes write_netlist makes of the parse.
TEST(NetlistIngest, ShuffledTextKeepsNetIdsAndWriterBytes) {
  const struct {
    unsigned k;
    std::uint64_t seed;
    std::uint64_t net_ids;
    std::uint64_t written;
  } pins[] = {
      {8, 1, 0x90302b4cfe7f4da8ull, 0x1525ced79a84abbcull},
      {64, 2, 0xa589c13e8565200cull, 0x530463f2a2062c68ull},
  };
  for (const auto& pin : pins) {
    SCOPED_TRACE("k=" + std::to_string(pin.k));
    const Netlist parsed = parse_netlist(shuffled_text(
        make_montgomery_multiplier_flat(Gf2k::make(pin.k)), pin.seed));
    EXPECT_EQ(net_id_digest(parsed), pin.net_ids);
    EXPECT_EQ(fnv1a(write_netlist(parsed)), pin.written);
  }
}

TEST(NetlistIngest, ParseErrorTextsAndLinesArePinned) {
  const struct {
    const char* text;
    std::size_t line;
    const char* what;
  } pins[] = {
      {"input a\nnot x a\n\nnot x a\n", 4, "line 4: net 'x' defined twice"},
      {"input a a\n", 1, "line 1: net 'a' defined twice"},
      {"input a\nand x a y\nand y a x\noutput x\n", 2,
       "line 2: combinational cycle through 'x'"},
      {"input a\nand z a ghost\noutput z\n", 0,
       "line 0: net 'ghost' used but never defined"},
      {"input a\nnot z a\noutput z ghost\n", 3,
       "line 3: output net 'ghost' undefined"},
      {"input a\nword W a ghost\n", 0, "line 0: word bit 'ghost' undefined"},
      {"input a\nwire a b c\n", 2, "line 2: unknown directive 'wire'"},
      {"module\n", 1, "line 1: module expects a name"},
      {"module a b\n", 1, "line 1: module expects a name"},
      {"input a\noutput\n", 2, "line 2: output expects net names"},
      {"input a\nword W\n", 2, "line 2: word expects a name and at least one bit"},
      {"input a\ninput x\n\ninput y a\nword W a # bits\n", 4,
       "line 4: net 'a' defined twice"},
      {"input a\n  and\n", 2, "line 2: gate expects an output net"},
      {"const1 c x\n", 1, "line 1: constant gate takes no fanins"},
      {"input a\nnot z a a\n", 2, "line 2: not takes exactly one fanin"},
      {"input a\nbuf z\n", 2, "line 2: buf takes exactly one fanin"},
      {"input a\nxor z a\n", 2, "line 2: xor takes at least two fanins"},
      {"input a\nnand z\n", 2, "line 2: nand takes at least two fanins"},
  };
  for (const auto& pin : pins) {
    SCOPED_TRACE(pin.text);
    try {
      parse_netlist(pin.text);
      ADD_FAILURE() << "expected ParseError";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.line_number, pin.line);
      EXPECT_STREQ(e.what(), pin.what);
    }
  }
}

}  // namespace
}  // namespace gfa
