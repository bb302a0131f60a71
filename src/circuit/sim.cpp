#include "circuit/sim.h"

#include <cassert>
#include <stdexcept>

namespace gfa {

namespace {

void eval_gate(const Netlist::Gate& g, NetId n, std::uint64_t* value) {
  switch (g.type) {
    case GateType::kInput:
      break;  // already seeded
    case GateType::kConst0:
      value[n] = 0;
      break;
    case GateType::kConst1:
      value[n] = ~std::uint64_t{0};
      break;
    case GateType::kBuf:
      value[n] = value[g.fanins[0]];
      break;
    case GateType::kNot:
      value[n] = ~value[g.fanins[0]];
      break;
    case GateType::kAnd:
    case GateType::kNand: {
      std::uint64_t v = ~std::uint64_t{0};
      for (NetId f : g.fanins) v &= value[f];
      value[n] = g.type == GateType::kNand ? ~v : v;
      break;
    }
    case GateType::kOr:
    case GateType::kNor: {
      std::uint64_t v = 0;
      for (NetId f : g.fanins) v |= value[f];
      value[n] = g.type == GateType::kNor ? ~v : v;
      break;
    }
    case GateType::kXor:
    case GateType::kXnor: {
      std::uint64_t v = 0;
      for (NetId f : g.fanins) v ^= value[f];
      value[n] = g.type == GateType::kXnor ? ~v : v;
      break;
    }
  }
}

}  // namespace

std::vector<std::uint64_t> simulate(const Netlist& netlist,
                                    const std::vector<std::uint64_t>& input_lanes) {
  assert(input_lanes.size() == netlist.inputs().size());
  std::vector<std::uint64_t> value(netlist.num_nets(), 0);
  for (std::size_t i = 0; i < netlist.inputs().size(); ++i)
    value[netlist.inputs()[i]] = input_lanes[i];

  if (netlist.fanins_precede_gates()) {
    for (NetId n = 0; n < netlist.num_nets(); ++n)
      eval_gate(netlist.gate(n), n, value.data());
  } else {
    for (NetId n : netlist.topological_order())
      eval_gate(netlist.gate(n), n, value.data());
  }
  return value;
}

std::vector<Gf2Poly> simulate_words(
    const Netlist& netlist, const Word& out_word,
    const std::vector<std::pair<const Word*, std::vector<Gf2Poly>>>& in_words) {
  std::size_t lanes = 0;
  for (const auto& [w, elems] : in_words) {
    if (lanes == 0) lanes = elems.size();
    if (elems.size() != lanes)
      throw std::invalid_argument("word input vectors differ in length");
  }
  if (lanes == 0 || lanes > 64)
    throw std::invalid_argument("need 1..64 simulation lanes");

  // Pack element coordinates into per-net lanes.
  std::vector<NetId> input_pos(netlist.num_nets(), kNoNet);
  for (std::size_t i = 0; i < netlist.inputs().size(); ++i)
    input_pos[netlist.inputs()[i]] = static_cast<NetId>(i);
  std::vector<std::uint64_t> input_lanes(netlist.inputs().size(), 0);
  for (const auto& [w, elems] : in_words) {
    for (std::size_t bit = 0; bit < w->bits.size(); ++bit) {
      const NetId at = input_pos[w->bits[bit]];
      if (at == kNoNet)
        throw std::invalid_argument("word bit is not a primary input");
      std::uint64_t packed = 0;
      for (std::size_t l = 0; l < lanes; ++l) {
        if (elems[l].coeff(static_cast<unsigned>(bit)))
          packed |= std::uint64_t{1} << l;
      }
      input_lanes[at] = packed;
    }
  }

  const std::vector<std::uint64_t> value = simulate(netlist, input_lanes);
  std::vector<Gf2Poly> out(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    for (std::size_t bit = 0; bit < out_word.bits.size(); ++bit) {
      if ((value[out_word.bits[bit]] >> l) & 1u)
        out[l].set_coeff(static_cast<unsigned>(bit), true);
    }
  }
  return out;
}

}  // namespace gfa
