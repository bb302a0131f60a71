#include "abstraction/rato.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

#include "obs/metrics.h"

namespace gfa {

std::vector<const Word*> input_words(const Netlist& netlist) {
  std::vector<const Word*> out;
  for (const Word& w : netlist.words()) {
    bool all_inputs = true;
    for (NetId b : w.bits) {
      if (netlist.gate(b).type != GateType::kInput) {
        all_inputs = false;
        break;
      }
    }
    if (all_inputs) out.push_back(&w);
  }
  return out;
}

std::vector<const Word*> output_words(const Netlist& netlist) {
  std::vector<const Word*> out;
  for (const Word& w : netlist.words()) {
    bool all_inputs = true;
    for (NetId b : w.bits) {
      if (netlist.gate(b).type != GateType::kInput) {
        all_inputs = false;
        break;
      }
    }
    if (!all_inputs) out.push_back(&w);
  }
  return out;
}

const Word* output_word(const Netlist& netlist) {
  const std::vector<const Word*> outs = output_words(netlist);
  return outs.size() == 1 ? outs[0] : nullptr;
}

std::vector<NetId> rato_net_order(const Netlist& netlist) {
  // A counting sort by level; filling each level's bucket in NetId order
  // keeps ties by NetId.
  const std::vector<unsigned> level = netlist.reverse_topological_levels();
  unsigned levels = 0;
  for (unsigned l : level) levels = std::max(levels, l + 1);
  GFA_GAUGE_MAX("rato.levels", levels);
  std::vector<std::uint32_t> next(levels + 1, 0);  // next free slot per level
  for (unsigned l : level) ++next[l + 1];
  for (unsigned l = 1; l <= levels; ++l) next[l] += next[l - 1];
  std::vector<NetId> order(level.size());
  for (NetId n = 0; n < level.size(); ++n) order[next[level[n]]++] = n;
  return order;
}

namespace {

TermOrder make_order(const Netlist& netlist, const CircuitIdeal& ideal,
                     const std::vector<NetId>& bit_order) {
  std::vector<VarId> priority;
  priority.reserve(ideal.pool.size());
  for (NetId n : bit_order) priority.push_back(ideal.net_var[n]);
  for (const Word* w : output_words(netlist))
    priority.push_back(ideal.word_var.at(w->name));
  for (const Word* w : input_words(netlist))
    priority.push_back(ideal.word_var.at(w->name));
  return TermOrder(TermOrder::Type::kLex, std::move(priority));
}

}  // namespace

TermOrder make_rato_order(const Netlist& netlist, const CircuitIdeal& ideal) {
  return make_order(netlist, ideal, rato_net_order(netlist));
}

TermOrder make_abstraction_order(const Netlist& netlist,
                                 const CircuitIdeal& ideal) {
  std::vector<NetId> bit_order(netlist.num_nets());
  for (NetId n = 0; n < bit_order.size(); ++n) bit_order[n] = n;
  return make_order(netlist, ideal, bit_order);
}

}  // namespace gfa
