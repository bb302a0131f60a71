#include "circuit/netlist.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace gfa {

const char* gate_type_name(GateType t) {
  switch (t) {
    case GateType::kInput: return "input";
    case GateType::kConst0: return "const0";
    case GateType::kConst1: return "const1";
    case GateType::kBuf: return "buf";
    case GateType::kNot: return "not";
    case GateType::kAnd: return "and";
    case GateType::kOr: return "or";
    case GateType::kXor: return "xor";
    case GateType::kNand: return "nand";
    case GateType::kNor: return "nor";
    case GateType::kXnor: return "xnor";
  }
  return "?";
}

std::optional<GateType> gate_type_from_name(std::string_view name) {
  static constexpr std::pair<std::string_view, GateType> kTable[] = {
      {"input", GateType::kInput}, {"const0", GateType::kConst0},
      {"const1", GateType::kConst1}, {"buf", GateType::kBuf},
      {"not", GateType::kNot},     {"and", GateType::kAnd},
      {"or", GateType::kOr},       {"xor", GateType::kXor},
      {"nand", GateType::kNand},   {"nor", GateType::kNor},
      {"xnor", GateType::kXnor},
  };
  for (const auto& [n, t] : kTable)
    if (n == name) return t;
  return std::nullopt;
}

NetId Netlist::new_net(GateType type, std::vector<NetId> fanins,
                       std::string_view name, std::uint32_t name_hash) {
  const NetId id = static_cast<NetId>(gates_.size());
  [[maybe_unused]] const bool fresh =
      names_.insert(name, name_hash, id, [this](NetId n) { return name_of(n); })
          .second;
  assert(fresh && "duplicate net name");
  gates_.push_back(Gate{type, std::move(fanins), std::string(name)});
  return id;
}

NetId Netlist::add_input(std::string_view name) {
  return add_input(name, NameTable::hash(name));
}

NetId Netlist::add_input(std::string_view name, std::uint32_t name_hash) {
  const NetId id = new_net(GateType::kInput, {}, name, name_hash);
  inputs_.push_back(id);
  return id;
}

NetId Netlist::add_gate(GateType type, const std::vector<NetId>& fanins,
                        std::string_view name) {
  if (!name.empty()) return add_gate(type, fanins, name, NameTable::hash(name));
  const std::string fresh = "n" + std::to_string(gates_.size());
  return add_gate(type, fanins, fresh, NameTable::hash(fresh));
}

NetId Netlist::add_gate(GateType type, const std::vector<NetId>& fanins,
                        std::string_view name, std::uint32_t name_hash) {
  assert(type != GateType::kInput && "use add_input");
  for ([[maybe_unused]] NetId f : fanins)
    assert(f < gates_.size() && "fanin does not exist");
  return new_net(type, fanins, name, name_hash);
}

NetId Netlist::add_const(bool value, std::string_view name) {
  return add_gate(value ? GateType::kConst1 : GateType::kConst0, {}, name);
}

void Netlist::mark_output(NetId net) {
  assert(net < gates_.size());
  outputs_.push_back(net);
}

std::size_t Netlist::num_logic_gates() const {
  std::size_t n = 0;
  for (const Gate& g : gates_) {
    if (g.type != GateType::kInput && g.type != GateType::kConst0 &&
        g.type != GateType::kConst1)
      ++n;
  }
  return n;
}

NetId Netlist::find_net(std::string_view name) const {
  const NetId id = names_.find(name, NameTable::hash(name),
                               [this](NetId n) { return name_of(n); });
  return id == NameTable::kNoId ? kNoNet : id;
}

void Netlist::declare_word(std::string_view name, std::vector<NetId> bits) {
  for ([[maybe_unused]] NetId b : bits) assert(b < gates_.size());
  words_.push_back(Word{std::string(name), std::move(bits)});
}

const Word* Netlist::find_word(std::string_view name) const {
  for (const Word& w : words_)
    if (w.name == name) return &w;
  return nullptr;
}

bool Netlist::fanins_precede_gates() const {
  for (NetId n = 0; n < gates_.size(); ++n)
    for (NetId f : gates_[n].fanins)
      if (f >= n) return false;
  return true;
}

std::vector<NetId> Netlist::topological_order() const {
  // Kahn's algorithm over the fanin relation. Fanouts sit in one CSR array,
  // each net's list in (fanout NetId, fanin position) order; `order` doubles
  // as the FIFO of ready nets.
  const std::size_t n = gates_.size();
  // first[f] counts f's fanouts, then (prefix sum) ends past them, then
  // (reverse fill) starts at them; first[n] stays the total.
  std::vector<std::uint32_t> first(n + 1, 0);
  for (const Gate& g : gates_)
    for (NetId f : g.fanins) ++first[f];
  for (std::size_t i = 1; i <= n; ++i) first[i] += first[i - 1];
  std::vector<NetId> fanout(first[n]);
  std::vector<std::uint32_t> pending(n);
  for (NetId g = static_cast<NetId>(n); g-- > 0;) {
    const std::vector<NetId>& fi = gates_[g].fanins;
    pending[g] = static_cast<std::uint32_t>(fi.size());
    for (auto it = fi.rbegin(); it != fi.rend(); ++it) fanout[--first[*it]] = g;
  }
  std::vector<NetId> order;
  order.reserve(n);
  for (NetId g = 0; g < n; ++g)
    if (pending[g] == 0) order.push_back(g);
  for (std::size_t head = 0; head < order.size(); ++head) {
    const NetId g = order[head];
    for (std::uint32_t i = first[g]; i < first[g + 1]; ++i)
      if (--pending[fanout[i]] == 0) order.push_back(fanout[i]);
  }
  if (order.size() != n)
    throw std::logic_error("netlist contains a combinational cycle");
  return order;
}

std::vector<unsigned> Netlist::reverse_topological_levels() const {
  // Every fanout of a net comes after it in topological order, so walking
  // that order backwards finishes a net's level before pushing it to the
  // net's fanins.
  std::vector<unsigned> level(gates_.size(), 0);
  const auto push = [&](NetId g) {
    for (NetId f : gates_[g].fanins) level[f] = std::max(level[f], level[g] + 1);
  };
  if (fanins_precede_gates()) {
    for (NetId g = static_cast<NetId>(gates_.size()); g-- > 0;) push(g);
  } else {
    const std::vector<NetId> topo = topological_order();
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) push(*it);
  }
  return level;
}

std::string Netlist::validate() const {
  for (NetId n = 0; n < gates_.size(); ++n) {
    const Gate& g = gates_[n];
    const std::size_t arity = g.fanins.size();
    switch (g.type) {
      case GateType::kInput:
      case GateType::kConst0:
      case GateType::kConst1:
        if (arity != 0) return "net " + g.name + ": source gate with fanins";
        break;
      case GateType::kBuf:
      case GateType::kNot:
        if (arity != 1) return "net " + g.name + ": unary gate needs 1 fanin";
        break;
      default:
        if (arity < 2) return "net " + g.name + ": gate needs >= 2 fanins";
        break;
    }
    for (NetId f : g.fanins) {
      if (f >= gates_.size()) return "net " + g.name + ": dangling fanin";
    }
  }
  try {
    (void)topological_order();
  } catch (const std::logic_error& e) {
    return e.what();
  }
  for (const Word& w : words_) {
    if (w.bits.empty()) return "word " + w.name + ": empty";
    for (NetId b : w.bits) {
      if (b >= gates_.size()) return "word " + w.name + ": dangling bit";
    }
  }
  return {};
}

}  // namespace gfa
