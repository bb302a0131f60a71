#include "circuit/parser.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <vector>

namespace gfa {

namespace {

/// Splits `line` at spaces, tabs and carriage returns, stopping at a '#'
/// comment. The tokens view `line`; `toks` is reused across lines.
void tokenize(std::string_view line, std::vector<std::string_view>& toks) {
  toks.clear();
  line = line.substr(0, line.find('#'));
  const auto blank = [](char c) { return c == ' ' || c == '\t' || c == '\r'; };
  std::size_t i = 0;
  while (i < line.size()) {
    if (blank(line[i])) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < line.size() && !blank(line[j])) ++j;
    toks.push_back(line.substr(i, j - i));
    i = j;
  }
}

struct GateDecl {
  GateType type;
  std::size_t line;
  std::size_t first_fanin;  // into the parse's shared fanin list
  std::size_t num_fanins;
  NetId id = kNoNet;        // set once emitted
  bool visiting = false;    // on the DFS stack
};

}  // namespace

Netlist parse_netlist(std::string_view text) {
  // Names are views into `text`, which outlives the parse.
  const std::size_t lines =
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')) + 1;
  using Decls = std::unordered_map<std::string_view, GateDecl>;
  Decls decls;  // net name -> definition
  decls.reserve(lines);
  std::vector<Decls::value_type*> decl_order;
  decl_order.reserve(lines);
  // Every gate's fanin names, concatenated (GateDecl::first_fanin indexes it).
  std::vector<std::string_view> fanin_names;
  fanin_names.reserve(2 * lines);
  std::vector<std::pair<std::string_view, std::size_t>> output_names;
  std::vector<std::pair<std::string_view, std::vector<std::string_view>>>
      word_decls;
  std::string_view module_name = "top";

  std::vector<std::string_view> toks;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, nl == std::string_view::npos ? text.size() - pos : nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;
    tokenize(line, toks);
    if (toks.empty()) continue;
    const std::string_view kw = toks[0];

    auto declare = [&](std::string_view name, GateDecl decl) {
      const auto [it, fresh] = decls.try_emplace(name, decl);
      if (!fresh)
        throw ParseError(line_no,
                         "net '" + std::string(name) + "' defined twice");
      decl_order.push_back(&*it);
    };

    if (kw == "module") {
      if (toks.size() != 2) throw ParseError(line_no, "module expects a name");
      module_name = toks[1];
    } else if (kw == "endmodule") {
      // no-op; single-module format
    } else if (kw == "input") {
      for (std::size_t i = 1; i < toks.size(); ++i)
        declare(toks[i], GateDecl{GateType::kInput, line_no, 0, 0});
    } else if (kw == "output") {
      if (toks.size() < 2) throw ParseError(line_no, "output expects net names");
      for (std::size_t i = 1; i < toks.size(); ++i)
        output_names.emplace_back(toks[i], line_no);
    } else if (kw == "word") {
      if (toks.size() < 3)
        throw ParseError(line_no, "word expects a name and at least one bit");
      word_decls.emplace_back(
          toks[1], std::vector<std::string_view>(toks.begin() + 2, toks.end()));
    } else if (auto type = gate_type_from_name(kw)) {
      if (*type == GateType::kInput)
        throw ParseError(line_no, "use the 'input' directive for inputs");
      if (toks.size() < 2) throw ParseError(line_no, "gate expects an output net");
      const std::size_t arity = toks.size() - 2;
      const bool unary = *type == GateType::kBuf || *type == GateType::kNot;
      const bool source = *type == GateType::kConst0 || *type == GateType::kConst1;
      if (source && arity != 0)
        throw ParseError(line_no, "constant gate takes no fanins");
      if (unary && arity != 1)
        throw ParseError(line_no, std::string(kw) + " takes exactly one fanin");
      if (!source && !unary && arity < 2)
        throw ParseError(line_no, std::string(kw) + " takes at least two fanins");
      declare(toks[1], GateDecl{*type, line_no, fanin_names.size(), arity});
      fanin_names.insert(fanin_names.end(), toks.begin() + 2, toks.end());
    } else {
      throw ParseError(line_no, "unknown directive '" + std::string(kw) + "'");
    }
  }

  // Emit nets in dependency order (gate lines may be out of order). An
  // explicit work stack rather than recursion: a pathological but legal
  // input — say a 100k-deep buf chain — must not overflow the call stack
  // (found by tools/fuzz_parser).
  Netlist netlist{std::string(module_name)};
  netlist.reserve(decl_order.size());
  // The declaration each fanin name resolves to, filled in by the DFS.
  std::vector<const GateDecl*> fanin_decls(fanin_names.size());
  struct Frame {
    Decls::value_type* entry;
    std::size_t next_fanin = 0;
  };
  std::vector<Frame> stack;
  auto open = [&](Decls::value_type& entry) {
    GateDecl& d = entry.second;
    if (d.id != kNoNet) return;
    if (d.visiting)
      throw ParseError(d.line, "combinational cycle through '" +
                                   std::string(entry.first) + "'");
    d.visiting = true;
    stack.push_back({&entry});
  };
  std::vector<NetId> fanins;
  for (Decls::value_type* root : decl_order) {
    open(*root);
    while (!stack.empty()) {
      Frame& f = stack.back();
      GateDecl& d = f.entry->second;
      if (f.next_fanin < d.num_fanins) {
        const std::size_t slot = d.first_fanin + f.next_fanin++;
        const auto dit = decls.find(fanin_names[slot]);
        if (dit == decls.end())
          throw ParseError(0, "net '" + std::string(fanin_names[slot]) +
                                  "' used but never defined");
        fanin_decls[slot] = &dit->second;
        open(*dit);
        continue;
      }
      fanins.clear();
      for (std::size_t i = 0; i < d.num_fanins; ++i)
        fanins.push_back(fanin_decls[d.first_fanin + i]->id);
      d.id = d.type == GateType::kInput
                 ? netlist.add_input(f.entry->first)
                 : netlist.add_gate(d.type, fanins, f.entry->first);
      d.visiting = false;
      stack.pop_back();
    }
  }

  for (const auto& [name, line] : output_names) {
    const NetId n = netlist.find_net(name);
    if (n == kNoNet)
      throw ParseError(line, "output net '" + std::string(name) + "' undefined");
    netlist.mark_output(n);
  }
  for (const auto& [name, bit_names] : word_decls) {
    std::vector<NetId> bits;
    bits.reserve(bit_names.size());
    for (std::string_view b : bit_names) {
      const NetId n = netlist.find_net(b);
      if (n == kNoNet)
        throw ParseError(0, "word bit '" + std::string(b) + "' undefined");
      bits.push_back(n);
    }
    netlist.declare_word(name, std::move(bits));
  }
  return netlist;
}

Netlist read_netlist_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open netlist file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_netlist(buf.str());
}

std::string write_netlist(const Netlist& netlist) {
  std::ostringstream out;
  out << "module " << netlist.name() << "\n";
  if (!netlist.inputs().empty()) {
    out << "input";
    for (NetId n : netlist.inputs()) out << " " << netlist.gate(n).name;
    out << "\n";
  }
  for (NetId n : netlist.topological_order()) {
    const Netlist::Gate& g = netlist.gate(n);
    if (g.type == GateType::kInput) continue;
    out << gate_type_name(g.type) << " " << g.name;
    for (NetId f : g.fanins) out << " " << netlist.gate(f).name;
    out << "\n";
  }
  if (!netlist.outputs().empty()) {
    out << "output";
    for (NetId n : netlist.outputs()) out << " " << netlist.gate(n).name;
    out << "\n";
  }
  for (const Word& w : netlist.words()) {
    out << "word " << w.name;
    for (NetId b : w.bits) out << " " << netlist.gate(b).name;
    out << "\n";
  }
  out << "endmodule\n";
  return out.str();
}

void write_netlist_file(const Netlist& netlist, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write netlist file: " + path);
  out << write_netlist(netlist);
}

Result<Netlist> try_parse_netlist(std::string_view text) {
  try {
    return parse_netlist(text);
  } catch (const ParseError& e) {
    return Status::parse_error(e.what());
  } catch (...) {
    return status_from_current_exception();
  }
}

Result<Netlist> try_read_netlist_file(const std::string& path) {
  try {
    return read_netlist_file(path);
  } catch (const ParseError& e) {
    return Status::parse_error(path + ": " + e.what());
  } catch (const std::runtime_error& e) {
    return Status::invalid_argument(e.what());  // I/O failure
  } catch (...) {
    return status_from_current_exception();
  }
}

}  // namespace gfa
