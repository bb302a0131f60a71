#include "circuit/parser.h"

#include <algorithm>
#include <array>
#include <fstream>
#include <sstream>
#include <vector>

#include "obs/metrics.h"

namespace gfa {

namespace {

/// True for the bytes that end a token: blanks, the newline, and the '#'
/// that starts a comment. Name bytes are mostly above '#', so one compare
/// settles the common case.
inline bool ends_token(char c) {
  return static_cast<unsigned char>(c) <= '#' &&
         (c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '#');
}

/// Splits the line of `text` that starts at `pos` at spaces, tabs and
/// carriage returns, stopping at a '#' comment, and returns where the next
/// line starts (text.size() + 1 past the last line). One pass over the
/// bytes; the tokens view `text`, and `toks` is reused across lines.
std::size_t tokenize_line(std::string_view text, std::size_t pos,
                          std::vector<std::string_view>& toks) {
  toks.clear();
  const char* s = text.data();
  const std::size_t n = text.size();
  while (pos < n) {
    const char c = s[pos];
    if (c == '\n') return pos + 1;
    if (c == '#') {
      const std::size_t nl = text.find('\n', pos);
      return nl == std::string_view::npos ? n + 1 : nl + 1;
    }
    if (ends_token(c)) {
      ++pos;
      continue;
    }
    const std::size_t start = pos;
    while (pos < n && !ends_token(s[pos])) ++pos;
    toks.emplace_back(s + start, pos - start);
  }
  return n + 1;
}

struct GateDecl {
  std::string_view name;
  std::uint32_t name_hash;  // NameTable::hash(name), handed on to Netlist
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
  // Declarations in line order, and the name index over them.
  std::vector<GateDecl> decls;
  decls.reserve(lines);
  NameTable decl_index;
  decl_index.reserve(lines);
  const auto name_of = [&](std::uint32_t d) { return decls[d].name; };
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
    pos = tokenize_line(text, pos, toks);
    ++line_no;
    if (toks.empty()) continue;
    const std::string_view kw = toks[0];

    auto declare = [&](std::string_view name, GateType type,
                       std::size_t first_fanin, std::size_t num_fanins) {
      if (decls.size() >= NameTable::kNoId)
        throw ParseError(line_no, "too many nets");
      const std::uint32_t h = NameTable::hash(name);
      const auto d = static_cast<std::uint32_t>(decls.size());
      decls.push_back(GateDecl{name, h, type, line_no, first_fanin, num_fanins});
      if (!decl_index.insert(name, h, d, name_of).second)
        throw ParseError(line_no,
                         "net '" + std::string(name) + "' defined twice");
    };

    if (kw == "module") {
      if (toks.size() != 2) throw ParseError(line_no, "module expects a name");
      module_name = toks[1];
    } else if (kw == "endmodule") {
      // no-op; single-module format
    } else if (kw == "input") {
      for (std::size_t i = 1; i < toks.size(); ++i)
        declare(toks[i], GateType::kInput, 0, 0);
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
      declare(toks[1], *type, fanin_names.size(), arity);
      fanin_names.insert(fanin_names.end(), toks.begin() + 2, toks.end());
    } else {
      throw ParseError(line_no, "unknown directive '" + std::string(kw) + "'");
    }
  }
  GFA_COUNT("netlist.parse_bytes", text.size());
  GFA_COUNT("netlist.parse_nets", decls.size());

  // Resolve every fanin name to its declaration, in text order. The names
  // are hashed a few entries ahead and their table slots prefetched, so the
  // random probes overlap instead of queueing one after another.
  constexpr std::size_t kLookahead = 8;
  std::vector<std::uint32_t> fanin_decls(fanin_names.size());
  std::array<std::uint32_t, kLookahead> fanin_hashes{};
  for (std::size_t i = 0; i < fanin_names.size() + kLookahead; ++i) {
    std::uint32_t& h = fanin_hashes[i % kLookahead];
    if (i >= kLookahead) {
      const std::size_t j = i - kLookahead;
      fanin_decls[j] = decl_index.find(fanin_names[j], h, name_of);
    }
    if (i < fanin_names.size()) {
      h = NameTable::hash(fanin_names[i]);
      decl_index.prefetch(h);
    }
  }

  // Emit nets in dependency order (gate lines may be out of order). An
  // explicit work stack rather than recursion: a pathological but legal
  // input — say a 100k-deep buf chain — must not overflow the call stack
  // (found by tools/fuzz_parser).
  Netlist netlist{std::string(module_name)};
  netlist.reserve(decls.size());
  struct Frame {
    std::uint32_t decl;
    std::size_t next_fanin = 0;
  };
  std::vector<Frame> stack;
  auto open = [&](std::uint32_t di) {
    GateDecl& d = decls[di];
    if (d.id != kNoNet) return;
    if (d.visiting)
      throw ParseError(d.line, "combinational cycle through '" +
                                   std::string(d.name) + "'");
    d.visiting = true;
    stack.push_back({di});
  };
  std::vector<NetId> fanins;
  for (std::uint32_t root = 0; root < decls.size(); ++root) {
    open(root);
    while (!stack.empty()) {
      Frame& f = stack.back();
      GateDecl& d = decls[f.decl];
      if (f.next_fanin < d.num_fanins) {
        const std::size_t slot = d.first_fanin + f.next_fanin++;
        const std::uint32_t di = fanin_decls[slot];
        if (di == NameTable::kNoId)
          throw ParseError(0, "net '" + std::string(fanin_names[slot]) +
                                  "' used but never defined");
        open(di);
        continue;
      }
      fanins.clear();
      for (std::size_t i = 0; i < d.num_fanins; ++i)
        fanins.push_back(decls[fanin_decls[d.first_fanin + i]].id);
      d.id = d.type == GateType::kInput
                 ? netlist.add_input(d.name, d.name_hash)
                 : netlist.add_gate(d.type, fanins, d.name, d.name_hash);
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
