#include "circuit/verilog.h"

#include <cassert>
#include <cctype>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "circuit/parser.h"

namespace gfa {

namespace {

// ---------------------------------------------------------------- lexer ----

struct Token {
  enum class Kind { kIdent, kNumber, kSymbol, kEnd } kind;
  std::string text;
  std::size_t line;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Token next() {
    skip_space_and_comments();
    if (pos_ >= text_.size()) return {Token::Kind::kEnd, "", line_};
    const char c = text_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '$') {
      std::size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_' || text_[pos_] == '$'))
        ++pos_;
      return {Token::Kind::kIdent, std::string(text_.substr(start, pos_ - start)),
              line_};
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t start = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
      return {Token::Kind::kNumber, std::string(text_.substr(start, pos_ - start)),
              line_};
    }
    ++pos_;
    return {Token::Kind::kSymbol, std::string(1, c), line_};
  }

  std::size_t line() const { return line_; }

 private:
  void skip_space_and_comments() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '/' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '/') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else if (c == '/' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '*') {
        pos_ += 2;
        while (pos_ + 1 < text_.size() &&
               !(text_[pos_] == '*' && text_[pos_ + 1] == '/')) {
          if (text_[pos_] == '\n') ++line_;
          ++pos_;
        }
        pos_ = std::min(pos_ + 2, text_.size());
      } else {
        break;
      }
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
};

// --------------------------------------------------------------- parser ----

enum class PortDir { kNone, kInput, kOutput };

/// Caps fed by tools/fuzz_parser: a hostile "[2000000000:0]" range must not
/// expand into gigabytes of bit names, a "~~~~…x" or "((((…x" expression
/// must not overflow the call stack, and a 20-digit literal must be a parse
/// error rather than an uncaught std::out_of_range.
constexpr int kMaxVectorWidth = 1 << 20;
constexpr int kMaxExprDepth = 256;

struct Signal {
  PortDir dir = PortDir::kNone;
  int width = 0;  // 0 = scalar, else vector [width-1:0]
  bool is_port = false;
  std::size_t order = 0;  // declaration order
};

struct GateDecl {
  GateType type;
  std::vector<std::string> fanins;  // resolved bit names
  std::size_t line;
};

class Parser {
 public:
  explicit Parser(std::string_view text) : lexer_(text) { advance(); }

  Netlist parse() {
    expect_ident("module");
    module_name_ = expect(Token::Kind::kIdent).text;
    parse_port_header();
    while (!at_ident("endmodule")) {
      if (cur_.kind == Token::Kind::kEnd)
        throw VerilogError(cur_.line, "missing endmodule");
      parse_item();
    }
    return build();
  }

 private:
  // -- token plumbing --
  void advance() { cur_ = lexer_.next(); }
  bool at_symbol(const char* s) const {
    return cur_.kind == Token::Kind::kSymbol && cur_.text == s;
  }
  bool at_ident(const char* s) const {
    return cur_.kind == Token::Kind::kIdent && cur_.text == s;
  }
  Token expect(Token::Kind kind) {
    if (cur_.kind != kind)
      throw VerilogError(cur_.line, "unexpected token '" + cur_.text + "'");
    Token t = cur_;
    advance();
    return t;
  }
  void expect_symbol(const char* s) {
    if (!at_symbol(s))
      throw VerilogError(cur_.line, std::string("expected '") + s + "', got '" +
                                        cur_.text + "'");
    advance();
  }
  void expect_ident(const char* s) {
    if (!at_ident(s))
      throw VerilogError(cur_.line, std::string("expected '") + s + "', got '" +
                                        cur_.text + "'");
    advance();
  }
  int expect_number() {
    const Token t = expect(Token::Kind::kNumber);
    // Manual bounded parse: std::stoi would throw std::out_of_range on a
    // 20-digit literal, surfacing as kInternal instead of a parse error.
    long v = 0;
    for (char c : t.text) {
      v = v * 10 + (c - '0');
      if (v > kMaxVectorWidth)
        throw VerilogError(t.line, "number '" + t.text + "' out of range (max " +
                                       std::to_string(kMaxVectorWidth) + ")");
    }
    return static_cast<int>(v);
  }

  // -- declarations --
  int parse_optional_range() {
    // "[hi:lo]" with lo == 0 required; returns width (hi+1), or 0 if absent.
    if (!at_symbol("[")) return 0;
    advance();
    const int hi = expect_number();
    expect_symbol(":");
    const int lo = expect_number();
    expect_symbol("]");
    if (lo != 0 || hi < 0)
      throw VerilogError(cur_.line, "only [N:0] ranges are supported");
    if (hi >= kMaxVectorWidth)
      throw VerilogError(cur_.line,
                         "vector width " + std::to_string(hi + 1) +
                             " exceeds the supported maximum (" +
                             std::to_string(kMaxVectorWidth) + ")");
    return hi + 1;
  }

  void declare(const std::string& name, PortDir dir, int width, bool is_port,
               std::size_t line) {
    auto [it, inserted] = signals_.try_emplace(name);
    Signal& s = it->second;
    if (inserted) {
      s.order = next_order_++;
    } else if (s.dir != PortDir::kNone && dir != PortDir::kNone && s.dir != dir) {
      throw VerilogError(line, "conflicting direction for '" + name + "'");
    }
    if (dir != PortDir::kNone) s.dir = dir;
    if (width != 0) {
      if (s.width != 0 && s.width != width)
        throw VerilogError(line, "conflicting width for '" + name + "'");
      s.width = width;
    }
    s.is_port |= is_port;
  }

  void parse_port_header() {
    if (at_symbol(";")) {  // module m; — no ports
      advance();
      return;
    }
    expect_symbol("(");
    if (at_symbol(")")) {
      advance();
      expect_symbol(";");
      return;
    }
    PortDir dir = PortDir::kNone;
    int width = 0;
    for (;;) {
      if (at_ident("input") || at_ident("output")) {
        dir = at_ident("input") ? PortDir::kInput : PortDir::kOutput;
        advance();
        if (at_ident("wire")) advance();
        width = parse_optional_range();
      }
      const Token name = expect(Token::Kind::kIdent);
      declare(name.text, dir, width, /*is_port=*/true, name.line);
      if (at_symbol(")")) break;
      expect_symbol(",");
    }
    expect_symbol(")");
    expect_symbol(";");
  }

  // -- body items --
  void parse_item() {
    if (at_ident("input") || at_ident("output") || at_ident("wire")) {
      const PortDir dir = at_ident("input")    ? PortDir::kInput
                          : at_ident("output") ? PortDir::kOutput
                                               : PortDir::kNone;
      const bool is_port = dir != PortDir::kNone;
      advance();
      if (is_port && at_ident("wire")) advance();
      const int width = parse_optional_range();
      for (;;) {
        const Token name = expect(Token::Kind::kIdent);
        declare(name.text, dir, width, is_port, name.line);
        if (at_symbol(";")) break;
        expect_symbol(",");
      }
      advance();  // ';'
      return;
    }
    if (at_ident("assign")) {
      advance();
      const std::string lhs = parse_bit_ref();
      expect_symbol("=");
      const std::string rhs = parse_expr();
      expect_symbol(";");
      add_gate(lhs, GateType::kBuf, {rhs}, cur_.line);
      return;
    }
    // Gate primitive.
    static const std::unordered_map<std::string, GateType> kGates = {
        {"and", GateType::kAnd},   {"or", GateType::kOr},
        {"xor", GateType::kXor},   {"nand", GateType::kNand},
        {"nor", GateType::kNor},   {"xnor", GateType::kXnor},
        {"not", GateType::kNot},   {"buf", GateType::kBuf},
    };
    if (cur_.kind == Token::Kind::kIdent) {
      auto it = kGates.find(cur_.text);
      if (it != kGates.end()) {
        const GateType type = it->second;
        const std::size_t line = cur_.line;
        advance();
        if (cur_.kind == Token::Kind::kIdent) advance();  // instance name
        expect_symbol("(");
        const std::string out = parse_bit_ref();
        std::vector<std::string> ins;
        while (at_symbol(",")) {
          advance();
          ins.push_back(parse_bit_ref());
        }
        expect_symbol(")");
        expect_symbol(";");
        add_gate(out, type, std::move(ins), line);
        return;
      }
    }
    throw VerilogError(cur_.line, "unsupported construct at '" + cur_.text + "'");
  }

  // -- references & expressions --
  std::string parse_bit_ref() {
    const Token name = expect(Token::Kind::kIdent);
    if (at_symbol("[")) {
      advance();
      const int idx = expect_number();
      expect_symbol("]");
      return bit_name(name.text, idx, name.line);
    }
    auto it = signals_.find(name.text);
    if (it != signals_.end() && it->second.width > 0)
      throw VerilogError(name.line,
                         "vector '" + name.text + "' used without an index");
    return name.text;
  }

  std::string bit_name(const std::string& base, int idx, std::size_t line) {
    auto it = signals_.find(base);
    if (it == signals_.end() || it->second.width == 0)
      throw VerilogError(line, "'" + base + "' is not a declared vector");
    if (idx < 0 || idx >= it->second.width)
      throw VerilogError(line, "index out of range for '" + base + "'");
    return base + "[" + std::to_string(idx) + "]";
  }

  std::string fresh_temp() { return "$t" + std::to_string(temp_counter_++); }

  std::string emit_node(GateType type, std::vector<std::string> ins,
                        std::size_t line) {
    const std::string name = fresh_temp();
    add_gate(name, type, std::move(ins), line);
    return name;
  }

  /// Bounds the recursive-descent depth of parse_expr/parse_unary so hostile
  /// nesting fails as a VerilogError, not a stack overflow.
  struct DepthGuard {
    int& depth;
    DepthGuard(int& d, std::size_t line) : depth(d) {
      if (++depth > kMaxExprDepth)
        throw VerilogError(line, "expression nested deeper than " +
                                     std::to_string(kMaxExprDepth) + " levels");
    }
    ~DepthGuard() { --depth; }
  };

  // expr := xor_expr ( '|' xor_expr )*
  // xor_expr := and_expr ( '^' and_expr )*
  // and_expr := unary ( '&' unary )*
  // unary := '~' unary | '(' expr ')' | bit_ref
  std::string parse_expr() {
    const DepthGuard guard(expr_depth_, cur_.line);
    std::string lhs = parse_xor();
    while (at_symbol("|")) {
      advance();
      lhs = emit_node(GateType::kOr, {lhs, parse_xor()}, cur_.line);
    }
    return lhs;
  }
  std::string parse_xor() {
    std::string lhs = parse_and();
    while (at_symbol("^")) {
      advance();
      lhs = emit_node(GateType::kXor, {lhs, parse_and()}, cur_.line);
    }
    return lhs;
  }
  std::string parse_and() {
    std::string lhs = parse_unary();
    while (at_symbol("&")) {
      advance();
      lhs = emit_node(GateType::kAnd, {lhs, parse_unary()}, cur_.line);
    }
    return lhs;
  }
  std::string parse_unary() {
    const DepthGuard guard(expr_depth_, cur_.line);
    if (at_symbol("~")) {
      advance();
      return emit_node(GateType::kNot, {parse_unary()}, cur_.line);
    }
    if (at_symbol("(")) {
      advance();
      std::string inner = parse_expr();
      expect_symbol(")");
      return inner;
    }
    if (cur_.kind == Token::Kind::kNumber) {
      // Constant literal 1'b0 / 1'b1.
      const std::size_t line = cur_.line;
      if (cur_.text != "1") throw VerilogError(line, "unsupported literal");
      advance();
      expect_symbol("'");
      const Token spec = expect(Token::Kind::kIdent);
      if (spec.text != "b0" && spec.text != "b1")
        throw VerilogError(line, "unsupported literal 1'" + spec.text);
      return emit_node(spec.text == "b1" ? GateType::kConst1 : GateType::kConst0,
                       {}, line);
    }
    return parse_bit_ref();
  }

  void add_gate(const std::string& out, GateType type,
                std::vector<std::string> ins, std::size_t line) {
    const std::size_t arity = ins.size();
    const bool unary = type == GateType::kBuf || type == GateType::kNot;
    const bool source = type == GateType::kConst0 || type == GateType::kConst1;
    if (source ? arity != 0 : (unary ? arity != 1 : arity < 2))
      throw VerilogError(line, "wrong number of connections");
    if (!gates_.emplace(out, GateDecl{type, std::move(ins), line}).second)
      throw VerilogError(line, "net '" + out + "' has multiple drivers");
    gate_order_.push_back(out);
  }

  // -- netlist construction --
  Netlist build() {
    Netlist netlist(module_name_);

    // Expand declared signals into bit names, in declaration order.
    std::vector<std::pair<std::string, const Signal*>> ordered;
    for (const auto& [name, sig] : signals_) ordered.emplace_back(name, &sig);
    std::sort(ordered.begin(), ordered.end(), [](const auto& a, const auto& b) {
      return a.second->order < b.second->order;
    });

    auto bits_of = [&](const std::string& name, const Signal& s) {
      std::vector<std::string> bits;
      if (s.width == 0) {
        bits.push_back(name);
      } else {
        for (int i = 0; i < s.width; ++i)
          bits.push_back(name + "[" + std::to_string(i) + "]");
      }
      return bits;
    };

    // Primary inputs first.
    for (const auto& [name, sig] : ordered) {
      if (sig->dir != PortDir::kInput) continue;
      for (const std::string& bit : bits_of(name, *sig)) {
        if (gates_.count(bit))
          throw VerilogError(gates_.at(bit).line, "input '" + bit + "' is driven");
        netlist.add_input(bit);
      }
    }

    // Emit gates in dependency order (out-of-order bodies are legal), with
    // an explicit work stack: a deep assign chain must not overflow the call
    // stack (found by tools/fuzz_parser).
    std::unordered_map<std::string, char> visiting;  // 1 = on the DFS stack
    struct Frame {
      const std::string* name;
      const GateDecl* decl;
      std::size_t next_fanin = 0;
    };
    std::vector<Frame> stack;
    auto open = [&](const std::string& name) {
      if (netlist.find_net(name) != kNoNet) return;
      auto it = gates_.find(name);
      if (it == gates_.end())
        throw VerilogError(0, "net '" + name + "' is never driven");
      if (visiting[name])
        throw VerilogError(it->second.line,
                           "combinational cycle through '" + name + "'");
      visiting[name] = 1;
      stack.push_back({&it->first, &it->second});
    };
    for (const std::string& root : gate_order_) {
      open(root);
      while (!stack.empty()) {
        Frame& f = stack.back();
        if (f.next_fanin < f.decl->fanins.size()) {
          open(f.decl->fanins[f.next_fanin++]);
          continue;
        }
        std::vector<NetId> fanins;
        fanins.reserve(f.decl->fanins.size());
        for (const std::string& fn : f.decl->fanins)
          fanins.push_back(netlist.find_net(fn));
        netlist.add_gate(f.decl->type, fanins, *f.name);
        visiting[*f.name] = 0;
        stack.pop_back();
      }
    }

    // Outputs (and any remaining undriven output is an error).
    for (const auto& [name, sig] : ordered) {
      if (sig->dir != PortDir::kOutput) continue;
      for (const std::string& bit : bits_of(name, *sig)) {
        const NetId n = netlist.find_net(bit);
        if (n == kNoNet) throw VerilogError(0, "output '" + bit + "' is never driven");
        netlist.mark_output(n);
      }
    }

    // Vector ports become words.
    for (const auto& [name, sig] : ordered) {
      if (sig->width == 0 || sig->dir == PortDir::kNone) continue;
      std::vector<NetId> bits;
      for (const std::string& bit : bits_of(name, *sig))
        bits.push_back(netlist.find_net(bit));
      netlist.declare_word(name, std::move(bits));
    }
    return netlist;
  }

  Lexer lexer_;
  Token cur_;
  std::string module_name_;
  std::map<std::string, Signal> signals_;
  std::unordered_map<std::string, GateDecl> gates_;
  std::vector<std::string> gate_order_;
  std::size_t next_order_ = 0;
  int temp_counter_ = 0;
  int expr_depth_ = 0;
};

// --------------------------------------------------------------- writer ----

std::string sanitize(const std::string& name) {
  std::string out;
  for (char c : name)
    out += (std::isalnum(static_cast<unsigned char>(c)) || c == '_') ? c : '_';
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0])))
    out.insert(out.begin(), 'n');
  return out;
}

}  // namespace

Netlist parse_verilog(std::string_view text) { return Parser(text).parse(); }

Netlist read_verilog_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open verilog file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_verilog(buf.str());
}

std::string write_verilog(const Netlist& netlist) {
  std::vector<bool> is_output(netlist.num_nets(), false);
  for (NetId o : netlist.outputs()) is_output[o] = true;
  std::vector<bool> is_input(netlist.num_nets(), false);
  for (NetId i : netlist.inputs()) is_input[i] = true;

  // Words whose bits are all inputs or all outputs become vector ports; only
  // their bits print as vector references. Everything else gets a sanitized
  // unique scalar name.
  std::vector<const Word*> port_words;
  for (const Word& w : netlist.words()) {
    bool all_in = true, all_out = true;
    for (NetId b : w.bits) {
      all_in = all_in && is_input[b];
      all_out = all_out && is_output[b];
    }
    if (all_in || all_out) port_words.push_back(&w);
  }

  std::vector<std::string> ref(netlist.num_nets());
  std::unordered_set<std::string> used;
  std::unordered_set<NetId> in_word;
  for (const Word* w : port_words) {
    const std::string base = sanitize(w->name);
    used.insert(base);
    for (std::size_t i = 0; i < w->bits.size(); ++i) {
      if (ref[w->bits[i]].empty()) {
        ref[w->bits[i]] = base + "[" + std::to_string(i) + "]";
        in_word.insert(w->bits[i]);
      }
    }
  }
  for (NetId n = 0; n < netlist.num_nets(); ++n) {
    if (!ref[n].empty()) continue;
    std::string base = sanitize(netlist.gate(n).name);
    std::string name = base;
    int suffix = 0;
    while (!used.insert(name).second) name = base + "_" + std::to_string(++suffix);
    ref[n] = name;
  }

  std::ostringstream out;
  out << "module " << sanitize(netlist.name()) << " (\n";
  std::vector<std::string> port_lines;
  for (const Word* w : port_words) {
    const bool all_in = is_input[w->bits[0]];
    port_lines.push_back(std::string(all_in ? "  input" : "  output") + " [" +
                         std::to_string(w->bits.size() - 1) + ":0] " +
                         sanitize(w->name));
  }
  for (NetId n : netlist.inputs())
    if (!in_word.count(n)) port_lines.push_back("  input " + ref[n]);
  for (NetId n : netlist.outputs())
    if (!in_word.count(n)) port_lines.push_back("  output " + ref[n]);
  for (std::size_t i = 0; i < port_lines.size(); ++i)
    out << port_lines[i] << (i + 1 < port_lines.size() ? "," : "") << "\n";
  out << ");\n";

  for (NetId n : netlist.topological_order()) {
    const Netlist::Gate& g = netlist.gate(n);
    if (g.type == GateType::kInput) continue;
    if (!in_word.count(n) && !is_output[n] && ref[n].find('[') == std::string::npos)
      out << "  wire " << ref[n] << ";\n";
  }
  for (NetId n : netlist.topological_order()) {
    const Netlist::Gate& g = netlist.gate(n);
    switch (g.type) {
      case GateType::kInput:
        break;
      case GateType::kConst0:
        out << "  assign " << ref[n] << " = 1'b0;\n";
        break;
      case GateType::kConst1:
        out << "  assign " << ref[n] << " = 1'b1;\n";
        break;
      default: {
        out << "  " << gate_type_name(g.type) << " (" << ref[n];
        for (NetId f : g.fanins) out << ", " << ref[f];
        out << ");\n";
        break;
      }
    }
  }
  out << "endmodule\n";
  return out.str();
}

void write_verilog_file(const Netlist& netlist, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write verilog file: " + path);
  out << write_verilog(netlist);
}

Result<Netlist> try_parse_verilog(std::string_view text) {
  try {
    return parse_verilog(text);
  } catch (const VerilogError& e) {
    return Status::parse_error(e.what());
  } catch (...) {
    return status_from_current_exception();
  }
}

Result<Netlist> try_read_verilog_file(const std::string& path) {
  try {
    return read_verilog_file(path);
  } catch (const VerilogError& e) {
    return Status::parse_error(path + ": " + e.what());
  } catch (const std::runtime_error& e) {
    return Status::invalid_argument(e.what());  // I/O failure
  } catch (...) {
    return status_from_current_exception();
  }
}

Result<Netlist> try_read_circuit_file(const std::string& path) {
  return path.ends_with(".v") ? try_read_verilog_file(path)
                              : try_read_netlist_file(path);
}

}  // namespace gfa
