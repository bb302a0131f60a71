#pragma once
// Shared helpers for the test suite.

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "abstraction/extractor.h"
#include "certify/certify.h"
#include "circuit/netlist.h"
#include "gf/gf2k.h"
#include "poly/mpoly.h"

namespace gfa::test {

/// Deterministic splitmix64 stream.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    state_ += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform field element (any k).
  Gf2k::Elem elem(const Gf2k& field) {
    Gf2Poly p;
    for (unsigned i = 0; i < field.k(); ++i)
      if (next() & 1u) p.set_coeff(i, true);
    return p;
  }

 private:
  std::uint64_t state_;
};

/// The exact 2-bit multiplier of the paper's Fig. 2 over F_4 (P = x² + x + 1).
/// With `with_bug`, the r0 gate is fed s0 instead of s1 — the paper's
/// Example 5.1 defect.
inline Netlist make_fig2_multiplier(bool with_bug = false) {
  Netlist nl(with_bug ? "fig2_buggy" : "fig2");
  const NetId a0 = nl.add_input("a0"), a1 = nl.add_input("a1");
  const NetId b0 = nl.add_input("b0"), b1 = nl.add_input("b1");
  const NetId s0 = nl.add_gate(GateType::kAnd, {a0, b0}, "s0");
  const NetId s1 = nl.add_gate(GateType::kAnd, {a0, b1}, "s1");
  const NetId s2 = nl.add_gate(GateType::kAnd, {a1, b0}, "s2");
  const NetId s3 = nl.add_gate(GateType::kAnd, {a1, b1}, "s3");
  const NetId r0 =
      nl.add_gate(GateType::kXor, {with_bug ? s0 : s1, s2}, "r0");
  const NetId z0 = nl.add_gate(GateType::kXor, {s0, s3}, "z0");
  const NetId z1 = nl.add_gate(GateType::kXor, {r0, s3}, "z1");
  nl.mark_output(z0);
  nl.mark_output(z1);
  nl.declare_word("A", {a0, a1});
  nl.declare_word("B", {b0, b1});
  nl.declare_word("Z", {z0, z1});
  return nl;
}

/// A random 2-input-word combinational circuit: k-bit words A, B in, k-bit
/// word Z out, built from a random DAG of AND/OR/XOR/NOT gates.
inline Netlist make_random_word_circuit(unsigned k, std::uint64_t seed,
                                        std::size_t extra_gates = 24) {
  Rng rng(seed);
  Netlist nl("random_" + std::to_string(k) + "_" + std::to_string(seed));
  std::vector<NetId> a(k), b(k);
  for (unsigned i = 0; i < k; ++i) a[i] = nl.add_input("a" + std::to_string(i));
  for (unsigned i = 0; i < k; ++i) b[i] = nl.add_input("b" + std::to_string(i));
  std::vector<NetId> all;
  all.insert(all.end(), a.begin(), a.end());
  all.insert(all.end(), b.begin(), b.end());
  for (std::size_t g = 0; g < extra_gates; ++g) {
    const NetId x = all[rng.below(all.size())];
    const NetId y = all[rng.below(all.size())];
    NetId n;
    switch (rng.below(4)) {
      case 0: n = nl.add_gate(GateType::kAnd, {x, y}); break;
      case 1: n = nl.add_gate(GateType::kOr, {x, y}); break;
      case 2: n = nl.add_gate(GateType::kXor, {x, y}); break;
      default: n = nl.add_gate(GateType::kNot, {x}); break;
    }
    all.push_back(n);
  }
  std::vector<NetId> z(k);
  for (unsigned i = 0; i < k; ++i) {
    // Ensure outputs are gates (not raw inputs) so the output word is found.
    const NetId x = all[rng.below(all.size())];
    const NetId y = all[rng.below(all.size())];
    z[i] = nl.add_gate(GateType::kXor, {x, y}, "z" + std::to_string(i));
    nl.mark_output(z[i]);
  }
  nl.declare_word("A", a);
  nl.declare_word("B", b);
  nl.declare_word("Z", z);
  return nl;
}

/// `nl` with the cube over the inputs `vars` (bit i of `point` is the value
/// it requires of vars[i]) XORed into bit 0 of word "Z": the two differ
/// exactly where the cube holds. The gate that computed z0 moves to a new
/// net and z0 is rewired in place, so z0's fanins now carry larger NetIds
/// than z0 itself.
inline Netlist xor_cube_into_z0(Netlist nl, const std::vector<NetId>& vars,
                                std::uint64_t point) {
  const NetId z0 = nl.find_word("Z")->bits[0];
  const Netlist::Gate old = nl.gate(z0);
  const NetId moved = nl.add_gate(old.type, old.fanins, old.name + "_moved");
  std::vector<NetId> literals;
  for (std::size_t i = 0; i < vars.size(); ++i) {
    const NetId in = vars[i];
    literals.push_back((point >> i) & 1u
                           ? in
                           : nl.add_gate(GateType::kNot, {in},
                                         nl.gate(in).name + "_bar"));
  }
  const NetId minterm = nl.add_gate(GateType::kAnd, literals, "minterm");
  nl.mutable_gate(z0) = Netlist::Gate{GateType::kXor, {moved, minterm}, old.name};
  return nl;
}

/// `nl` with the minterm of `point` (bit i is the value of nl.inputs()[i])
/// XORed into bit 0 of word "Z": the two differ at that one input point.
inline Netlist xor_minterm_into_z0(Netlist nl, std::uint64_t point) {
  const std::vector<NetId> all = nl.inputs();
  return xor_cube_into_z0(std::move(nl), all, point);
}

/// A bug that the abstraction engine's simulation round misses: `spec` with
/// the minterm of the first point, counting down from all ones, that none of
/// the round's 64 lanes hits. Needs fewer than 64 input bits. The reduction
/// chain still tells the two apart.
inline Netlist bug_the_round_misses(const Netlist& spec, const Gf2k& field) {
  for (std::uint64_t point = (std::uint64_t{1} << spec.inputs().size()) - 1;;
       --point) {
    Netlist impl = xor_minterm_into_z0(spec, point);
    if (!certify::find_random_simulation_witness(spec, impl, field, 1))
      return impl;
  }
}

/// A bug that the simulation round misses in a field too wide to enumerate:
/// `spec` (words A, B, Z with k > 10, so the inputs total more than 20
/// bits) with a 5-literal cube over a0-a2 and b0-b1 XORed into z0. The
/// literals' polarities are the first, counting down from all true, that
/// none of the round's 64 lanes satisfies. The cube leaves a degree-5 term
/// in the remainder, so the chain decides through the general lift.
inline Netlist cube_the_round_misses(const Netlist& spec, const Gf2k& field) {
  const std::vector<NetId>& a = spec.find_word("A")->bits;
  const std::vector<NetId>& b = spec.find_word("B")->bits;
  const std::vector<NetId> vars = {a[0], a[1], a[2], b[0], b[1]};
  for (std::uint64_t point = 31;; --point) {
    Netlist impl = xor_cube_into_z0(spec, vars, point);
    if (!certify::find_random_simulation_witness(spec, impl, field, 1))
      return impl;
    if (point == 0) throw std::logic_error("the round hits every cube");
  }
}

/// Evaluates a WordFunction at named word inputs.
inline Gf2k::Elem eval_word_function(
    const WordFunction& fn, const Gf2k& field,
    const std::map<std::string, Gf2k::Elem>& inputs) {
  return fn.g.eval([&](VarId v) {
    auto it = inputs.find(fn.pool.name(v));
    if (it == inputs.end()) return field.zero();
    return it->second;
  });
}

}  // namespace gfa::test
