#include "circuit/verilog.h"

#include <gtest/gtest.h>

#include "abstraction/equivalence.h"
#include "circuit/mastrovito.h"
#include "circuit/montgomery.h"
#include "circuit/parser.h"
#include "circuit/sim.h"
#include "test_util.h"

namespace gfa {
namespace {

constexpr const char* kMul2Verilog = R"(
// The paper's Fig. 2 multiplier, ANSI-style header.
module mul2 (input [1:0] A, input [1:0] B, output [1:0] Z);
  wire s0, s1, s2, s3, r0;
  and g0 (s0, A[0], B[0]);
  and g1 (s1, A[0], B[1]);
  and g2 (s2, A[1], B[0]);
  and g3 (s3, A[1], B[1]);
  xor g4 (r0, s1, s2);
  xor g5 (Z[0], s0, s3);
  xor g6 (Z[1], r0, s3);
endmodule
)";

TEST(Verilog, ParsesAnsiModule) {
  const Netlist nl = parse_verilog(kMul2Verilog);
  EXPECT_EQ(nl.name(), "mul2");
  EXPECT_EQ(nl.inputs().size(), 4u);
  EXPECT_EQ(nl.outputs().size(), 2u);
  EXPECT_EQ(nl.num_logic_gates(), 7u);
  ASSERT_NE(nl.find_word("A"), nullptr);
  ASSERT_NE(nl.find_word("Z"), nullptr);
  EXPECT_TRUE(nl.validate().empty());
}

TEST(Verilog, ParsedFig2AbstractsToAB) {
  const Gf2k field(Gf2Poly::from_bits(0b111));
  const WordFunction fn = extract_word_function(parse_verilog(kMul2Verilog), field);
  const MPoly ab = MPoly::variable(&field, fn.pool.id("A")) *
                   MPoly::variable(&field, fn.pool.id("B"));
  EXPECT_EQ(fn.g, ab);
}

TEST(Verilog, NonAnsiPortsAndAssigns) {
  const Netlist nl = parse_verilog(R"(
    module m (a, b, y, z);
      input a, b;
      output y;
      output z;
      wire t;
      assign t = a & ~b;
      assign y = t ^ b | a;
      assign z = 1'b1;
    endmodule
  )");
  EXPECT_TRUE(nl.validate().empty());
  // Exhaustive behavioural check of the expression tree.
  const auto v = simulate(nl, {0b0011, 0b0101});
  const NetId y = nl.find_net("y"), z = nl.find_net("z");
  for (int m = 0; m < 4; ++m) {
    const bool a = (0b0011 >> m) & 1, b = (0b0101 >> m) & 1;
    const bool expect_y = ((a && !b) != b) || a;  // (a & ~b) ^ b | a
    EXPECT_EQ((v[y] >> m) & 1, expect_y ? 1u : 0u) << m;
    EXPECT_EQ((v[z] >> m) & 1, 1u);
  }
}

TEST(Verilog, CommentsAndOutOfOrderBodies) {
  const Netlist nl = parse_verilog(
      "module m (input a, output z); /* block\ncomment */\n"
      "  xor (z, t, a); // uses t before its driver\n"
      "  not (t, a);\n"
      "endmodule\n");
  EXPECT_TRUE(nl.validate().empty());
  const auto v = simulate(nl, {0b01});
  EXPECT_EQ(v[nl.find_net("z")] & 0b11, 0b11u);  // a ^ ~a = 1
}

TEST(Verilog, RejectsBadInput) {
  EXPECT_THROW(parse_verilog("module m (input a, output z);\n"), VerilogError);
  EXPECT_THROW(parse_verilog("module m (input a, output z);"
                             " always @(posedge a) z = 1; endmodule"),
               VerilogError);
  EXPECT_THROW(parse_verilog("module m (input a, output z);"
                             " and (z, a); endmodule"),
               VerilogError);  // arity
  EXPECT_THROW(parse_verilog("module m (input a, output z);"
                             " buf (z, a); buf (z, a); endmodule"),
               VerilogError);  // multiple drivers
  EXPECT_THROW(parse_verilog("module m (input [1:0] a, output z);"
                             " buf (z, a); endmodule"),
               VerilogError);  // vector without index
  EXPECT_THROW(parse_verilog("module m (input [1:0] a, output z);"
                             " buf (z, a[5]); endmodule"),
               VerilogError);  // out of range
  EXPECT_THROW(parse_verilog("module m (input a, output z);"
                             " buf (z, ghost); endmodule"),
               VerilogError);  // undriven
  EXPECT_THROW(parse_verilog("module m (input a, output z);"
                             " and (x, z, a); and (z, x, a); endmodule"),
               VerilogError);  // cycle
}

TEST(Verilog, ErrorCarriesLineNumber) {
  try {
    parse_verilog("module m (input a, output z);\n\n  frobnicate;\nendmodule");
    FAIL();
  } catch (const VerilogError& e) {
    EXPECT_EQ(e.line_number, 3u);
  }
}

class VerilogRoundTrip : public ::testing::TestWithParam<unsigned> {};

TEST_P(VerilogRoundTrip, MultiplierSurvivesWriteParse) {
  const Gf2k field = Gf2k::make(GetParam());
  const Netlist original = make_montgomery_multiplier_flat(field);
  const Netlist back = parse_verilog(write_verilog(original));
  EXPECT_TRUE(back.validate().empty());
  ASSERT_NE(back.find_word("A"), nullptr);
  ASSERT_NE(back.find_word("Z"), nullptr);
  // Functional equality via canonical polynomials.
  const EquivalenceResult eq = check_equivalence(original, back, field);
  EXPECT_TRUE(eq.equivalent) << eq.difference;
}

INSTANTIATE_TEST_SUITE_P(Sizes, VerilogRoundTrip, ::testing::Values(2, 4, 8));

TEST(Verilog, WriterHandlesConstantsAndNots) {
  Netlist nl("consts");
  const NetId a = nl.add_input("a");
  const NetId c1 = nl.add_const(true, "one");
  const NetId n = nl.add_gate(GateType::kNot, {a}, "na");
  const NetId z = nl.add_gate(GateType::kAnd, {n, c1}, "z");
  nl.mark_output(z);
  const Netlist back = parse_verilog(write_verilog(nl));
  EXPECT_TRUE(back.validate().empty());
  const auto v = simulate(back, {0b01});
  EXPECT_EQ(v[back.outputs()[0]] & 0b11, 0b10u);  // ~a & 1
}

TEST(Verilog, FileRoundTrip) {
  const Netlist nl = parse_verilog(kMul2Verilog);
  const std::string path = ::testing::TempDir() + "/mul2.v";
  write_verilog_file(nl, path);
  const Netlist back = read_verilog_file(path);
  EXPECT_EQ(back.num_logic_gates(), nl.num_logic_gates());
  EXPECT_THROW(read_verilog_file("/nonexistent/x.v"), std::runtime_error);
}

TEST(CircuitFile, SuffixPicksTheReader) {
  const Netlist nl = parse_verilog(kMul2Verilog);
  const std::string dir = ::testing::TempDir();
  write_verilog_file(nl, dir + "/circuit_file.v");
  write_netlist_file(nl, dir + "/circuit_file.net");
  for (const char* name : {"/circuit_file.v", "/circuit_file.net"}) {
    const Result<Netlist> r = try_read_circuit_file(dir + name);
    ASSERT_TRUE(r.ok()) << name << ": " << r.status().to_string();
    EXPECT_EQ(r->num_logic_gates(), nl.num_logic_gates()) << name;
    EXPECT_NE(r->find_word("Z"), nullptr) << name;
  }
  // Verilog text under a non-.v name goes to the netlist parser.
  write_verilog_file(nl, dir + "/circuit_file_verilog.net");
  EXPECT_EQ(try_read_circuit_file(dir + "/circuit_file_verilog.net")
                .status()
                .code(),
            StatusCode::kParseError);
  // A missing file is an I/O failure in either format.
  for (const char* path : {"/nonexistent/x.v", "/nonexistent/x.net"})
    EXPECT_EQ(try_read_circuit_file(path).status().code(),
              StatusCode::kInvalidArgument)
        << path;
}

// ---------------------------------------------------------------------------
// Hardening found by tools/fuzz_parser: pathological-but-cheap inputs must
// produce a line-numbered VerilogError (or parse fine), never a crash.

TEST(Verilog, DeepReversedAssignChainDoesNotOverflowTheStack) {
  const int depth = 50000;
  std::string text = "module deep (input a, output z);\n";
  text += "  wire";
  for (int d = 0; d < depth; ++d)
    text += (d ? ", c" : " c") + std::to_string(d);
  text += ";\n";
  // Deepest-first: emitting z pulls the entire chain through the emitter.
  text += "  assign z = c" + std::to_string(depth - 1) + ";\n";
  for (int d = depth - 1; d >= 1; --d)
    text += "  assign c" + std::to_string(d) + " = ~c" +
            std::to_string(d - 1) + ";\n";
  text += "  assign c0 = ~a;\nendmodule\n";
  const Netlist nl = parse_verilog(text);
  EXPECT_GE(nl.num_logic_gates(), static_cast<std::size_t>(depth));
}

TEST(Verilog, HugeVectorWidthIsRejectedNotAllocated) {
  const Result<Netlist> r = try_parse_verilog(
      "module m (input a, output z);\n  wire [1048577:0] h;\n"
      "  assign z = a;\nendmodule\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(Verilog, OverflowingIndexLiteralIsAParseErrorNotUb) {
  const Result<Netlist> r = try_parse_verilog(
      "module m (input a, output z);\n"
      "  wire [99999999999999999999:0] h;\n  assign z = a;\nendmodule\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(Verilog, ModeratelyNestedParensParse) {
  std::string expr(64, '(');
  expr += "a";
  expr.append(64, ')');
  const Netlist nl = parse_verilog("module m (input a, output z);\n  assign z = " +
                                   expr + ";\nendmodule\n");
  EXPECT_TRUE(nl.validate().empty());
}

TEST(Verilog, RunawayExpressionNestingIsRejected) {
  std::string expr(1000, '(');
  expr += "a";
  expr.append(1000, ')');
  const Result<Netlist> r = try_parse_verilog(
      "module m (input a, output z);\n  assign z = " + expr +
      ";\nendmodule\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find("nest"), std::string::npos);
}

}  // namespace
}  // namespace gfa
