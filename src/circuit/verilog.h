#pragma once
// Structural Verilog subset: reader and writer.
//
// Real GF arithmetic IP ships as structural Verilog, so the library accepts
// it directly. Supported subset (one module per file):
//
//     module mul (input [1:0] a, input [1:0] b, output [1:0] z);
//       wire s0;                     // scalar and vector declarations,
//       wire [3:0] t;                // header-style or body-style ports
//       and g1 (s0, a[0], b[0]);     // gate primitives, optional instance
//       xor (z[0], s0, t[3]);        //   names, 2+ inputs (not/buf: 1)
//       assign z[1] = (a[1] & b[0]) ^ ~s0 | t[2];  // ~ & ^ | and parens
//     endmodule
//
// Vector ports become declared words (LSB-first, index 0 = α⁰ coordinate),
// which is exactly the word structure the abstraction needs; scalar ports
// stay plain nets. Comments // and /* */ are handled. Unsupported Verilog
// (behavioural blocks, parameters, multiple drivers…) is rejected with a
// line-numbered VerilogError.

#include <stdexcept>
#include <string>
#include <string_view>

#include "circuit/netlist.h"
#include "util/status.h"

namespace gfa {

struct VerilogError : std::runtime_error {
  VerilogError(std::size_t line, const std::string& message)
      : std::runtime_error("verilog line " + std::to_string(line) + ": " + message),
        line_number(line) {}
  std::size_t line_number;
};

/// Parses the subset above; throws VerilogError on anything else.
Netlist parse_verilog(std::string_view text);

/// Reads and parses a Verilog file.
Netlist read_verilog_file(const std::string& path);

/// Emits the netlist as structural Verilog (gate primitives only; declared
/// words become vector ports when their bits are all inputs/outputs).
/// Round-trips through parse_verilog.
std::string write_verilog(const Netlist& netlist);

void write_verilog_file(const Netlist& netlist, const std::string& path);

/// Non-throwing variants: VerilogError maps to Status kParseError (carrying
/// the line-numbered message), I/O failure to kInvalidArgument.
Result<Netlist> try_parse_verilog(std::string_view text);
Result<Netlist> try_read_verilog_file(const std::string& path);

/// Reads a circuit file in either format, picked by suffix: `.v` is the
/// Verilog subset above, anything else the native netlist format
/// (circuit/parser.h). Errors as try_read_verilog_file /
/// try_read_netlist_file.
Result<Netlist> try_read_circuit_file(const std::string& path);

}  // namespace gfa
