// Verilog-2001 emitter for bespoke netlists — the paper's flow translates
// trained coefficients/masks "into an HDL description"; this produces that
// artifact so the circuits can be taken to a real EDA flow.
//
// The emitter is a dual emit+eval expression layer (the VeriGen idiom):
// every assign it emits carries both its text form and an in-process
// evaluator with the semantics of that text, so the emitted module can be
// executed without an external simulator and cross-checked gate-by-gate
// against the netlist's own simulator. An emitter bug — a wrong operator,
// swapped operands, a misnamed net — shows up as a cross_check mismatch in
// unit tests instead of surviving until someone runs iverilog.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "pmlp/netlist/netlist.hpp"

namespace pmlp::netlist {

/// Map an arbitrary net/module name onto a legal Verilog identifier:
/// characters outside [A-Za-z0-9_] become '_', and a leading digit gets an
/// "n_" prefix. Shared by the DUT and testbench emitters so instantiations
/// always match port declarations.
[[nodiscard]] std::string sanitize_identifier(const std::string& name);

/// One emitted continuous assignment: the text that lands in the .v file
/// plus enough structure to execute it in-process. `eval` implements the
/// semantics of the emitted Verilog expression (not a pointer back into the
/// netlist), so evaluating the assign list is an independent second
/// implementation of the circuit.
struct AssignExpr {
  hwmodel::CellType op = hwmodel::CellType::kNot;
  std::array<NetId, 3> in{-1, -1, -1};
  std::array<NetId, 2> out{-1, -1};
  std::string text;  ///< complete line(s), e.g. "  assign n5 = a & b;\n"

  /// Execute the assign over per-net storage (index = NetId, as in
  /// Netlist::evaluate; slots 0/1 must hold the constants).
  void eval(std::vector<char>& values) const;
  /// The same over 64 vectors at once: bit l of words[n] is net n in
  /// vector l (as in Netlist::evaluate_packed).
  void eval_packed(std::vector<std::uint64_t>& words) const;
};

/// A netlist rendered as a Verilog module. Holds a pointer to the netlist
/// (which must outlive it) plus the assign list; `emit` writes the exact
/// module text, `eval` runs the assigns in-process, and `cross_check`
/// compares the two implementations gate output by gate output.
class EmittedModule {
 public:
  EmittedModule(const Netlist& nl, const std::string& module_name);

  /// Write the complete flat structural module (header, ports, wires,
  /// assigns, aliases). Ports are the nets registered via
  /// add_input/mark_output; FAs and HAs become concatenation-sum assigns,
  /// simple gates boolean assigns.
  void emit(std::ostream& os) const;
  /// The module as a string.
  [[nodiscard]] std::string text() const;

  [[nodiscard]] const std::vector<AssignExpr>& assigns() const {
    return assigns_;
  }
  [[nodiscard]] const std::string& module_name() const { return module_name_; }

  /// The Verilog name a net has inside the module body: a sanitized port
  /// name for primary inputs, "1'b0"/"1'b1" for the constants, "n<id>"
  /// otherwise.
  [[nodiscard]] std::string net_name(NetId n) const;

  /// Evaluate the emitted assigns over one input vector (inputs() order,
  /// like Netlist::simulate). Returns one bool per marked output.
  [[nodiscard]] std::vector<bool> eval(const std::vector<bool>& inputs) const;

  /// Evaluate both implementations — the assign layer and the netlist
  /// simulator — over one input vector and compare every gate output net.
  /// Returns the number of mismatching nets (0 = the emitted RTL and the
  /// gate-level sim agree everywhere, not just at the outputs).
  [[nodiscard]] int cross_check(const std::vector<bool>& inputs) const;
  /// The comparison half of cross_check: the number of gate output nets
  /// whose values differ between two per-net value sets (`ours` from the
  /// assigns, `golden` from Netlist::evaluate).
  [[nodiscard]] int cross_check(const std::vector<char>& ours,
                                const std::vector<char>& golden) const;

  /// Packed eval: run the assigns over 64 vectors at once. `words` is
  /// per-net storage (n_nets() entries, bit l = vector l) with the
  /// primary inputs pre-set; the constants and assign outputs are filled
  /// in. Implements the emitted text's semantics on its own, not by
  /// calling Netlist::evaluate_packed, so the packed check still compares
  /// two implementations.
  void eval_packed(std::vector<std::uint64_t>& words) const;

  /// Packed cross_check: per-lane mismatch counts between packed assign
  /// values (`ours`, from eval_packed) and packed netlist values
  /// (`golden`, from Netlist::evaluate_packed) over every gate output
  /// net. Lane l of the result is cross_check for vector l.
  [[nodiscard]] std::array<int, 64> cross_check_packed(
      const std::vector<std::uint64_t>& ours,
      const std::vector<std::uint64_t>& golden) const;

 private:
  [[nodiscard]] std::vector<char> run_assigns(
      const std::vector<bool>& inputs) const;

  const Netlist* nl_;
  std::string module_name_;
  std::map<NetId, std::string> input_names_;
  std::vector<AssignExpr> assigns_;
};

}  // namespace pmlp::netlist
