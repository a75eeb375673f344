// Test-only oracle for the testbench emitter: the original per-vector
// writer, one `<port> = 1'bB;` drive statement per input bit per vector and
// a scalar BespokeCircuit::predict per vector for the expected class.
// netlist::emit_testbench, which writes the stimulus as data for $readmemh,
// must apply exactly its vector sequence with exactly its expected classes.
#pragma once

#include <cstdint>
#include <ostream>
#include <span>

#include "pmlp/netlist/builders.hpp"
#include "pmlp/netlist/testbench.hpp"

namespace pmlp::oracles {

void emit_testbench_naive(const netlist::BespokeCircuit& circuit,
                          int n_features,
                          std::span<const std::uint8_t> codes_flat,
                          const netlist::TestbenchOptions& opts,
                          std::ostream& os);

}  // namespace pmlp::oracles
