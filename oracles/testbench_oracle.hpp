// Test-only oracle for the testbench emitter: the original per-vector
// writer, one stream insertion per input bit per vector with a scalar
// BespokeCircuit::predict per vector for the expected class.
// netlist::emit_testbench must produce exactly its bytes.
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
