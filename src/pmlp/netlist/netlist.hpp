// Gate-level netlist graph: construction, functional simulation, cost
// reporting against an EGFET cell library. Together with builders.hpp this
// substitutes for the paper's synthesis + VCS/PrimeTime flow: circuits are
// built in SSA (topological) order, simulated cycle-free, and priced by
// cell counts (see DESIGN.md §2).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "pmlp/hwmodel/cells.hpp"

namespace pmlp::netlist {

using NetId = int;

/// One standard-cell instance. Unused input/output slots hold -1.
/// Conventions: FA inputs {a,b,cin} outputs {sum,carry}; HA inputs {a,b}
/// outputs {sum,carry}; MUX2 inputs {a,b,sel} output a when sel=0, b when
/// sel=1; all other gates use in[0..1] and out[0].
struct Gate {
  hwmodel::CellType type = hwmodel::CellType::kNot;
  std::array<NetId, 3> in{-1, -1, -1};
  std::array<NetId, 2> out{-1, -1};
};

/// A little-endian bus: nets[i] is bit i.
using Bus = std::vector<NetId>;

class Netlist {
 public:
  Netlist();

  /// Constant nets (always valid).
  [[nodiscard]] NetId const0() const { return 0; }
  [[nodiscard]] NetId const1() const { return 1; }

  /// Register a named primary input; returns its net.
  NetId add_input(const std::string& name);
  /// Register a primary input bus of `width` bits named name[0..width-1].
  Bus add_input_bus(const std::string& name, int width);
  /// Mark an existing net as a named primary output.
  void mark_output(NetId net, const std::string& name);

  // --- Gate constructors. All inputs must be existing nets.
  NetId add_not(NetId a);
  NetId add_buf(NetId a);
  NetId add_and(NetId a, NetId b);
  NetId add_or(NetId a, NetId b);
  NetId add_nand(NetId a, NetId b);
  NetId add_nor(NetId a, NetId b);
  NetId add_xor(NetId a, NetId b);
  NetId add_xnor(NetId a, NetId b);
  NetId add_mux(NetId a, NetId b, NetId sel);        ///< sel ? b : a
  NetId add_dff(NetId d);  ///< register (transparent in combinational sim)
  std::pair<NetId, NetId> add_ha(NetId a, NetId b);  ///< {sum, carry}
  std::pair<NetId, NetId> add_fa(NetId a, NetId b, NetId cin);

  /// Balanced OR over `bits` (empty -> const0, single -> pass-through).
  NetId add_or_tree(const Bus& bits);
  /// Balanced AND over `bits` (empty -> const1).
  NetId add_and_tree(const Bus& bits);

  [[nodiscard]] const std::vector<Gate>& gates() const { return gates_; }
  [[nodiscard]] int n_nets() const { return n_nets_; }
  [[nodiscard]] const std::vector<std::pair<NetId, std::string>>& outputs() const {
    return outputs_;
  }
  [[nodiscard]] const std::vector<std::pair<NetId, std::string>>& inputs() const {
    return inputs_;
  }

  /// Cell-count histogram indexed by CellType.
  [[nodiscard]] std::array<long, hwmodel::kNumCellTypes> cell_histogram() const;
  /// Number of cells of one type.
  [[nodiscard]] long count(hwmodel::CellType t) const;

  /// Area/power/critical-path cost under `lib` (static-dominated power).
  [[nodiscard]] hwmodel::CircuitCost cost(const hwmodel::CellLibrary& lib) const;

  /// Combinational simulation. `input_values[i]` drives inputs()[i]'s net.
  /// Returns one bool per marked output, in outputs() order.
  [[nodiscard]] std::vector<bool> simulate(
      const std::vector<bool>& input_values) const;

  /// Evaluate with explicit per-net storage (for callers driving nets
  /// directly, e.g. bus helpers). `values` must have n_nets() entries with
  /// inputs pre-set; gate outputs are filled in.
  void evaluate(std::vector<char>& values) const;

  /// Same, but forces gate `gate_index`'s output slot to `value` right
  /// after that gate evaluates — single stuck-at fault injection
  /// (downstream gates observe the forced value).
  void evaluate_with_override(std::vector<char>& values, int gate_index,
                              int output_slot, bool value) const;

  /// Packed evaluation of up to 64 vectors at once: `words` has n_nets()
  /// entries and bit l of words[n] is net n's value in vector (lane) l.
  /// Inputs are pre-set; the constants and every gate output are filled
  /// in. Lane for lane the result equals evaluate(), which is its oracle.
  void evaluate_packed(std::vector<std::uint64_t>& words) const;

 private:
  NetId new_net();
  Gate& push_gate(hwmodel::CellType type);

  int n_nets_ = 0;
  std::vector<Gate> gates_;
  std::vector<std::pair<NetId, std::string>> inputs_;
  std::vector<std::pair<NetId, std::string>> outputs_;
};

/// Drive a little-endian bus from an unsigned value (helper for tests/sim).
void drive_bus(std::vector<char>& values, const Bus& bus, std::uint64_t v);
/// Read a little-endian bus as unsigned.
[[nodiscard]] std::uint64_t read_bus(const std::vector<char>& values,
                                     const Bus& bus);
/// Packed read_bus: out[l] = the bus value in lane l of per-net `words`,
/// for the first out.size() (<= 64) lanes.
void read_bus_lanes(const std::vector<std::uint64_t>& words, const Bus& bus,
                    std::span<int> out);

}  // namespace pmlp::netlist
