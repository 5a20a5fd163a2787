// Gate-level structural netlist.
//
// A Design is a directed graph of cell instances over single-bit nets (the
// differential/fat-wire routing of the physical MCML implementation is
// invisible at this level -- each logical net stands for the differential
// pair).  Cell functions are identified by mcml::CellKind so the same mapped
// netlist can be costed against any of the three libraries.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pgmcml/mcml/cells.hpp"

namespace pgmcml::cells {
class CellLibrary;
}

namespace pgmcml::netlist {

using NetId = std::int32_t;
using InstId = std::int32_t;

inline constexpr NetId kNoNet = -1;

struct Instance {
  std::string name;
  mcml::CellKind kind{};
  /// Data inputs, in the cell's canonical order (see mcml::cell_info).
  std::vector<NetId> inputs;
  NetId clk = kNoNet;
  NetId ctrl = kNoNet;  ///< reset / enable
  /// Outputs: one net for most cells, {sum, cout} for the full adder.
  std::vector<NetId> outputs;
  /// For CMOS mapping: true when this instance's single output is the
  /// complement of the cell function (a trailing inverter folded in).
  bool inverted_output = false;
  /// Differential logic reads either phase of a net for free: when set,
  /// input i is the complement of `inputs[i]` (empty means none inverted).
  /// CMOS netlists never use this; the mapper inserts inverter cells.
  std::vector<bool> input_inverted;
};

class Design {
 public:
  explicit Design(std::string name = "top");

  const std::string& name() const { return name_; }

  NetId add_net(const std::string& hint = "n");
  std::size_t num_nets() const { return net_names_.size(); }
  const std::string& net_name(NetId n) const { return net_names_.at(n); }

  InstId add_instance(Instance inst);
  std::size_t num_instances() const { return instances_.size(); }
  const Instance& instance(InstId i) const { return instances_.at(i); }
  const std::vector<Instance>& instances() const { return instances_; }

  /// Primary ports.
  void mark_input(NetId n, const std::string& name);
  /// `inverted` marks a differential output read on its complement phase.
  void mark_output(NetId n, const std::string& name, bool inverted = false);
  const std::vector<NetId>& inputs() const { return inputs_; }
  const std::vector<NetId>& outputs() const { return outputs_; }
  bool output_inverted(std::size_t i) const { return output_inverted_.at(i); }
  const std::string& port_name(std::size_t i, bool is_input) const;
  /// The nets of input bus `prefix`, bit i from port "prefix[i]".  Throws
  /// when a "prefix[...]" port has a malformed, duplicate or out-of-range
  /// index, or when any of the `width` bits is missing.
  std::vector<NetId> input_bus(const std::string& prefix, int width) const;

  /// Index of the instance driving each net (-1 for primary inputs).
  std::vector<InstId> driver_map() const;
  /// Instances in topological order (sequential cells act as sources).
  /// Throws if the combinational part has a cycle.
  std::vector<InstId> topological_order() const;

  /// Sum of cell areas in the given library, plus inverter overhead where
  /// the mapper recorded folded inversions and the library charges for them.
  struct Stats {
    std::size_t cells = 0;       ///< library cell instances
    std::size_t inverters = 0;   ///< extra CMOS inverters (folded inversions)
    double area = 0.0;           ///< [m^2]
    double critical_path = 0.0;  ///< combinational depth in delay units [s]
  };
  Stats stats(const cells::CellLibrary& lib) const;

  /// Structural lint: undriven instance inputs, dangling (unread) internal
  /// nets, and outputs without a driver.  Clean synthesized designs report
  /// no issues; hand-built test designs may legitimately have some.
  struct LintIssue {
    enum class Kind { kUndrivenInput, kDanglingNet, kUndrivenOutput };
    Kind kind;
    NetId net = kNoNet;
    InstId instance = -1;
  };
  std::vector<LintIssue> lint() const;

 private:
  std::string name_;
  std::vector<std::string> net_names_;
  std::vector<Instance> instances_;
  std::vector<NetId> inputs_;
  std::vector<NetId> outputs_;
  std::vector<bool> output_inverted_;
  std::vector<std::string> input_names_;
  std::vector<std::string> output_names_;
};

}  // namespace pgmcml::netlist
