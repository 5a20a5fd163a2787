#include "pgmcml/netlist/design.hpp"

#include <algorithm>
#include <stdexcept>

#include "pgmcml/cells/library.hpp"

namespace pgmcml::netlist {

Design::Design(std::string name) : name_(std::move(name)) {}

NetId Design::add_net(const std::string& hint) {
  const NetId id = static_cast<NetId>(net_names_.size());
  net_names_.push_back(hint + "#" + std::to_string(id));
  return id;
}

InstId Design::add_instance(Instance inst) {
  const mcml::CellInfo& info = mcml::cell_info(inst.kind);
  if (static_cast<int>(inst.inputs.size()) != info.num_inputs) {
    throw std::invalid_argument("Design::add_instance(" + inst.name +
                                "): wrong input count");
  }
  if ((info.num_clocks > 0) != (inst.clk != kNoNet)) {
    throw std::invalid_argument("Design::add_instance(" + inst.name +
                                "): clock mismatch");
  }
  const std::size_t expected_outputs =
      inst.kind == mcml::CellKind::kFullAdder ? 2 : 1;
  if (inst.outputs.size() != expected_outputs) {
    throw std::invalid_argument("Design::add_instance(" + inst.name +
                                "): wrong output count");
  }
  const InstId id = static_cast<InstId>(instances_.size());
  instances_.push_back(std::move(inst));
  return id;
}

void Design::mark_input(NetId n, const std::string& name) {
  inputs_.push_back(n);
  input_names_.push_back(name);
}

void Design::mark_output(NetId n, const std::string& name, bool inverted) {
  outputs_.push_back(n);
  output_names_.push_back(name);
  output_inverted_.push_back(inverted);
}

const std::string& Design::port_name(std::size_t i, bool is_input) const {
  return is_input ? input_names_.at(i) : output_names_.at(i);
}

std::vector<NetId> Design::input_bus(const std::string& prefix,
                                     int width) const {
  std::vector<NetId> bus(static_cast<std::size_t>(width), kNoNet);
  const std::string open = prefix + "[";
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    const std::string& name = input_names_[i];
    if (name.rfind(open, 0) != 0) continue;
    const std::string digits =
        name.substr(open.size(), name.size() - open.size() - 1);
    if (name.back() != ']' || digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      throw std::invalid_argument("Design::input_bus: malformed port name '" +
                                  name + "' (expected " + prefix +
                                  "[<index>])");
    }
    // Nine digits cannot overflow an int; longer indices are out of range.
    const int idx = digits.size() > 9 ? width : std::stoi(digits);
    if (idx >= width) {
      throw std::out_of_range("Design::input_bus: index out of range [0, " +
                              std::to_string(width) + ") in '" + name + "'");
    }
    NetId& bit = bus[static_cast<std::size_t>(idx)];
    if (bit != kNoNet) {
      throw std::invalid_argument("Design::input_bus: duplicate port '" +
                                  name + "'");
    }
    bit = inputs_[i];
  }
  for (int b = 0; b < width; ++b) {
    if (bus[static_cast<std::size_t>(b)] == kNoNet) {
      throw std::invalid_argument("Design::input_bus: missing input bit " +
                                  prefix + "[" + std::to_string(b) + "]");
    }
  }
  return bus;
}

std::vector<InstId> Design::driver_map() const {
  std::vector<InstId> driver(num_nets(), -1);
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    for (NetId out : instances_[i].outputs) {
      if (driver[out] != -1) {
        throw std::logic_error("net " + net_name(out) + " has two drivers");
      }
      driver[out] = static_cast<InstId>(i);
    }
  }
  return driver;
}

std::vector<InstId> Design::topological_order() const {
  const std::vector<InstId> driver = driver_map();
  std::vector<int> state(instances_.size(), 0);  // 0 new, 1 visiting, 2 done
  std::vector<InstId> order;
  order.reserve(instances_.size());

  // Iterative DFS over combinational dependencies; sequential cells do not
  // propagate a dependency through their clocked path (they are cut points).
  std::vector<InstId> stack;
  for (std::size_t root = 0; root < instances_.size(); ++root) {
    if (state[root] != 0) continue;
    stack.push_back(static_cast<InstId>(root));
    while (!stack.empty()) {
      const InstId i = stack.back();
      if (state[i] == 2) {
        stack.pop_back();
        continue;
      }
      if (state[i] == 1) {
        state[i] = 2;
        order.push_back(i);
        stack.pop_back();
        continue;
      }
      state[i] = 1;
      const Instance& inst = instances_[i];
      if (!mcml::cell_info(inst.kind).sequential) {
        for (NetId in : inst.inputs) {
          const InstId d = driver[in];
          if (d < 0) continue;
          if (state[d] == 1) {
            throw std::logic_error("combinational cycle through " +
                                   instances_[d].name);
          }
          if (state[d] == 0) stack.push_back(d);
        }
      }
    }
  }
  return order;
}

Design::Stats Design::stats(const cells::CellLibrary& lib) const {
  Stats s;
  s.cells = instances_.size();
  for (const Instance& inst : instances_) {
    // Explicit inverters (BUF with folded inversion) are the cells the CMOS
    // mapper had to insert for complemented inputs; a folded inversion on a
    // logic gate's own output is free in every style (NAND-style output
    // stage in CMOS, wire swap in differential logic).
    const bool is_inverter =
        inst.kind == mcml::CellKind::kBuf && inst.inverted_output;
    if (is_inverter) {
      ++s.inverters;
      s.area += lib.free_inversion() ? lib.cell(inst.kind).area
                                     : lib.inverter_area();
    } else {
      s.area += lib.cell(inst.kind).area;
    }
  }

  // Longest combinational path by cell delay (arrival-time propagation).
  const std::vector<InstId> order = topological_order();
  const std::vector<InstId> driver = driver_map();
  std::vector<double> arrival(num_nets(), 0.0);
  for (InstId i : order) {
    const Instance& inst = instances_[i];
    double in_arrival = 0.0;
    if (!mcml::cell_info(inst.kind).sequential) {
      for (NetId in : inst.inputs) {
        in_arrival = std::max(in_arrival, arrival[in]);
      }
    }
    const double out_time = in_arrival + lib.cell(inst.kind).delay;
    for (NetId out : inst.outputs) {
      arrival[out] = out_time;
      s.critical_path = std::max(s.critical_path, out_time);
    }
  }
  return s;
}

std::vector<Design::LintIssue> Design::lint() const {
  std::vector<LintIssue> issues;
  const std::vector<InstId> driver = driver_map();
  std::vector<bool> is_input(num_nets(), false);
  for (NetId n : inputs_) is_input[n] = true;
  std::vector<bool> is_read(num_nets(), false);
  for (NetId n : outputs_) is_read[n] = true;

  for (std::size_t i = 0; i < instances_.size(); ++i) {
    const Instance& inst = instances_[i];
    auto check_in = [&](NetId n) {
      if (n == kNoNet) return;
      is_read[n] = true;
      if (driver[n] < 0 && !is_input[n]) {
        issues.push_back(LintIssue{LintIssue::Kind::kUndrivenInput, n,
                                   static_cast<InstId>(i)});
      }
    };
    for (NetId n : inst.inputs) check_in(n);
    check_in(inst.clk);
    check_in(inst.ctrl);
  }
  for (NetId n = 0; n < static_cast<NetId>(num_nets()); ++n) {
    if (driver[n] >= 0 && !is_read[n]) {
      issues.push_back(LintIssue{LintIssue::Kind::kDanglingNet, n, driver[n]});
    }
  }
  for (NetId n : outputs_) {
    if (driver[n] < 0 && !is_input[n]) {
      issues.push_back(LintIssue{LintIssue::Kind::kUndrivenOutput, n, -1});
    }
  }
  return issues;
}

}  // namespace pgmcml::netlist
