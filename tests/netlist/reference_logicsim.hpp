// Test-only reference: the event-driven LogicSim as it was before its
// per-instance tables, shared copies, bit-packed evaluation and per-time
// event lists, kept unchanged (apart from its namespace) as the oracle the
// production simulator's event lists and toggle counts must match bit for
// bit.
// Do not optimise it: its value is that it is the old, obvious code.
//
// Event-driven gate-level logic simulator.
//
// Plays the role Modelsim plays in the paper's flow: it simulates the mapped
// netlist with per-cell propagation delays and records every net transition
// (a VCD in memory).  The recorded event stream -- which instance toggled,
// when, in which direction -- is exactly what the power-trace composer needs
// to reproduce the Nanosim current simulation.
#pragma once

#include <queue>
#include <vector>

#include "pgmcml/cells/library.hpp"
#include "pgmcml/netlist/design.hpp"

namespace pgmcml::netlist::reference {

/// One recorded net transition.
struct SimEvent {
  double time = 0.0;
  NetId net = kNoNet;
  bool value = false;
  InstId driver = -1;  ///< -1 for primary-input changes
};

class LogicSim {
 public:
  /// `library` supplies per-cell delays; pass nullptr for a 10 ps unit delay.
  explicit LogicSim(const Design& design,
                    const cells::CellLibrary* library = nullptr);

  /// Schedules a primary-input change at `time` (>= current time).
  void set_input(NetId net, bool value, double time);

  /// Processes all events up to and including `time`.
  void run_until(double time);

  /// Convenience: apply an input assignment at the current time, advance
  /// far enough for the combinational logic to settle, and return.
  void apply_and_settle(const std::vector<std::pair<NetId, bool>>& assign);

  double now() const { return now_; }
  bool value(NetId net) const { return values_.at(net); }

  const std::vector<SimEvent>& events() const { return events_; }
  void clear_events() { events_.clear(); }

  /// Output toggles of each instance since construction (activity factors).
  std::size_t toggle_count(InstId inst) const { return toggles_.at(inst); }
  std::size_t total_toggles() const;

 private:
  struct Pending {
    double time;
    long seq;  ///< tie-break so same-time events fire in schedule order
    NetId net;
    bool value;
    InstId driver;
    bool operator>(const Pending& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };

  void schedule(double time, NetId net, bool value, InstId driver);
  void fire(const Pending& ev);
  void evaluate_instance(InstId inst, double time);
  double delay_of(const Instance& inst) const;

  const Design& design_;
  const cells::CellLibrary* library_;
  std::vector<bool> values_;
  std::vector<bool> prev_clk_;        ///< per instance, for edge detection
  std::vector<bool> state_;           ///< per instance, sequential state
  std::vector<std::vector<InstId>> fanout_;  ///< net -> instances reading it
  std::priority_queue<Pending, std::vector<Pending>, std::greater<>> queue_;
  std::vector<SimEvent> events_;
  std::vector<std::size_t> toggles_;
  double now_ = 0.0;
  long seq_counter_ = 0;
};

/// Pure-function evaluation of a cell's outputs from input values.
/// `state` is the current sequential state (q) for latches/flops.
std::vector<bool> eval_cell(mcml::CellKind kind,
                            const std::vector<bool>& inputs, bool clk,
                            bool ctrl, bool state);

}  // namespace pgmcml::netlist::reference
