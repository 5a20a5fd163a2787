// Event-driven gate-level logic simulator.
//
// Plays the role Modelsim plays in the paper's flow: it simulates the mapped
// netlist with per-cell propagation delays and records every net transition
// (a VCD in memory).  The recorded event stream -- which instance toggled,
// when, in which direction -- is exactly what the power-trace composer needs
// to reproduce the Nanosim current simulation.
//
// Construction compiles the design once into an immutable per-instance table
// (pins, input-inversion mask, cell delay, sequential flag) and a flat net ->
// reader fanout.  Copies share that table and duplicate only the mutable
// simulation state -- net values, flop state, pending events, recorded
// events, toggle counts and time -- so a copy of a simulator continues
// exactly as the original would, in-flight events included.  That is how a
// caller replays many stimuli from one precharge state: settle once, copy per
// stimulus.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "pgmcml/cells/library.hpp"
#include "pgmcml/netlist/design.hpp"

namespace pgmcml::netlist {

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
  /// Throws std::invalid_argument when the library lacks a cell the design
  /// instantiates or an instance has a pin on a net outside the design.
  explicit LogicSim(const Design& design,
                    const cells::CellLibrary* library = nullptr);

  /// Schedules a primary-input change at `time` (>= current time; throws
  /// std::invalid_argument otherwise, NaN included).  Throws
  /// std::out_of_range for a net outside the design (kNoNet included).
  void set_input(NetId net, bool value, double time);

  /// Processes all events up to and including `time`.
  void run_until(double time);

  /// Convenience: apply an input assignment at the current time, advance
  /// far enough for the combinational logic to settle, and return.
  void apply_and_settle(const std::vector<std::pair<NetId, bool>>& assign);

  double now() const { return now_; }
  bool value(NetId net) const { return values_.at(net) != 0; }

  const std::vector<SimEvent>& events() const { return events_; }
  void clear_events() { events_.clear(); }

  /// Output toggles of each instance since construction (activity factors).
  std::size_t toggle_count(InstId inst) const { return toggles_.at(inst); }
  std::size_t total_toggles() const;

  /// Work since construction (a copy inherits its source's totals): net
  /// transitions fired and instance evaluations, clear_events() or not.
  std::uint64_t events_fired() const { return events_fired_; }
  std::uint64_t evaluations() const { return evaluations_; }

  /// Adds the work not yet flushed by this simulator (or the one it was
  /// copied from) to the `netlist.logicsim.events` / `.evaluations`
  /// counters.  Call it once per simulation, not per event.
  void flush_work_counters();

 private:
  static constexpr std::uint32_t kEnd = 0xFFFFFFFFu;  ///< end of a list

  /// One scheduled net change, a slot in `pending_`; `next` links the
  /// changes scheduled for one time (or the free slots).
  struct Pending {
    NetId net;
    InstId driver;
    std::uint32_t next;
    bool value;
  };

  /// The changes scheduled for one exact time, in schedule order.  Events
  /// fire in (time, schedule order): same-time events in the order they were
  /// scheduled, as a (time, sequence number) priority queue would pop them.
  struct Bucket {
    double time;
    std::uint32_t head;
    std::uint32_t tail;
  };

  /// One instance, compiled: everything evaluation reads except net values.
  struct Cell {
    mcml::CellKind kind;
    bool sequential;
    bool inverted_output;
    std::uint8_t num_inputs;
    std::uint8_t num_outputs;
    std::uint32_t inverted_inputs;  ///< bit k: data input k is complemented
    std::uint32_t first_pin;        ///< inputs, then outputs, in pins
    NetId clk;
    NetId ctrl;
    double delay;
  };

  /// The immutable part of a simulator, shared by all its copies.
  struct Tables {
    std::vector<Cell> cells;
    std::vector<NetId> pins;  ///< per cell: data-input nets, then outputs
    std::vector<std::uint32_t> fanout_begin;  ///< CSR offsets, nets + 1
    std::vector<InstId> fanout;               ///< net -> instances reading it
  };

  void schedule(double time, NetId net, bool value, InstId driver);
  void fire(double time, const Pending& ev);
  void evaluate_instance(InstId inst, double time);
  /// The cell's data inputs from the current net values, bit k for input k,
  /// inversions applied.
  std::uint32_t gather_inputs(const Cell& cell) const;

  std::shared_ptr<const Tables> tables_;
  std::vector<std::uint8_t> values_;
  std::vector<std::uint8_t> prev_clk_;  ///< per instance, for edge detection
  std::vector<std::uint8_t> state_;     ///< per instance, sequential state
  std::vector<Pending> pending_;  ///< slot pool, reused through free_
  std::uint32_t free_ = kEnd;     ///< first free slot
  std::vector<Bucket> buckets_;   ///< pending times, latest first
  std::vector<SimEvent> events_;
  std::vector<std::size_t> toggles_;
  double now_ = 0.0;
  std::uint64_t events_fired_ = 0;
  std::uint64_t evaluations_ = 0;
  std::uint64_t flushed_events_ = 0;
  std::uint64_t flushed_evaluations_ = 0;
};

/// Pure-function evaluation of a cell's outputs from input values.
/// `state` is the current sequential state (q) for latches/flops.
std::vector<bool> eval_cell(mcml::CellKind kind,
                            const std::vector<bool>& inputs, bool clk,
                            bool ctrl, bool state);

}  // namespace pgmcml::netlist
