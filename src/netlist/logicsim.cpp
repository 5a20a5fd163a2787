#include "pgmcml/netlist/logicsim.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "pgmcml/obs/obs.hpp"

namespace pgmcml::netlist {

using mcml::CellKind;

namespace {

/// The cell's truth function on packed bits: data input k is bit k of `in`,
/// output k is bit k of the result.  The one definition of every cell's
/// logic; eval_cell() and the simulator both call it.
std::uint32_t eval_bits(CellKind kind, std::uint32_t in, bool clk,
                        bool state) {
  const auto bit = [in](unsigned k) { return (in >> k) & 1u; };
  switch (kind) {
    case CellKind::kBuf:
    case CellKind::kDiff2Single:
      return bit(0);
    case CellKind::kAnd2:
      return (in & 0x3u) == 0x3u;
    case CellKind::kAnd3:
      return (in & 0x7u) == 0x7u;
    case CellKind::kAnd4:
      return (in & 0xFu) == 0xFu;
    case CellKind::kMux2:
      return bit(0) ? bit(2) : bit(1);  // {sel, in0, in1}
    case CellKind::kMux4:
      return bit(2 + (in & 0x3u));  // {sel0, sel1, in0..in3}
    case CellKind::kMaj3:
      return bit(0) + bit(1) + bit(2) >= 2u;
    case CellKind::kXor2:
      return bit(0) ^ bit(1);
    case CellKind::kXor3:
      return bit(0) ^ bit(1) ^ bit(2);
    case CellKind::kXor4:
      return bit(0) ^ bit(1) ^ bit(2) ^ bit(3);
    case CellKind::kDLatch:
      return clk ? bit(0) : static_cast<std::uint32_t>(state);
    case CellKind::kDff:
    case CellKind::kDffR:
    case CellKind::kEDff:
      return state;  // edge behaviour handled by the simulator
    case CellKind::kFullAdder: {
      const std::uint32_t sum = bit(0) ^ bit(1) ^ bit(2);
      const std::uint32_t cout = bit(0) + bit(1) + bit(2) >= 2u;
      return sum | (cout << 1);
    }
  }
  throw std::logic_error("eval_cell: unknown kind");
}

}  // namespace

std::vector<bool> eval_cell(CellKind kind, const std::vector<bool>& in,
                            bool clk, bool ctrl, bool state) {
  (void)ctrl;
  std::uint32_t packed = 0;
  for (std::size_t k = 0; k < std::min<std::size_t>(in.size(), 32); ++k) {
    packed |= static_cast<std::uint32_t>(in[k]) << k;
  }
  const std::uint32_t out = eval_bits(kind, packed, clk, state);
  std::vector<bool> bits(kind == CellKind::kFullAdder ? 2 : 1);
  for (std::size_t k = 0; k < bits.size(); ++k) bits[k] = (out >> k) & 1u;
  return bits;
}

LogicSim::LogicSim(const Design& design, const cells::CellLibrary* library)
    : values_(design.num_nets(), 0),
      prev_clk_(design.num_instances(), 0),
      state_(design.num_instances(), 0),
      toggles_(design.num_instances(), 0) {
  auto tables = std::make_shared<Tables>();
  const std::size_t n = design.num_instances();
  tables->cells.reserve(n);
  // Fanout in CSR form, each net's readers in instance order and, within an
  // instance, pin order (data inputs, clk, ctrl) -- a reader listed twice is
  // evaluated twice, as the event order requires.
  std::vector<std::uint32_t>& begin = tables->fanout_begin;
  begin.assign(design.num_nets() + 1, 0);
  const auto for_each_read = [&design](std::size_t i, const auto& visit) {
    const Instance& inst = design.instance(static_cast<InstId>(i));
    for (NetId in : inst.inputs) visit(in);
    if (inst.clk != kNoNet) visit(inst.clk);
    if (inst.ctrl != kNoNet) visit(inst.ctrl);
  };
  const auto in_design = [&design](NetId net) {
    return net >= 0 && static_cast<std::size_t>(net) < design.num_nets();
  };
  for (std::size_t i = 0; i < n; ++i) {
    const Instance& inst = design.instance(static_cast<InstId>(i));
    Cell cell{};
    cell.kind = inst.kind;
    cell.sequential = mcml::cell_info(inst.kind).sequential;
    cell.inverted_output = inst.inverted_output;
    cell.num_inputs = static_cast<std::uint8_t>(inst.inputs.size());
    cell.num_outputs = static_cast<std::uint8_t>(inst.outputs.size());
    for (std::size_t k = 0;
         k < std::min(inst.inputs.size(), inst.input_inverted.size()); ++k) {
      if (inst.input_inverted[k]) cell.inverted_inputs |= 1u << k;
    }
    cell.first_pin = static_cast<std::uint32_t>(tables->pins.size());
    tables->pins.insert(tables->pins.end(), inst.inputs.begin(),
                        inst.inputs.end());
    tables->pins.insert(tables->pins.end(), inst.outputs.begin(),
                        inst.outputs.end());
    cell.clk = inst.clk;
    cell.ctrl = inst.ctrl;
    cell.delay = library == nullptr ? 10e-12 : library->cell(inst.kind).delay;
    tables->cells.push_back(cell);
    if (!std::all_of(tables->pins.begin() + cell.first_pin,
                     tables->pins.end(), in_design) ||
        (cell.clk != kNoNet && !in_design(cell.clk)) ||
        (cell.ctrl != kNoNet && !in_design(cell.ctrl))) {
      throw std::invalid_argument("LogicSim: " + inst.name +
                                  " connects a net outside the design");
    }
    for_each_read(i, [&begin](NetId net) { ++begin[net + 1]; });
  }
  for (std::size_t k = 1; k < begin.size(); ++k) begin[k] += begin[k - 1];
  tables->fanout.resize(begin.back());
  std::vector<std::uint32_t> cursor(begin.begin(), begin.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    for_each_read(i, [&](NetId net) {
      tables->fanout[cursor[net]++] = static_cast<InstId>(i);
    });
  }
  tables_ = std::move(tables);

  // Establish the t = 0 steady state (all primary inputs low, all flops
  // cleared) by levelized evaluation; without this, constant paths through
  // inverting pins would read wrong until their first event.
  for (InstId i : design.topological_order()) {
    const Cell& cell = tables_->cells[i];
    const std::uint32_t out =
        eval_bits(cell.kind, gather_inputs(cell), false, state_[i] != 0);
    const NetId* outputs =
        tables_->pins.data() + cell.first_pin + cell.num_inputs;
    for (std::size_t k = 0; k < cell.num_outputs; ++k) {
      values_[outputs[k]] = ((out >> k) & 1u) != cell.inverted_output;
    }
  }
}

std::uint32_t LogicSim::gather_inputs(const Cell& cell) const {
  const NetId* inputs = tables_->pins.data() + cell.first_pin;
  std::uint32_t packed = 0;
  for (std::uint32_t k = 0; k < cell.num_inputs; ++k) {
    packed |= std::uint32_t{values_[inputs[k]]} << k;
  }
  return packed ^ cell.inverted_inputs;
}

void LogicSim::set_input(NetId net, bool value, double time) {
  if (net < 0 || static_cast<std::size_t>(net) >= values_.size()) {
    throw std::out_of_range("LogicSim::set_input: net " +
                            std::to_string(net) + " is not in the design");
  }
  if (!(time >= now_)) {  // NaN included: it would never fire
    throw std::invalid_argument("LogicSim::set_input: time in the past");
  }
  schedule(time, net, value, -1);
}

void LogicSim::schedule(double time, NetId net, bool value, InstId driver) {
  std::uint32_t slot = free_;
  if (slot == kEnd) {
    slot = static_cast<std::uint32_t>(pending_.size());
    pending_.emplace_back();
  } else {
    free_ = pending_[slot].next;
  }
  pending_[slot] = Pending{net, driver, kEnd, value};
  // Latest first, so the common case -- a time shortly after now -- lands
  // near the back and the insertion moves few buckets.
  const auto it = std::lower_bound(
      buckets_.begin(), buckets_.end(), time,
      [](const Bucket& b, double t) { return b.time > t; });
  if (it != buckets_.end() && it->time == time) {
    pending_[it->tail].next = slot;
    it->tail = slot;
  } else {
    buckets_.insert(it, Bucket{time, slot, slot});
  }
}

void LogicSim::run_until(double time) {
  while (!buckets_.empty() && buckets_.back().time <= time) {
    Bucket& first = buckets_.back();
    const double t = first.time;
    const std::uint32_t slot = first.head;
    const Pending ev = pending_[slot];
    if (slot == first.tail) {
      buckets_.pop_back();
    } else {
      first.head = ev.next;
    }
    pending_[slot].next = free_;
    free_ = slot;
    now_ = t;
    fire(t, ev);
  }
  now_ = std::max(now_, time);
}

void LogicSim::fire(double time, const Pending& ev) {
  if (values_[ev.net] == ev.value) return;  // swallowed glitch / no change
  values_[ev.net] = ev.value;
  ++events_fired_;
  events_.push_back(SimEvent{time, ev.net, ev.value, ev.driver});
  if (ev.driver >= 0) ++toggles_[ev.driver];
  const Tables& tables = *tables_;
  for (std::uint32_t r = tables.fanout_begin[ev.net];
       r < tables.fanout_begin[ev.net + 1]; ++r) {
    evaluate_instance(tables.fanout[r], time);
  }
}

void LogicSim::evaluate_instance(InstId i, double time) {
  ++evaluations_;
  const Cell& cell = tables_->cells[i];
  const std::uint32_t in = gather_inputs(cell);
  const bool clk = cell.clk != kNoNet && values_[cell.clk] != 0;

  // Sequential behaviour: update state on clock edges / transparency.
  if (cell.sequential) {
    const std::uint8_t d = in & 1u;
    if (cell.kind == CellKind::kDLatch) {
      if (clk) state_[i] = d;
    } else if (clk && prev_clk_[i] == 0) {  // rising edge
      const bool ctrl = cell.ctrl != kNoNet && values_[cell.ctrl] != 0;
      switch (cell.kind) {
        case CellKind::kDff:
          state_[i] = d;
          break;
        case CellKind::kDffR:
          state_[i] = d != 0 && !ctrl;  // synchronous reset
          break;
        case CellKind::kEDff:
          if (ctrl) state_[i] = d;  // enable
          break;
        default:
          break;
      }
    }
    prev_clk_[i] = clk;
  }

  const std::uint32_t out = eval_bits(cell.kind, in, clk, state_[i] != 0);
  const double t_out = time + cell.delay;
  const NetId* outputs =
      tables_->pins.data() + cell.first_pin + cell.num_inputs;
  for (std::size_t k = 0; k < cell.num_outputs; ++k) {
    // Scheduling unconditionally is correct because fire() swallows no-ops.
    schedule(t_out, outputs[k], ((out >> k) & 1u) != cell.inverted_output,
             i);
  }
}

void LogicSim::apply_and_settle(
    const std::vector<std::pair<NetId, bool>>& assign) {
  for (const auto& [net, value] : assign) {
    set_input(net, value, now_);
  }
  // Settle: keep draining until nothing is pending (bounded by gate depth).
  while (!buckets_.empty()) run_until(buckets_.back().time);
}

std::size_t LogicSim::total_toggles() const {
  std::size_t sum = 0;
  for (std::size_t t : toggles_) sum += t;
  return sum;
}

void LogicSim::flush_work_counters() {
  static obs::Counter events =
      obs::Registry::global().counter("netlist.logicsim.events");
  static obs::Counter evaluations =
      obs::Registry::global().counter("netlist.logicsim.evaluations");
  events.add(events_fired_ - flushed_events_);
  evaluations.add(evaluations_ - flushed_evaluations_);
  flushed_events_ = events_fired_;
  flushed_evaluations_ = evaluations_;
}

}  // namespace pgmcml::netlist
