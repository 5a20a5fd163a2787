#include "reference_logicsim.hpp"

#include <stdexcept>

namespace pgmcml::netlist::reference {

using mcml::CellKind;

std::vector<bool> eval_cell(CellKind kind, const std::vector<bool>& in,
                            bool clk, bool ctrl, bool state) {
  switch (kind) {
    case CellKind::kBuf:
    case CellKind::kDiff2Single:
      return {in[0]};
    case CellKind::kAnd2:
      return {in[0] && in[1]};
    case CellKind::kAnd3:
      return {in[0] && in[1] && in[2]};
    case CellKind::kAnd4:
      return {in[0] && in[1] && in[2] && in[3]};
    case CellKind::kMux2:
      return {in[0] ? in[2] : in[1]};  // {sel, in0, in1}
    case CellKind::kMux4: {
      const int idx = (in[1] ? 2 : 0) + (in[0] ? 1 : 0);
      return {in[2 + idx]};  // {sel0, sel1, in0..in3}
    }
    case CellKind::kMaj3:
      return {(in[0] && in[1]) || (in[1] && in[2]) || (in[0] && in[2])};
    case CellKind::kXor2:
      return {in[0] != in[1]};
    case CellKind::kXor3:
      return {(in[0] != in[1]) != in[2]};
    case CellKind::kXor4:
      return {((in[0] != in[1]) != in[2]) != in[3]};
    case CellKind::kDLatch:
      return {clk ? in[0] : state};
    case CellKind::kDff:
    case CellKind::kDffR:
    case CellKind::kEDff:
      return {state};  // edge behaviour handled by the simulator
    case CellKind::kFullAdder: {
      const bool sum = (in[0] != in[1]) != in[2];
      const bool cout =
          (in[0] && in[1]) || (in[1] && in[2]) || (in[0] && in[2]);
      return {sum, cout};
    }
  }
  (void)ctrl;
  throw std::logic_error("eval_cell: unknown kind");
}

LogicSim::LogicSim(const Design& design, const cells::CellLibrary* library)
    : design_(design),
      library_(library),
      values_(design.num_nets(), false),
      prev_clk_(design.num_instances(), false),
      state_(design.num_instances(), false),
      fanout_(design.num_nets()),
      toggles_(design.num_instances(), 0) {
  for (std::size_t i = 0; i < design.num_instances(); ++i) {
    const Instance& inst = design.instance(static_cast<InstId>(i));
    for (NetId in : inst.inputs) fanout_[in].push_back(static_cast<InstId>(i));
    if (inst.clk != kNoNet) fanout_[inst.clk].push_back(static_cast<InstId>(i));
    if (inst.ctrl != kNoNet) {
      fanout_[inst.ctrl].push_back(static_cast<InstId>(i));
    }
  }

  // Establish the t = 0 steady state (all primary inputs low, all flops
  // cleared) by levelized evaluation; without this, constant paths through
  // inverting pins would read wrong until their first event.
  for (InstId i : design.topological_order()) {
    const Instance& inst = design.instance(i);
    std::vector<bool> in;
    for (std::size_t k = 0; k < inst.inputs.size(); ++k) {
      bool v = values_[inst.inputs[k]];
      if (k < inst.input_inverted.size() && inst.input_inverted[k]) v = !v;
      in.push_back(v);
    }
    const std::vector<bool> out =
        eval_cell(inst.kind, in, false, false, state_[i]);
    for (std::size_t k = 0; k < out.size(); ++k) {
      values_[inst.outputs[k]] = out[k] != inst.inverted_output;
    }
  }
}

double LogicSim::delay_of(const Instance& inst) const {
  if (library_ == nullptr) return 10e-12;
  return library_->cell(inst.kind).delay;
}

void LogicSim::set_input(NetId net, bool value, double time) {
  if (time < now_) {
    throw std::invalid_argument("LogicSim::set_input: time in the past");
  }
  schedule(time, net, value, -1);
}

void LogicSim::schedule(double time, NetId net, bool value, InstId driver) {
  queue_.push(Pending{time, seq_counter_++, net, value, driver});
}

void LogicSim::run_until(double time) {
  while (!queue_.empty() && queue_.top().time <= time) {
    const Pending ev = queue_.top();
    queue_.pop();
    now_ = ev.time;
    fire(ev);
  }
  now_ = std::max(now_, time);
}

void LogicSim::fire(const Pending& ev) {
  if (values_[ev.net] == ev.value) return;  // swallowed glitch / no change
  values_[ev.net] = ev.value;
  events_.push_back(SimEvent{ev.time, ev.net, ev.value, ev.driver});
  if (ev.driver >= 0) ++toggles_[ev.driver];
  for (InstId reader : fanout_[ev.net]) {
    evaluate_instance(reader, ev.time);
  }
}

void LogicSim::evaluate_instance(InstId i, double time) {
  const Instance& inst = design_.instance(i);
  const mcml::CellInfo& info = mcml::cell_info(inst.kind);

  std::vector<bool> in;
  in.reserve(inst.inputs.size());
  for (std::size_t k = 0; k < inst.inputs.size(); ++k) {
    bool v = values_[inst.inputs[k]];
    if (k < inst.input_inverted.size() && inst.input_inverted[k]) v = !v;
    in.push_back(v);
  }
  const bool clk = inst.clk != kNoNet && values_[inst.clk];
  const bool ctrl = inst.ctrl != kNoNet && values_[inst.ctrl];

  // Sequential behaviour: update state on clock edges / transparency.
  if (info.sequential) {
    if (inst.kind == CellKind::kDLatch) {
      if (clk) state_[i] = in[0];
    } else {
      const bool rising = clk && !prev_clk_[i];
      if (rising) {
        switch (inst.kind) {
          case CellKind::kDff:
            state_[i] = in[0];
            break;
          case CellKind::kDffR:
            state_[i] = in[0] && !ctrl;  // synchronous reset
            break;
          case CellKind::kEDff:
            if (ctrl) state_[i] = in[0];  // enable
            break;
          default:
            break;
        }
      }
    }
    prev_clk_[i] = clk;
  }

  const std::vector<bool> out =
      eval_cell(inst.kind, in, clk, ctrl, state_[i]);
  const double t_out = time + delay_of(inst);
  for (std::size_t k = 0; k < out.size(); ++k) {
    const bool v = out[k] != inst.inverted_output;
    // Only schedule when the target differs from the current value or a
    // change is already in flight; scheduling unconditionally is correct
    // because fire() swallows no-ops.
    schedule(t_out, inst.outputs[k], v, i);
  }
}

void LogicSim::apply_and_settle(
    const std::vector<std::pair<NetId, bool>>& assign) {
  for (const auto& [net, value] : assign) {
    set_input(net, value, now_);
  }
  // Settle: keep draining until the queue is empty (bounded by gate depth).
  while (!queue_.empty()) {
    const double t = queue_.top().time;
    run_until(t);
  }
}

std::size_t LogicSim::total_toggles() const {
  std::size_t sum = 0;
  for (std::size_t t : toggles_) sum += t;
  return sum;
}

}  // namespace pgmcml::netlist::reference
