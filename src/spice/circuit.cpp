#include "pgmcml/spice/circuit.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pgmcml::spice {

namespace {
/// Construction-time guard: a NaN slips past every `> 0`-style range check
/// (all comparisons with NaN are false), so finiteness is checked explicitly
/// before any range test.
void require_finite(double v, const char* device, const char* param) {
  if (!std::isfinite(v)) {
    throw std::invalid_argument(std::string(device) + ": " + param +
                                " must be finite");
  }
}
}  // namespace

// --- Device base ------------------------------------------------------------

void Device::commit(const Solution& x, double t, double dt) {
  (void)x;
  (void)t;
  (void)dt;
}

void Device::reset_state(const Solution& x) { (void)x; }

// --- Resistor ----------------------------------------------------------------

Resistor::Resistor(std::string name, NodeId a, NodeId b, double ohms)
    : Device(std::move(name)), a_(a), b_(b), r_(ohms) {
  require_finite(ohms, "Resistor", "resistance");
  if (!(ohms > 0.0)) {
    throw std::invalid_argument("Resistor: resistance must be positive");
  }
}

void Resistor::stamp(StampContext& ctx) { ctx.conductance(a_, b_, 1.0 / r_); }

void Resistor::stamp_pattern(StampPatternBuilder& pat) const {
  pat.conductance(a_, b_);
}

double Resistor::probe_current(const Solution& x, double /*t*/) const {
  return (x.v(a_) - x.v(b_)) / r_;
}

// --- Capacitor ----------------------------------------------------------------

Capacitor::Capacitor(std::string name, NodeId a, NodeId b, double farads,
                     double initial_voltage)
    : Device(std::move(name)),
      a_(a),
      b_(b),
      c_(farads),
      v_prev_(initial_voltage) {
  require_finite(farads, "Capacitor", "capacitance");
  require_finite(initial_voltage, "Capacitor", "initial voltage");
  if (!(farads >= 0.0)) {
    throw std::invalid_argument("Capacitor: capacitance must be >= 0");
  }
}

void Capacitor::stamp(StampContext& ctx) {
  if (ctx.dt <= 0.0 || ctx.method == Integration::kNone) {
    // DC: open circuit (a tiny conductance keeps floating nodes solvable).
    ctx.conductance(a_, b_, ctx.gmin);
    return;
  }
  if (ctx.first_iteration) {
    // Companion model is a function of the *previous* accepted step only, so
    // compute it once per timestep.
    if (ctx.method == Integration::kTrapezoidal) {
      geq_ = 2.0 * c_ / ctx.dt;
      ieq_ = -geq_ * v_prev_ - i_prev_;
    } else {  // backward Euler
      geq_ = c_ / ctx.dt;
      ieq_ = -geq_ * v_prev_;
    }
  }
  ctx.conductance(a_, b_, geq_);
  // i(t) = geq * v + ieq flows a->b; move the constant part to the RHS.
  ctx.current(a_, b_, ieq_);
}

void Capacitor::stamp_pattern(StampPatternBuilder& pat) const {
  // DC (gmin leak) and transient (companion conductance) touch the same
  // four entries, so one declaration covers both stamp() branches.
  pat.conductance(a_, b_);
}

void Capacitor::commit(const Solution& x, double t, double dt) {
  (void)t;
  if (dt <= 0.0) {
    reset_state(x);
    return;
  }
  const double v_now = x.v(a_) - x.v(b_);
  i_prev_ = geq_ * v_now + ieq_;
  v_prev_ = v_now;
}

void Capacitor::reset_state(const Solution& x) {
  v_prev_ = x.v(a_) - x.v(b_);
  i_prev_ = 0.0;
  geq_ = 0.0;
  ieq_ = 0.0;
}

double Capacitor::probe_current(const Solution& x, double /*t*/) const {
  (void)x;
  return i_prev_;
}

// --- VoltageSource -------------------------------------------------------------

VoltageSource::VoltageSource(std::string name, NodeId pos, NodeId neg,
                             SourceSpec spec)
    : Device(std::move(name)), pos_(pos), neg_(neg), spec_(std::move(spec)) {}

void VoltageSource::stamp(StampContext& ctx) {
  ctx.incidence(pos_, branch_, 1.0);
  ctx.incidence(neg_, branch_, -1.0);
  ctx.rhs_branch(branch_, ctx.source_scale * spec_.value(ctx.t));
}

void VoltageSource::stamp_pattern(StampPatternBuilder& pat) const {
  pat.incidence(pos_, branch_);
  pat.incidence(neg_, branch_);
}

double VoltageSource::probe_current(const Solution& x, double /*t*/) const {
  return x.branch(branch_);
}

// --- CurrentSource -------------------------------------------------------------

CurrentSource::CurrentSource(std::string name, NodeId pos, NodeId neg,
                             SourceSpec spec)
    : Device(std::move(name)), pos_(pos), neg_(neg), spec_(std::move(spec)) {}

void CurrentSource::stamp(StampContext& ctx) {
  // SPICE convention: positive value flows from pos, through the source,
  // into neg (i.e. it is extracted from node pos).
  ctx.current(pos_, neg_, ctx.source_scale * spec_.value(ctx.t));
}

void CurrentSource::stamp_pattern(StampPatternBuilder& /*pat*/) const {
  // RHS-only device: no Jacobian entries.
}

double CurrentSource::probe_current(const Solution& x, double t) const {
  // Time-varying sources must be probed at the solution's own time, not at
  // t = 0 (which silently froze PULSE/PWL sources at their initial value).
  (void)x;
  return spec_.value(t);
}

// --- Mosfet ----------------------------------------------------------------------

Mosfet::Mosfet(std::string name, NodeId d, NodeId g, NodeId s, NodeId b,
               MosParams params)
    : Device(std::move(name)), d_(d), g_(g), s_(s), b_(b), params_(params) {
  require_finite(params.w, "Mosfet", "w");
  require_finite(params.l, "Mosfet", "l");
  require_finite(params.vth0, "Mosfet", "vth0");
  require_finite(params.kp, "Mosfet", "kp");
  require_finite(params.lambda, "Mosfet", "lambda");
  require_finite(params.n_sub, "Mosfet", "n_sub");
  require_finite(params.gamma, "Mosfet", "gamma");
  require_finite(params.phi, "Mosfet", "phi");
  if (!(params.w > 0.0) || !(params.l > 0.0)) {
    throw std::invalid_argument("Mosfet: w and l must be positive");
  }
  if (!(params.kp > 0.0)) {
    throw std::invalid_argument("Mosfet: kp must be positive");
  }
}

void Mosfet::stamp_pattern(StampPatternBuilder& pat) const {
  // Must match the MosfetBank scatter order in the engine.
  pat.entry(d_, g_);
  pat.entry(d_, d_);
  pat.entry(d_, b_);
  pat.entry(d_, s_);
  pat.entry(s_, g_);
  pat.entry(s_, d_);
  pat.entry(s_, b_);
  pat.entry(s_, s_);
  pat.entry(d_, d_);  // gmin
  pat.entry(s_, s_);  // gmin
}

double Mosfet::probe_current(const Solution& x, double /*t*/) const {
  const double vgs = x.v(g_) - x.v(s_);
  const double vds = x.v(d_) - x.v(s_);
  const double vbs = x.v(b_) - x.v(s_);
  return mos_eval(params_, vgs, vds, vbs).id;
}

// --- Circuit ----------------------------------------------------------------------

Circuit::Circuit() {
  node_names_.push_back("0");
  node_index_.emplace("0", kGround);
}

NodeId Circuit::node(const std::string& name) {
  auto it = node_index_.find(name);
  if (it != node_index_.end()) return it->second;
  const NodeId id = static_cast<NodeId>(node_names_.size());
  node_names_.push_back(name);
  node_index_.emplace(name, id);
  finalized_ = false;
  return id;
}

NodeId Circuit::internal_node(const std::string& hint) {
  for (;;) {
    std::string name = hint + "#" + std::to_string(anon_counter_++);
    if (!node_index_.contains(name)) return node(name);
  }
}

NodeId Circuit::find_node(const std::string& name) const {
  auto it = node_index_.find(name);
  return it == node_index_.end() ? -1 : it->second;
}

namespace {
template <typename T, typename... Args>
DeviceId add_device(std::vector<std::unique_ptr<Device>>& devices,
                    std::unordered_map<std::string, DeviceId>& index,
                    bool& finalized, const std::string& name, Args&&... args) {
  if (index.contains(name)) {
    throw std::invalid_argument("duplicate device name: " + name);
  }
  const DeviceId id = static_cast<DeviceId>(devices.size());
  devices.push_back(std::make_unique<T>(name, std::forward<Args>(args)...));
  index.emplace(name, id);
  finalized = false;
  return id;
}
}  // namespace

DeviceId Circuit::add_resistor(const std::string& name, NodeId a, NodeId b,
                               double ohms) {
  return add_device<Resistor>(devices_, device_index_, finalized_, name, a, b,
                              ohms);
}

DeviceId Circuit::add_capacitor(const std::string& name, NodeId a, NodeId b,
                                double farads, double initial_voltage) {
  return add_device<Capacitor>(devices_, device_index_, finalized_, name, a, b,
                               farads, initial_voltage);
}

DeviceId Circuit::add_vsource(const std::string& name, NodeId pos, NodeId neg,
                              SourceSpec spec) {
  return add_device<VoltageSource>(devices_, device_index_, finalized_, name,
                                   pos, neg, std::move(spec));
}

DeviceId Circuit::add_isource(const std::string& name, NodeId pos, NodeId neg,
                              SourceSpec spec) {
  return add_device<CurrentSource>(devices_, device_index_, finalized_, name,
                                   pos, neg, std::move(spec));
}

DeviceId Circuit::add_mosfet(const std::string& name, NodeId d, NodeId g,
                             NodeId s, NodeId b, const MosParams& params) {
  return add_device<Mosfet>(devices_, device_index_, finalized_, name, d, g, s,
                            b, params);
}

DeviceId Circuit::find_device(const std::string& name) const {
  auto it = device_index_.find(name);
  return it == device_index_.end() ? -1 : it->second;
}

std::size_t Circuit::num_unknowns() const {
  std::size_t extra = 0;
  for (const auto& dev : devices_) {
    extra += static_cast<std::size_t>(dev->extra_unknowns());
  }
  return (num_nodes() - 1) + extra;
}

void Circuit::finalize() {
  std::size_t offset = 0;
  for (auto& dev : devices_) {
    if (dev->extra_unknowns() > 0) {
      dev->set_branch_offset(offset);
      offset += static_cast<std::size_t>(dev->extra_unknowns());
    }
  }

  // --- discovery: every device declares its stamp coordinates, recorded in
  // the exact order its stamp (or the MOSFET bank scatter) consumes slots.
  StampPatternBuilder pat(num_nodes());
  plan_ = StampPlan{};
  plan_.device_slots.reserve(devices_.size() + 1);
  plan_.device_slots.push_back(0);
  plan_.banked.assign(devices_.size(), 0);
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    devices_[i]->stamp_pattern(pat);
    plan_.device_slots.push_back(
        static_cast<std::uint32_t>(pat.coords().size()));
  }

  // --- CSC pattern: unique valid coordinates sorted by (col, row).
  const auto& coords = pat.coords();
  const std::size_t n = num_unknowns();
  std::vector<std::pair<std::int32_t, std::int32_t>> unique_cr;  // (col, row)
  unique_cr.reserve(coords.size());
  for (const auto& [r, c] : coords) {
    if (r >= 0) unique_cr.emplace_back(c, r);
  }
  std::sort(unique_cr.begin(), unique_cr.end());
  unique_cr.erase(std::unique(unique_cr.begin(), unique_cr.end()),
                  unique_cr.end());
  plan_.pattern.n = n;
  plan_.pattern.col_ptr.assign(n + 1, 0);
  plan_.pattern.rows.reserve(unique_cr.size());
  for (const auto& [c, r] : unique_cr) {
    plan_.pattern.rows.push_back(r);
    ++plan_.pattern.col_ptr[c + 1];
  }
  for (std::size_t c = 0; c < n; ++c) {
    plan_.pattern.col_ptr[c + 1] += plan_.pattern.col_ptr[c];
  }
  plan_.digest = plan_.pattern.digest();

  // --- slots: each recorded coordinate resolves to its CSC index; absorbed
  // entries share the trash slot one past the end.
  const auto trash = static_cast<std::int32_t>(plan_.trash_slot());
  plan_.slots.reserve(coords.size());
  for (const auto& [r, c] : coords) {
    if (r < 0) {
      plan_.slots.push_back(trash);
      continue;
    }
    const auto it = std::lower_bound(unique_cr.begin(), unique_cr.end(),
                                     std::make_pair(c, r));
    plan_.slots.push_back(
        static_cast<std::int32_t>(it - unique_cr.begin()));
  }

  // --- MOSFET bank: SoA gather of the dominant device class, bank order =
  // device order, each device's slot run copied from the plan.
  auto x_index = [](NodeId node) -> std::int32_t {
    return node == kGround ? -1 : node - 1;
  };
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    const auto* mos = dynamic_cast<const Mosfet*>(devices_[i].get());
    if (mos == nullptr) continue;
    plan_.banked[i] = 1;
    const std::vector<NodeId> t = mos->terminals();  // d, g, s, b
    plan_.bank.params.push_back(mos->params());
    plan_.bank.vd.push_back(x_index(t[0]));
    plan_.bank.vg.push_back(x_index(t[1]));
    plan_.bank.vs.push_back(x_index(t[2]));
    plan_.bank.vb.push_back(x_index(t[3]));
    plan_.bank.rd.push_back(x_index(t[0]));
    plan_.bank.rs.push_back(x_index(t[2]));
    for (std::uint32_t s = plan_.device_slots[i]; s < plan_.device_slots[i + 1];
         ++s) {
      plan_.bank.slot.push_back(plan_.slots[s]);
    }
  }

  finalized_ = true;
}

std::vector<double> Circuit::source_breakpoints(double t_stop) const {
  std::vector<double> out;
  for (const auto& dev : devices_) {
    const SourceSpec* spec = nullptr;
    if (const auto* vs = dynamic_cast<const VoltageSource*>(dev.get())) {
      spec = &vs->spec();
    }
    if (spec == nullptr) continue;
    auto bps = spec->breakpoints(t_stop);
    out.insert(out.end(), bps.begin(), bps.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end(),
                        [](double a, double b) { return std::fabs(a - b) < 1e-18; }),
            out.end());
  return out;
}

std::size_t Circuit::count_mosfets() const {
  std::size_t n = 0;
  for (const auto& dev : devices_) {
    if (dynamic_cast<const Mosfet*>(dev.get()) != nullptr) ++n;
  }
  return n;
}

}  // namespace pgmcml::spice
