// Circuit netlist and device stamping for modified nodal analysis (MNA).
//
// The unknown vector of the MNA system is
//   x = [ V(1) ... V(N-1) | I(branch of each voltage source) ]
// with node 0 fixed at ground.  Devices contribute to the Jacobian A and
// right-hand side b through `Device::stamp`; reactive devices linearize
// around the previous accepted timestep via companion models.  MOSFETs, the
// one nonlinear device, are stamped by the engine from the stamp plan's
// MosfetBank, linearized around the current Newton iterate.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "pgmcml/spice/mosfet.hpp"
#include "pgmcml/spice/source.hpp"
#include "pgmcml/util/matrix.hpp"
#include "pgmcml/util/sparse.hpp"

namespace pgmcml::spice {

using NodeId = std::int32_t;
using DeviceId = std::int32_t;

inline constexpr NodeId kGround = 0;

enum class Integration { kNone, kBackwardEuler, kTrapezoidal };

/// View of the current solution candidate during stamping / probing.
class Solution {
 public:
  Solution(const std::vector<double>& x, std::size_t num_nodes)
      : x_(x), num_nodes_(num_nodes) {}

  /// Node voltage (ground reads 0).
  double v(NodeId n) const { return n == kGround ? 0.0 : x_[n - 1]; }
  /// Branch current unknown at `index` (offset into the branch block).
  double branch(std::size_t index) const { return x_[num_nodes_ - 1 + index]; }

 private:
  const std::vector<double>& x_;
  std::size_t num_nodes_;
};

/// Records a device's Jacobian stamp coordinates during finalize().  Each
/// device declares, via Device::stamp_pattern, the exact sequence of matrix
/// entries its stamp touches — one builder call per add in the same order.
/// Ground-absorbed entries are recorded too (they map to a trash slot), so
/// the per-iteration slot cursor stays in lockstep with the add calls.
class StampPatternBuilder {
 public:
  explicit StampPatternBuilder(std::size_t num_nodes)
      : num_nodes_(num_nodes) {}

  /// A[r,c] entry for a node pair (ground absorbed).
  void entry(NodeId r, NodeId c) {
    if (r == kGround || c == kGround) {
      coords_.emplace_back(-1, -1);
    } else {
      coords_.emplace_back(r - 1, c - 1);
    }
  }
  /// The four entries of a two-node conductance, in StampContext order.
  void conductance(NodeId a, NodeId b) {
    entry(a, a);
    entry(b, b);
    entry(a, b);
    entry(b, a);
  }
  /// Voltage-source incidence pair: A[n,branch] and A[branch,n].
  void incidence(NodeId n, std::size_t branch) {
    const auto br = static_cast<std::int32_t>(num_nodes_ - 1 + branch);
    if (n == kGround) {
      coords_.emplace_back(-1, -1);
      coords_.emplace_back(-1, -1);
    } else {
      coords_.emplace_back(n - 1, br);
      coords_.emplace_back(br, n - 1);
    }
  }

  const std::vector<std::pair<std::int32_t, std::int32_t>>& coords() const {
    return coords_;
  }

 private:
  std::size_t num_nodes_;
  /// (row, col) in matrix-index space; (-1, -1) = absorbed into ground.
  std::vector<std::pair<std::int32_t, std::int32_t>> coords_;
};

/// Stamping context handed to each device once per Newton iteration.
///
/// Jacobian contributions no longer address a dense matrix: every add call
/// consumes the next precomputed slot (an index into the sparse value
/// array), assigned by Circuit::finalize() from the device's declared
/// stamp_pattern.  The contract is strict: stamp() must make exactly the
/// add/conductance/incidence calls, in exactly the order, that
/// stamp_pattern() declared.  Ground-absorbed entries consume a slot too
/// (the trash slot past the end of the pattern), so conditional skipping is
/// neither needed nor allowed.  The RHS stays a dense vector.
struct StampContext {
  double* values;                 ///< sparse value array (pattern nnz + trash)
  const std::int32_t* slots;      ///< finalize-assigned slot sequence
  std::vector<double>& b;
  std::size_t cursor = 0;        ///< next slot to consume
  double t = 0.0;        ///< time of the step being solved
  double dt = 0.0;       ///< step size; 0 for DC analyses
  Integration method = Integration::kNone;
  double gmin = 1e-12;   ///< DC leak across capacitors
  double source_scale = 1.0;     ///< independent-source ramp (source stepping)
  bool first_iteration = false;  ///< first Newton iteration of this step

  // Index helpers: row/col of a node (ground is absorbed), of a branch.
  std::size_t num_nodes = 0;  ///< including ground
  std::size_t node_index(NodeId n) const { return static_cast<std::size_t>(n - 1); }
  std::size_t branch_index(std::size_t branch) const {
    return num_nodes - 1 + branch;
  }

  /// A[r,c] += g for node pair (ground lands in the trash slot).
  void add(NodeId r, NodeId c, double g) {
    (void)r;
    (void)c;
    values[slots[cursor++]] += g;
  }
  /// Voltage-source incidence pair: A[n,branch] += v and A[branch,n] += v.
  void incidence(NodeId n, std::size_t branch, double v) {
    (void)n;
    (void)branch;
    values[slots[cursor++]] += v;
    values[slots[cursor++]] += v;
  }
  /// b[r] += i.
  void rhs(NodeId r, double i) {
    if (r == kGround) return;
    b[node_index(r)] += i;
  }
  /// b[branch row] += v.
  void rhs_branch(std::size_t branch, double v) { b[branch_index(branch)] += v; }
  /// Conductance stamp between two nodes.
  void conductance(NodeId a, NodeId bnode, double g) {
    add(a, a, g);
    add(bnode, bnode, g);
    add(a, bnode, -g);
    add(bnode, a, -g);
  }
  /// Current source stamp: `i` flows from node `from` into node `to`.
  void current(NodeId from, NodeId to, double i) {
    rhs(from, -i);
    rhs(to, i);
  }
};

/// Base class for all circuit elements.
class Device {
 public:
  explicit Device(std::string name) : name_(std::move(name)) {}
  virtual ~Device() = default;

  const std::string& name() const { return name_; }

  /// Number of extra branch-current unknowns this device introduces.
  virtual int extra_unknowns() const { return 0; }
  /// Called once after circuit finalization with this device's first branch
  /// unknown offset (only if extra_unknowns() > 0).
  virtual void set_branch_offset(std::size_t /*offset*/) {}

  /// Adds this device's contribution to the MNA system.  MOSFETs keep this
  /// no-op: the engine stamps them from the stamp plan's MosfetBank.
  virtual void stamp(StampContext& /*ctx*/) {}

  /// Declares the Jacobian entries the device's stamp touches — the same
  /// builder calls, in the same order, as the add/conductance/incidence
  /// calls it makes.  Called once by Circuit::finalize() to assign fixed
  /// slots; must be value-independent (pure topology).
  virtual void stamp_pattern(StampPatternBuilder& pat) const = 0;

  /// Accepts the step: update internal integration/limiting state.
  virtual void commit(const Solution& x, double t, double dt);

  /// Resets integration state (before a new analysis).
  virtual void reset_state(const Solution& x);

  /// Current flowing through the device at the committed solution
  /// (device-specific reference direction), for probing.  `t` is the
  /// simulation time of the solution; DC analyses probe at t = 0.
  virtual double probe_current(const Solution& x, double t = 0.0) const {
    (void)x;
    (void)t;
    return 0.0;
  }

  /// Terminal nodes in device order (R/C/V/I: two; MOSFET: d, g, s, b).
  virtual std::vector<NodeId> terminals() const = 0;

 private:
  std::string name_;
};

// --- concrete devices ------------------------------------------------------

class Resistor final : public Device {
 public:
  Resistor(std::string name, NodeId a, NodeId b, double ohms);
  void stamp(StampContext& ctx) override;
  void stamp_pattern(StampPatternBuilder& pat) const override;
  double probe_current(const Solution& x, double t) const override;
  std::vector<NodeId> terminals() const override { return {a_, b_}; }
  double resistance() const { return r_; }

 private:
  NodeId a_, b_;
  double r_;
};

class Capacitor final : public Device {
 public:
  Capacitor(std::string name, NodeId a, NodeId b, double farads,
            double initial_voltage = 0.0);
  void stamp(StampContext& ctx) override;
  void stamp_pattern(StampPatternBuilder& pat) const override;
  void commit(const Solution& x, double t, double dt) override;
  void reset_state(const Solution& x) override;
  double probe_current(const Solution& x, double t) const override;
  std::vector<NodeId> terminals() const override { return {a_, b_}; }
  double capacitance() const { return c_; }

 private:
  NodeId a_, b_;
  double c_;
  double v_prev_ = 0.0;  ///< voltage at last accepted step
  double i_prev_ = 0.0;  ///< current at last accepted step
  double geq_ = 0.0;     ///< companion conductance of the pending step
  double ieq_ = 0.0;     ///< companion current of the pending step
};

class VoltageSource final : public Device {
 public:
  VoltageSource(std::string name, NodeId pos, NodeId neg, SourceSpec spec);
  int extra_unknowns() const override { return 1; }
  void set_branch_offset(std::size_t offset) override { branch_ = offset; }
  void stamp(StampContext& ctx) override;
  void stamp_pattern(StampPatternBuilder& pat) const override;
  /// Current flowing out of the + terminal through the source (so a supply
  /// delivering current to the circuit probes negative by MNA convention;
  /// see Circuit::supply_current for the conventional sign).
  double probe_current(const Solution& x, double t) const override;
  std::vector<NodeId> terminals() const override { return {pos_, neg_}; }
  const SourceSpec& spec() const { return spec_; }
  /// Replaces the source with a DC value (used by dc_sweep).
  void set_value(double v) { spec_ = SourceSpec::dc(v); }
  std::size_t branch() const { return branch_; }

 private:
  NodeId pos_, neg_;
  SourceSpec spec_;
  std::size_t branch_ = 0;
};

class CurrentSource final : public Device {
 public:
  /// Current flows from `pos` through the source to `neg` (SPICE convention:
  /// positive value pulls current out of `pos` node).
  CurrentSource(std::string name, NodeId pos, NodeId neg, SourceSpec spec);
  void stamp(StampContext& ctx) override;
  void stamp_pattern(StampPatternBuilder& pat) const override;
  double probe_current(const Solution& x, double t) const override;
  std::vector<NodeId> terminals() const override { return {pos_, neg_}; }
  const SourceSpec& spec() const { return spec_; }

 private:
  NodeId pos_, neg_;
  SourceSpec spec_;
};

class Mosfet final : public Device {
 public:
  Mosfet(std::string name, NodeId d, NodeId g, NodeId s, NodeId b,
         MosParams params);
  /// The ten entries the MosfetBank scatter writes, in its order.
  void stamp_pattern(StampPatternBuilder& pat) const override;
  /// Drain current (positive into the drain for NMOS conduction d->s).
  double probe_current(const Solution& x, double t) const override;
  std::vector<NodeId> terminals() const override { return {d_, g_, s_, b_}; }
  const MosParams& params() const { return params_; }

 private:
  NodeId d_, g_, s_, b_;
  MosParams params_;
};

// --- stamp plan --------------------------------------------------------------

/// SoA gather of every MOSFET in a circuit, built by Circuit::finalize().
/// This is the only MOSFET stamp: the engine evaluates all MOSFETs in one
/// flat pass over these contiguous arrays (gather voltages -> batch
/// mos_eval -> scatter by slot).  Structure only — the per-analysis
/// limiting state lives in the NewtonWorkspace.
struct MosfetBank {
  std::vector<MosParams> params;           ///< device parameters, bank order
  std::vector<std::int32_t> vd, vg, vs, vb;  ///< x-indices (-1 = ground)
  std::vector<std::int32_t> rd, rs;        ///< RHS rows for d/s (-1 = ground)
  /// 10 slots per device, in Mosfet::stamp_pattern order: (d,g) (d,d)
  /// (d,b) (d,s) (s,g) (s,d) (s,b) (s,s) then the two gmin entries (d,d)
  /// (s,s).
  std::vector<std::int32_t> slot;

  std::size_t size() const { return params.size(); }
  bool empty() const { return params.empty(); }
};

/// Fixed slot assignment for one topology, computed by Circuit::finalize().
/// Every device's stamp entries resolve to indices into a shared sparse
/// value array (CSC order), so per-iteration assembly is a flat O(nnz)
/// zero + value overwrite instead of a dense O(n^2) fill plus map lookups.
/// Ground-absorbed entries share one trash slot past the end of the array.
struct StampPlan {
  util::SparsePattern pattern;  ///< CSC pattern of the n x n Jacobian
  std::uint64_t digest = 0;     ///< pattern.digest(), cached
  /// Concatenated per-device slot runs; device i's run is
  /// [device_slots[i], device_slots[i+1]).  MOSFET runs exist here too (the
  /// bank references the same slots), but the engine skips banked devices.
  std::vector<std::int32_t> slots;
  std::vector<std::uint32_t> device_slots;  ///< size num_devices + 1
  std::vector<char> banked;     ///< device i handled by the MOSFET bank
  MosfetBank bank;

  std::size_t trash_slot() const { return pattern.nnz(); }
  /// Sparse value array length: one per pattern entry plus the trash slot.
  std::size_t values_size() const { return pattern.nnz() + 1; }
};

// --- the netlist ------------------------------------------------------------

class Circuit {
 public:
  Circuit();

  /// Returns the node with this name, creating it if needed.
  NodeId node(const std::string& name);
  /// Creates a fresh unnamed internal node.
  NodeId internal_node(const std::string& hint = "n");
  NodeId gnd() const { return kGround; }
  std::size_t num_nodes() const { return node_names_.size(); }
  const std::string& node_name(NodeId n) const { return node_names_.at(n); }
  /// Looks up an existing node by name; returns -1 if absent.
  NodeId find_node(const std::string& name) const;

  DeviceId add_resistor(const std::string& name, NodeId a, NodeId b,
                        double ohms);
  DeviceId add_capacitor(const std::string& name, NodeId a, NodeId b,
                         double farads, double initial_voltage = 0.0);
  DeviceId add_vsource(const std::string& name, NodeId pos, NodeId neg,
                       SourceSpec spec);
  DeviceId add_isource(const std::string& name, NodeId pos, NodeId neg,
                       SourceSpec spec);
  DeviceId add_mosfet(const std::string& name, NodeId d, NodeId g, NodeId s,
                      NodeId b, const MosParams& params);

  std::size_t num_devices() const { return devices_.size(); }
  Device& device(DeviceId id) { return *devices_.at(id); }
  const Device& device(DeviceId id) const { return *devices_.at(id); }
  /// Finds a device by name; returns -1 if absent.
  DeviceId find_device(const std::string& name) const;

  /// Number of MNA unknowns (nodes-1 + branch currents).
  std::size_t num_unknowns() const;
  /// Assigns branch offsets and builds the stamp plan (sparsity pattern,
  /// per-device slots, MOSFET bank); called automatically by the engine.
  void finalize();
  bool finalized() const { return finalized_; }

  /// The finalize()-built slot assignment; valid while finalized().
  const StampPlan& stamp_plan() const { return plan_; }

  /// All source breakpoints in (0, t_stop) merged and sorted.
  std::vector<double> source_breakpoints(double t_stop) const;

  /// Device count of a given dynamic type (diagnostics).
  std::size_t count_mosfets() const;

  std::vector<std::unique_ptr<Device>>& devices() { return devices_; }
  const std::vector<std::unique_ptr<Device>>& devices() const {
    return devices_;
  }

 private:
  std::vector<std::string> node_names_;
  std::unordered_map<std::string, NodeId> node_index_;
  std::vector<std::unique_ptr<Device>> devices_;
  std::unordered_map<std::string, DeviceId> device_index_;
  StampPlan plan_;
  bool finalized_ = false;
  int anon_counter_ = 0;
};

}  // namespace pgmcml::spice
