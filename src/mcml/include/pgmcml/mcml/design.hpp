// Design-point description for MCML / PG-MCML cells.
//
// An McmlDesign bundles everything a cell generator needs: the technology,
// the electrical targets (tail current Iss and output swing Vsw), the device
// sizing rules, and the power-gating topology.  The defaults correspond to
// the paper's chosen operating point: Iss = 50 uA (the area-delay optimum of
// Fig. 3b), Vsw = 0.4 V, high-Vt NMOS network/tail/sleep devices and low-Vt
// PMOS loads (Section 5).
#pragma once

#include <string>

#include "pgmcml/spice/technology.hpp"
#include "pgmcml/util/rng.hpp"

namespace pgmcml::mcml {

/// Power-gating topology, after Fig. 2 of the paper.
enum class GatingTopology {
  kNone,        ///< conventional MCML, no sleep device
  kVnPullDown,  ///< (a) transistor pulls the bias node Vn to ground
  kVnSwitch,    ///< (b) series pass device on Vn plus pull-down (2 devices)
  kBodyBias,    ///< (c) ON signal on the tail gate, bulk tied to Vn
  kSeriesSleep, ///< (d) sleep transistor in series on top of the tail (chosen)
};

std::string to_string(GatingTopology t);

struct McmlDesign {
  spice::Technology tech{};

  // Electrical targets.
  double iss = 50e-6;  ///< tail current [A]
  double vsw = 0.4;    ///< differential output swing [V]

  // Bias voltages; normally filled in by solve_bias().
  double vn = 0.55;  ///< tail gate bias [V]
  double vp = 0.70;  ///< PMOS load gate bias [V]

  // Device sizing (drive strength X1).  The sleep transistor shares the tail
  // transistor's channel width so the two share one diffusion region
  // (Section 5 of the paper).
  double w_pair = 1.0e-6;   ///< differential-pair device width [m]
  double w_tail = 2.0e-6;   ///< tail current-source width [m]
  double w_load = 0.4e-6;   ///< PMOS load width [m]
  double l_tail = 0.2e-6;   ///< tail length (longer for current accuracy) [m]

  /// Drive-strength multiplier (X1 = 1, X4 = 4): scales Iss and all widths.
  double drive = 1.0;

  GatingTopology gating = GatingTopology::kSeriesSleep;

  /// Vt assignment per the paper: high-Vt for the NMOS network, tail and
  /// sleep device (leakage), low-Vt for the PMOS loads (area/speed).
  spice::VtFlavor network_vt = spice::VtFlavor::kHighVt;
  spice::VtFlavor load_vt = spice::VtFlavor::kLowVt;

  /// Emit device parasitic capacitances as explicit elements.
  bool include_parasitics = true;

  /// When set, every generated device receives a fresh Pelgrom-mismatch
  /// draw from this stream (Monte-Carlo characterization).  Not owned.
  util::Rng* mismatch_rng = nullptr;

  double w_sleep() const { return w_tail; }
  bool power_gated() const { return gating != GatingTopology::kNone; }

  // Effective (drive-scaled) values used by the builder.
  double eff_iss() const { return iss * drive; }
  double eff_w_pair() const { return w_pair * drive; }
  double eff_w_tail() const { return w_tail * drive; }
  double eff_w_load() const { return w_load * drive; }

  /// MCML logic levels: a logic high is Vdd, a logic low is Vdd - Vsw.
  double v_high() const { return tech.vdd(); }
  double v_low() const { return tech.vdd() - vsw; }
};

}  // namespace pgmcml::mcml
