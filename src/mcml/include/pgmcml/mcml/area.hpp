// Layout-area model for the library.
//
// Cells live on a fixed-height standard-cell row; a cell's width is an
// integer number of horizontal pitches (the pitch counts are layout data in
// cells.hpp).  Conventional MCML uses the base pitch; the PG variant widens
// the pitch by 19/18 to absorb the sleep transistor, which shares the tail
// transistor's diffusion (Section 4/5 of the paper).  This reproduces the
// uniform ~5.6 % PG-vs-MCML overhead of Table 1 and the absolute areas of
// Table 2.  The CMOS-equivalent areas come from Table 2's published
// MCML/CMOS ratios.
#pragma once

#include <optional>

#include "pgmcml/mcml/cells.hpp"

namespace pgmcml::mcml {

class AreaModel {
 public:
  /// Standard-cell row height [m].
  double cell_height() const { return 2.52e-6; }
  /// Horizontal pitch of conventional MCML cells [m].
  double mcml_pitch() const { return 0.56e-6; }
  /// Horizontal pitch of PG-MCML cells [m] (wider by 19/18).
  double pg_pitch() const { return mcml_pitch() * 19.0 / 18.0; }

  /// Cell area [m^2] for a conventional MCML implementation.
  double mcml_area(CellKind kind) const;
  /// Cell area [m^2] for the power-gated implementation.
  double pg_area(CellKind kind) const;
  /// Area of the equivalent cell in the commercial 90 nm CMOS library,
  /// derived from the published area ratios; nullopt when the paper lists
  /// no CMOS counterpart (DIFF2SINGLE, MAJ32, EDFF).
  std::optional<double> cmos_area(CellKind kind) const;

  /// Relative PG-over-MCML area overhead (same for every cell).
  double pg_overhead() const { return 19.0 / 18.0 - 1.0; }

  /// Heuristic pitch estimate from transistor count (cross-check only; the
  /// committed layout data is cell_info().pitch_count).
  int estimate_pitches(CellKind kind, bool power_gated) const;
};

}  // namespace pgmcml::mcml
