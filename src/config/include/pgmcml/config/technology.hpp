// Device-model documents: a JSON corner set parsed into
// spice::TechnologyParams / spice::Technology.
//
// Document shape (kind "technology"):
//
//   {
//     "pgmcml_schema": 1,
//     "kind": "technology",
//     "name": "cmos90",
//     "corner": "TT",
//     "vdd": 1.2, "lmin": 1e-07,
//     "avt": 3.5e-09, "akp": 1e-09,
//     "devices": {
//       "nmos_lvt": { "vth0": 0.22, "kp": 0.00033, "lambda": 0.15,
//                     "n_sub": 1.45, "gamma": 0.3, "phi": 0.8 },
//       "nmos_hvt": { ... }, "pmos_lvt": { ... }, "pmos_hvt": { ... }
//     }
//   }
//
// Device capacitance fields (cox_area / cov_width / cj_width) are optional
// and default to the generic values baked into DeviceModel, so a document
// that only gives the DC parameters still yields complete devices.  JSON
// numbers round-trip doubles bitwise, so a document written by
// technology_to_json reconstructs the identical Technology -- the property
// the default-config-equals-built-in acceptance test pins.
#pragma once

#include <string>

#include "pgmcml/config/reader.hpp"
#include "pgmcml/spice/technology.hpp"

namespace pgmcml::config {

/// Parses and validates one technology document.  `doc_label` prefixes
/// every error path (usually the file name).
spice::TechnologyParams technology_params_from_json(
    const obs::json::Value& doc, const std::string& doc_label);

/// Writes `p` as a complete schema-versioned technology document (the exact
/// inverse of technology_params_from_json).
obs::json::Value technology_to_json(const spice::TechnologyParams& p);

}  // namespace pgmcml::config
