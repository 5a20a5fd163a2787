// Pinned expected outputs per workload and seed (repobench/expected.json),
// compared against what a run computed.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"

namespace repobench {

/// Loads the expected-values file; an empty path yields an empty table
/// (every seed unpinned).  Throws when the file is missing or malformed, so
/// a damaged table cannot silently turn the pinned checks off.
pgmcml::obs::json::Value load_expected(const std::string& path);

/// The pinned record for (workload, seed), or null.
const pgmcml::obs::json::Value* find_expected(
    const pgmcml::obs::json::Value& table, const std::string& workload,
    std::uint64_t seed);

/// Compares `actual` against `pinned` member by member: numbers within
/// 1e-9 relative (exact for integers in practice), strings and booleans
/// exactly, objects recursively.  Each mismatch is one failed check.
void compare_pinned(Outcome& out, const pgmcml::obs::json::Value& pinned,
                    const pgmcml::obs::json::Value& actual,
                    const std::string& path);

}  // namespace repobench
