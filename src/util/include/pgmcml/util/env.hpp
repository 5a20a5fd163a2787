// Hardened environment-variable parsing for the runtime knobs
// (PGMCML_THREADS, PGMCML_SERVICE_*, bench budgets).
//
// The contract is loud failure: an unset variable falls through to the
// caller's default, but a set-and-malformed one -- empty, non-numeric,
// trailing garbage, overflow, out of the accepted range -- throws a
// std::runtime_error naming the variable, the offending text and the range.
// A typo in a deployment config becomes a startup diagnostic instead of a
// silent fallback to hardware defaults.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>

namespace pgmcml::util {

/// Reads `name` as an unsigned decimal integer.
///   * unset          -> std::nullopt (apply your default);
///   * valid decimal in [min_value, max_value] -> the value;
///   * anything else  -> throws std::runtime_error with a clear diagnostic.
std::optional<std::uint64_t> env_u64(
    const char* name, std::uint64_t min_value = 0,
    std::uint64_t max_value = std::numeric_limits<std::uint64_t>::max());

/// Parses `text` with env_u64's rules (exposed for the value coming from
/// somewhere other than the environment, e.g. CLI flags; `name` labels the
/// diagnostic).  Never returns nullopt: empty text throws.
std::uint64_t parse_u64(
    const char* name, const char* text, std::uint64_t min_value = 0,
    std::uint64_t max_value = std::numeric_limits<std::uint64_t>::max());

}  // namespace pgmcml::util
