// One-byte attack targets: a mapped design that every acquisition replays
// from one settled precharge state, varying only 8 stimulus nets.
//
// A trace of such a target is a function of its byte alone (plus its own
// noise), which is what lets an acquisition source memoize one simulation
// per byte value.  Two targets exist:
//
//  * the reduced AES (AddRoundKey + S-box, the Fig. 6 DUT): the plaintext
//    drives p[0..7], the key sits on k[0..7] in the precharge;
//  * the full AES-128 core, attacked in its first round with chosen
//    plaintexts: byte 0 of the state (st[0..7]) carries plaintext ^ key,
//    every other input stays low.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "pgmcml/cells/library.hpp"
#include "pgmcml/netlist/design.hpp"
#include "pgmcml/netlist/logicsim.hpp"

namespace pgmcml::core {

class ByteTarget {
 public:
  /// Settles `precharge` on `design`, clears its events and holds the state
  /// to 0.5 ns.  `stimulus` holds the 8 nets a byte drives, bit b
  /// on stimulus[b]; simulate(byte) drives them with byte ^ `mask`.
  ByteTarget(const cells::CellLibrary& library, netlist::Design design,
             std::vector<netlist::NetId> stimulus,
             const std::vector<std::pair<netlist::NetId, bool>>& precharge,
             std::uint8_t mask);

  /// One simulation of `byte`: a copy of the precharge state with the
  /// stimulus applied and settled, its work counters flushed.  Every call
  /// with the same byte yields the same events.
  netlist::LogicSim simulate(std::uint8_t byte) const;

  const netlist::Design& design() const { return design_; }
  const cells::CellLibrary& library() const { return library_; }

 private:
  cells::CellLibrary library_;
  netlist::Design design_;
  std::vector<netlist::NetId> stimulus_;
  std::uint8_t mask_;
  /// Settled at the precharge state; never advanced, only copied.
  netlist::LogicSim precharged_;
};

/// The reduced AES under `key`: stimulus p[0..7], mask 0.
ByteTarget reduced_aes_target(const cells::CellLibrary& library,
                              std::uint8_t key);

/// The full AES-128 core under `key` (byte 0 of the first round key):
/// stimulus st[0..7], mask `key`, all other inputs low.
ByteTarget aes_core_target(const cells::CellLibrary& library,
                           std::uint8_t key);

}  // namespace pgmcml::core
