// Full AES-128 encryption datapath in hardware -- the scaling extension of
// the paper's approach: instead of protecting only the S-box ISE, build the
// whole cipher round in the DPA-resistant library (one round per cycle,
// iterative datapath with a 128-bit state register).
//
//   state' = load ? (plaintext ^ round_key)
//                 : AddRoundKey(MixColumns?(ShiftRows(SubBytes(state))), rk)
//
// Round keys stream in on a 128-bit bus (the key schedule runs on the host
// or a side unit, as in many compact cores).  SubBytes instantiates sixteen
// synthesized S-boxes; MixColumns is pure XOR/xtime wiring.
#pragma once

#include <array>
#include <cstdint>

#include "pgmcml/aes/aes.hpp"
#include "pgmcml/cells/library.hpp"
#include "pgmcml/synth/map.hpp"
#include "pgmcml/synth/module.hpp"

namespace pgmcml::core {

/// Builds the iterative AES-128 core IR.
/// Inputs: pt[128], rk[128], load, final_round.  Output: state[128] (the
/// registered state; equals the ciphertext after the last round's tick).
synth::Module build_aes_core_module();

/// Runs the core functionally through Module::evaluate for one block.
aes::Block run_aes_core(const synth::Module& core, const aes::Block& plaintext,
                        const aes::Key& key);

/// Maps the core onto a library (for the area/power scaling table).
synth::MapResult map_aes_core(const cells::CellLibrary& library);

}  // namespace pgmcml::core
