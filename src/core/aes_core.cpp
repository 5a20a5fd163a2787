#include "pgmcml/core/aes_core.hpp"

#include <string>

#include "pgmcml/synth/lut.hpp"

namespace pgmcml::core {

using synth::Lit;
using synth::Module;

namespace {

using Byte = std::array<Lit, 8>;
using State = std::array<Byte, 16>;  // FIPS layout: byte i = row i%4, col i/4

/// xtime in GF(2^8): out = (x << 1) ^ (x7 ? 0x1b : 0).
Byte xtime(Module& m, const Byte& x) {
  Byte out;
  out[0] = x[7];
  out[1] = m.lxor(x[0], x[7]);
  out[2] = x[1];
  out[3] = m.lxor(x[2], x[7]);
  out[4] = m.lxor(x[3], x[7]);
  out[5] = x[4];
  out[6] = x[5];
  out[7] = x[6];
  return out;
}

Byte bxor(Module& m, const Byte& a, const Byte& b) {
  Byte out;
  for (int i = 0; i < 8; ++i) out[i] = m.lxor(a[i], b[i]);
  return out;
}

Byte bmux(Module& m, Lit sel, const Byte& when0, const Byte& when1) {
  Byte out;
  for (int i = 0; i < 8; ++i) out[i] = m.lmux(sel, when0[i], when1[i]);
  return out;
}

State shift_rows(const State& s) {
  State out;
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      out[r + 4 * c] = s[r + 4 * ((c + r) % 4)];
    }
  }
  return out;
}

State mix_columns(Module& m, const State& s) {
  State out;
  for (int c = 0; c < 4; ++c) {
    const Byte& a0 = s[4 * c];
    const Byte& a1 = s[4 * c + 1];
    const Byte& a2 = s[4 * c + 2];
    const Byte& a3 = s[4 * c + 3];
    const Byte x0 = xtime(m, a0);
    const Byte x1 = xtime(m, a1);
    const Byte x2 = xtime(m, a2);
    const Byte x3 = xtime(m, a3);
    // b0 = 2a0 ^ 3a1 ^ a2 ^ a3, etc.
    out[4 * c] = bxor(m, bxor(m, x0, bxor(m, x1, a1)), bxor(m, a2, a3));
    out[4 * c + 1] = bxor(m, bxor(m, a0, x1), bxor(m, bxor(m, x2, a2), a3));
    out[4 * c + 2] = bxor(m, bxor(m, a0, a1), bxor(m, x2, bxor(m, x3, a3)));
    out[4 * c + 3] = bxor(m, bxor(m, bxor(m, x0, a0), a1), bxor(m, a2, x3));
  }
  return out;
}

}  // namespace

synth::Module build_aes_core_module() {
  Module m("aes128_core");
  // Input buses.
  State pt;
  State rk;
  for (int b = 0; b < 16; ++b) {
    for (int i = 0; i < 8; ++i) {
      pt[b][i] = m.input("pt[" + std::to_string(8 * b + i) + "]");
    }
  }
  for (int b = 0; b < 16; ++b) {
    for (int i = 0; i < 8; ++i) {
      rk[b][i] = m.input("rk[" + std::to_string(8 * b + i) + "]");
    }
  }
  const Lit load = m.input("load");
  const Lit final_round = m.input("final");

  // State register: declared as enable-less flops whose D we build below.
  // Because the IR is feed-forward (dff(d) requires d first), we model the
  // feedback by building the round function on the *flop outputs*; the
  // trick is to create placeholder flops via dff over a deferred input is
  // not possible, so instead we exploit evaluate()'s state vector: flops
  // read their previous state.  Build order: create flops fed by the round
  // function of the *previous* flop outputs requires the outputs first --
  // resolved by building the round on pseudo-inputs and rewiring.  The
  // clean feed-forward formulation used here: the flop input is a function
  // of the flop's own output, which the Module supports as long as the
  // output literal exists before dff() is called.  So: create one dff per
  // bit with a dummy D first?  Not supported.  Instead we use the standard
  // unrolled-feedback trick: the "state" seen by the round logic is a bus
  // of pseudo-primary inputs st_in[128], and the module exposes the next
  // state as outputs next[128]; the sequencer (run_aes_core / the mapped
  // netlist's flops) closes the loop externally.
  State st;
  for (int b = 0; b < 16; ++b) {
    for (int i = 0; i < 8; ++i) {
      st[b][i] = m.input("st[" + std::to_string(8 * b + i) + "]");
    }
  }

  // Round function on st.
  const std::vector<std::uint8_t> table(aes::sbox().begin(), aes::sbox().end());
  State subbed;
  for (int b = 0; b < 16; ++b) {
    std::vector<Lit> in(st[b].begin(), st[b].end());
    const std::vector<Lit> out = synth::synthesize_lut8(m, in, table);
    for (int i = 0; i < 8; ++i) subbed[b][i] = out[i];
  }
  const State shifted = shift_rows(subbed);
  const State mixed = mix_columns(m, shifted);

  State next;
  for (int b = 0; b < 16; ++b) {
    // final rounds skip MixColumns.
    const Byte round_out = bmux(m, final_round, mixed[b], shifted[b]);
    const Byte with_key = bxor(m, round_out, rk[b]);
    const Byte loaded = bxor(m, pt[b], rk[b]);  // initial AddRoundKey
    next[b] = bmux(m, load, with_key, loaded);
  }

  // Registered state output: flops close the loop at the netlist level; at
  // the IR level we also register them so the mapped design contains the
  // 128 state flops (fed by next, read back through st externally).
  for (int b = 0; b < 16; ++b) {
    for (int i = 0; i < 8; ++i) {
      const Lit q = m.dff(next[b][i]);
      m.output("state[" + std::to_string(8 * b + i) + "]", q);
      m.output("next[" + std::to_string(8 * b + i) + "]", next[b][i]);
    }
  }
  return m;
}

aes::Block run_aes_core(const synth::Module& core, const aes::Block& plaintext,
                        const aes::Key& key) {
  const aes::KeySchedule ks = aes::expand_key(key);

  // Input vector layout: pt[128], rk[128], load, final, st[128].
  std::vector<bool> in(128 + 128 + 2 + 128, false);
  auto set_block = [&](std::size_t base, const std::array<std::uint8_t, 16>& blk) {
    for (int b = 0; b < 16; ++b) {
      for (int i = 0; i < 8; ++i) {
        in[base + 8 * b + i] = (blk[b] >> i) & 1;
      }
    }
  };
  auto get_next = [&](const std::vector<bool>& out) {
    aes::Block blk{};
    for (int b = 0; b < 16; ++b) {
      for (int i = 0; i < 8; ++i) {
        // Outputs alternate state/next per bit: state at 2*k, next at 2*k+1.
        if (out[2 * (8 * b + i) + 1]) {
          blk[b] = static_cast<std::uint8_t>(blk[b] | (1u << i));
        }
      }
    }
    return blk;
  };

  set_block(0, plaintext);
  aes::Block state{};
  // Cycle 0: load with round key 0.
  set_block(128, ks.round_keys[0]);
  in[256] = true;   // load
  in[257] = false;  // final
  set_block(258, state);
  state = get_next(core.evaluate(in));
  // Rounds 1..10.
  for (int round = 1; round <= 10; ++round) {
    set_block(128, ks.round_keys[static_cast<std::size_t>(round)]);
    in[256] = false;
    in[257] = (round == 10);
    set_block(258, state);
    state = get_next(core.evaluate(in));
  }
  return state;
}

synth::MapResult map_aes_core(const cells::CellLibrary& library) {
  const Module m = build_aes_core_module();
  return synth::map_module(m, library);
}

}  // namespace pgmcml::core
