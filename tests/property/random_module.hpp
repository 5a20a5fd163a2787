// Random combinational modules for the fuzz tests: a DAG of AND/OR/XOR/MUX/
// MAJ nodes over `num_inputs` primary inputs with randomly complemented
// operands, four outputs taken from the deepest nodes.  Shared by the mapper
// equivalence fuzz and the logic-simulator oracle.
#pragma once

#include <string>
#include <vector>

#include "pgmcml/synth/module.hpp"
#include "pgmcml/util/rng.hpp"

namespace pgmcml {

struct RandomModule {
  synth::Module module;
  int num_inputs;
};

inline RandomModule make_random_module(util::Rng& rng, int num_inputs,
                                       int num_ops) {
  RandomModule rm{synth::Module("fuzz"), num_inputs};
  std::vector<synth::Lit> pool;
  for (int i = 0; i < num_inputs; ++i) {
    pool.push_back(rm.module.input("x" + std::to_string(i)));
  }
  auto pick = [&] {
    synth::Lit l = pool[rng.bounded(pool.size())];
    return rng.bounded(2) ? synth::lit_not(l) : l;
  };
  for (int i = 0; i < num_ops; ++i) {
    synth::Lit out;
    switch (rng.bounded(5)) {
      case 0: out = rm.module.land(pick(), pick()); break;
      case 1: out = rm.module.lor(pick(), pick()); break;
      case 2: out = rm.module.lxor(pick(), pick()); break;
      case 3: out = rm.module.lmux(pick(), pick(), pick()); break;
      default: out = rm.module.lmaj(pick(), pick(), pick()); break;
    }
    pool.push_back(out);
  }
  // A handful of outputs from the deepest nodes.
  for (int i = 0; i < 4; ++i) {
    rm.module.output("y" + std::to_string(i),
                     pool[pool.size() - 1 - static_cast<std::size_t>(i)]);
  }
  return rm;
}

}  // namespace pgmcml
