#include "pgmcml/core/byte_target.hpp"

#include <algorithm>

#include "pgmcml/core/aes_core.hpp"
#include "pgmcml/core/sbox_unit.hpp"

namespace pgmcml::core {

using netlist::NetId;

ByteTarget::ByteTarget(const cells::CellLibrary& library,
                       netlist::Design design, std::vector<NetId> stimulus,
                       const std::vector<std::pair<NetId, bool>>& precharge,
                       std::uint8_t mask)
    : library_(library),
      design_(std::move(design)),
      stimulus_(std::move(stimulus)),
      mask_(mask),
      precharged_(design_, &library_) {
  precharged_.apply_and_settle(precharge);
  precharged_.clear_events();
  precharged_.run_until(0.5e-9);
  precharged_.flush_work_counters();
}

netlist::LogicSim ByteTarget::simulate(std::uint8_t byte) const {
  netlist::LogicSim sim = precharged_;
  const unsigned driven = byte ^ mask_;
  std::vector<std::pair<NetId, bool>> assign;
  for (int b = 0; b < 8; ++b) {
    assign.emplace_back(stimulus_[b], (driven >> b) & 1);
  }
  sim.apply_and_settle(assign);
  sim.flush_work_counters();
  return sim;
}

ByteTarget reduced_aes_target(const cells::CellLibrary& library,
                              std::uint8_t key) {
  synth::MapResult mapped = map_reduced_aes(library);
  const netlist::Design& design = mapped.design;
  std::vector<NetId> p = design.input_bus("p", 8);
  const std::vector<NetId> k = design.input_bus("k", 8);
  std::vector<std::pair<NetId, bool>> precharge;
  for (int b = 0; b < 8; ++b) {
    precharge.emplace_back(k[b], (key >> b) & 1);
    precharge.emplace_back(p[b], false);
  }
  // The mapper's constant input, if any, held low.
  for (const NetId n : design.inputs()) {
    if (std::find(p.begin(), p.end(), n) == p.end() &&
        std::find(k.begin(), k.end(), n) == k.end()) {
      precharge.emplace_back(n, false);
    }
  }
  return ByteTarget(library, std::move(mapped.design), std::move(p), precharge,
                    0);
}

ByteTarget aes_core_target(const cells::CellLibrary& library,
                           std::uint8_t key) {
  synth::MapResult mapped = map_aes_core(library);
  const netlist::Design& design = mapped.design;
  const std::vector<NetId> st = design.input_bus("st", 128);
  std::vector<std::pair<NetId, bool>> precharge;
  for (const NetId n : design.inputs()) {
    if (std::find(st.begin(), st.end(), n) == st.end()) {
      precharge.emplace_back(n, false);
    }
  }
  for (const NetId n : st) precharge.emplace_back(n, false);
  return ByteTarget(library, std::move(mapped.design),
                    std::vector<NetId>(st.begin(), st.begin() + 8), precharge,
                    key);
}

}  // namespace pgmcml::core
