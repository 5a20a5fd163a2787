// Cycle-counting interpreter for the OR1K-subset ISA.
//
// Every instruction costs one cycle (a single-issue in-order pipeline's
// steady state).  The interpreter records the cycles on which the `l.sbox`
// custom instruction executes; the same decode signal drives the sleep
// input of the PG-MCML functional unit in the paper, so these windows are
// what the power model gates on.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "pgmcml/or1k/isa.hpp"

namespace pgmcml::or1k {

class Cpu {
 public:
  Cpu(std::vector<Instr> program, std::size_t mem_bytes = 1 << 16);

  /// Runs until HALT or the cycle budget is exhausted.
  /// Returns true if the program halted.
  bool run(std::uint64_t max_cycles = 10'000'000);

  /// Executes a single instruction; false once halted.
  bool step();

  std::uint32_t reg(int i) const { return regs_[i]; }

  std::uint32_t load_word(std::uint32_t addr) const;
  void store_word(std::uint32_t addr, std::uint32_t value);
  std::uint8_t load_byte(std::uint32_t addr) const;
  void store_byte(std::uint32_t addr, std::uint8_t value);

  std::uint64_t cycles() const { return cycles_; }
  bool halted() const { return halted_; }

  /// Cycle indices at which the S-box ISE executed.
  const std::vector<std::uint64_t>& ise_cycles() const { return ise_cycles_; }
  /// Operand words of each S-box ISE execution (parallel to ise_cycles()).
  const std::vector<std::uint32_t>& ise_operands() const {
    return ise_operands_;
  }
  /// Fraction of execution cycles spent in the custom instruction.
  double ise_duty() const;

 private:
  std::vector<Instr> program_;
  std::vector<std::uint8_t> mem_;
  std::array<std::uint32_t, 32> regs_{};
  std::uint32_t pc_ = 0;
  std::uint64_t cycles_ = 0;
  bool halted_ = false;
  std::vector<std::uint64_t> ise_cycles_;
  std::vector<std::uint32_t> ise_operands_;
};

}  // namespace pgmcml::or1k
