#include "pgmcml/or1k/cpu.hpp"

#include <stdexcept>

#include "pgmcml/aes/aes.hpp"

namespace pgmcml::or1k {

Cpu::Cpu(std::vector<Instr> program, std::size_t mem_bytes)
    : program_(std::move(program)), mem_(mem_bytes, 0) {}

std::uint32_t Cpu::load_word(std::uint32_t addr) const {
  if (addr + 4 > mem_.size()) throw std::out_of_range("load_word OOB");
  // Little-endian memory.
  return static_cast<std::uint32_t>(mem_[addr]) |
         (static_cast<std::uint32_t>(mem_[addr + 1]) << 8) |
         (static_cast<std::uint32_t>(mem_[addr + 2]) << 16) |
         (static_cast<std::uint32_t>(mem_[addr + 3]) << 24);
}

void Cpu::store_word(std::uint32_t addr, std::uint32_t value) {
  if (addr + 4 > mem_.size()) throw std::out_of_range("store_word OOB");
  mem_[addr] = static_cast<std::uint8_t>(value);
  mem_[addr + 1] = static_cast<std::uint8_t>(value >> 8);
  mem_[addr + 2] = static_cast<std::uint8_t>(value >> 16);
  mem_[addr + 3] = static_cast<std::uint8_t>(value >> 24);
}

std::uint8_t Cpu::load_byte(std::uint32_t addr) const {
  if (addr >= mem_.size()) throw std::out_of_range("load_byte OOB");
  return mem_[addr];
}

void Cpu::store_byte(std::uint32_t addr, std::uint8_t value) {
  if (addr >= mem_.size()) throw std::out_of_range("store_byte OOB");
  mem_[addr] = value;
}

bool Cpu::step() {
  if (halted_ || pc_ >= program_.size()) {
    halted_ = true;
    return false;
  }
  const Instr& i = program_[pc_];
  std::uint32_t next_pc = pc_ + 1;
  const std::uint32_t a = regs_[i.ra];
  const std::uint32_t b = regs_[i.rb];
  auto wr = [&](std::uint32_t v) {
    if (i.rd != 0) regs_[i.rd] = v;
  };
  switch (i.op) {
    case Op::kAdd: wr(a + b); break;
    case Op::kAddi: wr(a + static_cast<std::uint32_t>(i.imm)); break;
    case Op::kAnd: wr(a & b); break;
    case Op::kAndi: wr(a & static_cast<std::uint32_t>(i.imm)); break;
    case Op::kOr: wr(a | b); break;
    case Op::kOri: wr(a | static_cast<std::uint32_t>(i.imm)); break;
    case Op::kXor: wr(a ^ b); break;
    case Op::kSlli: wr(a << (i.imm & 31)); break;
    case Op::kSrli: wr(a >> (i.imm & 31)); break;
    case Op::kMovhi: wr(static_cast<std::uint32_t>(i.imm) << 16); break;
    case Op::kLw: wr(load_word(a + static_cast<std::uint32_t>(i.imm))); break;
    case Op::kSw: store_word(a + static_cast<std::uint32_t>(i.imm), b); break;
    case Op::kLbz: wr(load_byte(a + static_cast<std::uint32_t>(i.imm))); break;
    case Op::kBne:
      if (a != b) next_pc = static_cast<std::uint32_t>(i.target);
      break;
    case Op::kBltu:
      if (a < b) next_pc = static_cast<std::uint32_t>(i.target);
      break;
    case Op::kSbox:
      ise_cycles_.push_back(cycles_);
      ise_operands_.push_back(a);
      wr(aes::sbox_ise(a));
      break;
    case Op::kHalt:
      halted_ = true;
      break;
  }
  ++cycles_;
  pc_ = next_pc;
  return !halted_;
}

bool Cpu::run(std::uint64_t max_cycles) {
  while (!halted_ && cycles_ < max_cycles) step();
  return halted_;
}

double Cpu::ise_duty() const {
  if (cycles_ == 0) return 0.0;
  return static_cast<double>(ise_cycles_.size()) /
         static_cast<double>(cycles_);
}

}  // namespace pgmcml::or1k
