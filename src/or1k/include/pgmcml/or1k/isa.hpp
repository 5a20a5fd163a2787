// OpenRISC-1000-flavoured 32-bit ISA subset, plus the paper's custom
// instruction: `l.sbox rD, rA` substitutes each byte of rA through the AES
// S-box (four parallel S-boxes matching the processor word size).
//
// Programs are built through a small assembler (label-based branches) and
// run on the interpreter in cpu.hpp.  The encoding is structural, not
// binary: what matters for the Table 3 experiment is the cycle-accurate
// activity profile, in particular *which cycles execute the custom
// instruction*, since that signal drives the sleep control of the PG-MCML
// functional unit.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pgmcml::or1k {

enum class Op : std::uint8_t {
  kAdd,    // rD = rA + rB
  kAddi,   // rD = rA + imm
  kAnd,    // rD = rA & rB
  kAndi,   // rD = rA & imm (zero-extended)
  kOr,     // rD = rA | rB
  kOri,    // rD = rA | imm
  kXor,    // rD = rA ^ rB
  kSlli,   // rD = rA << imm
  kSrli,   // rD = rA >> imm (logical)
  kMovhi,  // rD = imm << 16
  kLw,     // rD = mem32[rA + imm]
  kSw,     // mem32[rA + imm] = rB
  kLbz,    // rD = mem8[rA + imm] (zero-extended)
  kBne,    // if rA != rB goto label
  kBltu,   // if rA < rB (unsigned) goto label
  kSbox,   // rD = sbox4(rA)  -- the custom S-box ISE
  kHalt,
};

struct Instr {
  Op op = Op::kHalt;
  int rd = 0;
  int ra = 0;
  int rb = 0;
  std::int32_t imm = 0;
  std::int32_t target = -1;  ///< resolved branch target (instruction index)
};

/// Tiny two-pass assembler: emit instructions, drop labels, resolve at
/// build time.
class Assembler {
 public:
  void label(const std::string& name);

  void add(int rd, int ra, int rb) { emit({Op::kAdd, rd, ra, rb}); }
  void addi(int rd, int ra, std::int32_t imm) { emit({Op::kAddi, rd, ra, 0, imm}); }
  void and_(int rd, int ra, int rb) { emit({Op::kAnd, rd, ra, rb}); }
  void andi(int rd, int ra, std::int32_t imm) { emit({Op::kAndi, rd, ra, 0, imm}); }
  void or_(int rd, int ra, int rb) { emit({Op::kOr, rd, ra, rb}); }
  void ori(int rd, int ra, std::int32_t imm) { emit({Op::kOri, rd, ra, 0, imm}); }
  void xor_(int rd, int ra, int rb) { emit({Op::kXor, rd, ra, rb}); }
  void slli(int rd, int ra, int sh) { emit({Op::kSlli, rd, ra, 0, sh}); }
  void srli(int rd, int ra, int sh) { emit({Op::kSrli, rd, ra, 0, sh}); }
  void movhi(int rd, std::int32_t imm) { emit({Op::kMovhi, rd, 0, 0, imm}); }
  void lw(int rd, int ra, std::int32_t off) { emit({Op::kLw, rd, ra, 0, off}); }
  void sw(int ra, std::int32_t off, int rb) { emit({Op::kSw, 0, ra, rb, off}); }
  void lbz(int rd, int ra, std::int32_t off) { emit({Op::kLbz, rd, ra, 0, off}); }
  void bne(int ra, int rb, const std::string& target) { branch(Op::kBne, ra, rb, target); }
  void bltu(int ra, int rb, const std::string& target) { branch(Op::kBltu, ra, rb, target); }
  void sbox(int rd, int ra) { emit({Op::kSbox, rd, ra}); }
  void halt() { emit({Op::kHalt}); }

  /// Loads a full 32-bit constant (movhi + ori).
  void load_imm32(int rd, std::uint32_t value);

  /// Resolves labels and returns the program.
  std::vector<Instr> build();

  std::size_t size() const { return program_.size(); }

 private:
  void emit(Instr i) { program_.push_back(i); }
  void branch(Op op, int ra, int rb, const std::string& target);

  std::vector<Instr> program_;
  std::map<std::string, std::int32_t> labels_;
  std::vector<std::pair<std::size_t, std::string>> fixups_;
};

}  // namespace pgmcml::or1k
