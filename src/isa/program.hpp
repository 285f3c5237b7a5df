// An assembled program image: encoded 32-bit words plus a pre-decoded
// instruction cache indexed by pc/4. The Snitch L0/L1 instruction caches
// are modeled as ideal (single-cycle), so fetch is a direct array access.
#pragma once

#include <cassert>
#include <vector>

#include "common/types.hpp"
#include "isa/encoding.hpp"
#include "isa/inst.hpp"

namespace issr::isa {

class Program {
 public:
  Program() = default;
  explicit Program(std::vector<insn_word_t> words);

  /// Base virtual address of the first instruction.
  static constexpr addr_t kBaseAddr = 0x4000'0000;

  std::size_t size() const { return insts_.size(); }
  bool empty() const { return insts_.empty(); }

  bool contains_pc(addr_t pc) const {
    return pc >= kBaseAddr && pc < kBaseAddr + 4 * insts_.size() &&
           (pc & 3) == 0;
  }

  insn_word_t word_at(addr_t pc) const {
    assert(contains_pc(pc));
    return words_[(pc - kBaseAddr) / 4];
  }

  const std::vector<insn_word_t>& words() const { return words_; }
  const std::vector<Inst>& insts() const { return insts_; }

  /// Structural equality: identical encoded images (the decoded side is
  /// a pure function of the words). The sweep asset cache's tests use
  /// this to prove a shared program equals a freshly assembled one.
  bool operator==(const Program& other) const {
    return words_ == other.words_;
  }

 private:
  std::vector<insn_word_t> words_;
  std::vector<Inst> insts_;
};

}  // namespace issr::isa
