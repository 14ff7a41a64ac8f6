// decode.hpp - pre-decoded instruction stream for the fast execution path.
//
// The reference interpreter (BlockExec::step) re-inspects the compact
// `Instruction` encoding on every dynamic step: operand register-file slots
// are recomputed per lane from Program::reg_base, memory widths are
// re-expanded, and the timing executor re-derives scoreboard dependencies
// per issue attempt. For the tile-periodic kernels this repository
// simulates, every one of those decisions is identical across millions of
// steps, so the fast path pays them exactly once per *static* instruction:
// `decode()` flattens a finished Program into a dense stream of
// `DecodedInstr` records with
//
//   * operand slots resolved (reg_base[reg] + comp, ready to index lane
//     storage as slot * 32 + lane),
//   * the StepResult kind and accounting region pre-classified,
//   * memory width expanded to words/bytes, load/store pre-flagged, and
//   * the scoreboard read-set (register slots with word extents, predicate
//     registers) pre-flattened for the timing executor's dep_ready scan.
//
// The fast path is required to be bit-identical in numerics and
// cycle-identical in LaunchStats to the reference path; the differential
// fuzz tests (tests/vgpu/fuzz_differential_test.cpp) and the real-kernel
// equivalence tests enforce that invariant.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "vgpu/interp.hpp"
#include "vgpu/ir.hpp"
#include "vgpu/launch.hpp"

namespace vgpu {

/// Sentinel for "operand absent" in resolved slot fields.
inline constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();

/// One pre-decoded instruction. Layout groups the fields the interpreter
/// touches first; everything is plain data so the stream is cache-friendly.
struct DecodedInstr {
  // --- dispatch ---
  Opcode op = Opcode::kExit;
  StepResult::Kind kind = StepResult::Kind::kAlu;
  Region region = Region::kOther;

  // --- resolved operands (register-file slots; kNoSlot = absent) ---
  std::uint32_t dst_slot = kNoSlot;
  std::uint32_t src_slot[3] = {kNoSlot, kNoSlot, kNoSlot};
  std::uint32_t imm = 0;

  // --- memory ---
  MemWidth width = MemWidth::kW32;
  std::uint32_t width_words = 1;
  std::uint32_t width_bytes = 4;
  bool is_store = false;
  bool is_load = false;

  // --- predicates / compare / branch ---
  CmpOp cmp = CmpOp::kEq;
  bool cmp_is_float = false;
  bool branch_if_false = false;
  bool guard_negated = false;
  PredId pdst = kNoPred;
  PredId psrc0 = kNoPred;
  PredId psrc1 = kNoPred;
  PredId guard = kNoPred;
  BlockId target = kNoBlock;
  BlockId target2 = kNoBlock;
  BlockId reconv = kNoBlock;

  // --- timing-executor scoreboard read-set ---
  /// Register slots this instruction reads (with word extents), flattened
  /// from src[0..2] and, for partial-width defs, the destination.
  struct RegDep {
    std::uint32_t slot = 0;
    std::uint32_t words = 0;
  };
  RegDep deps[4];
  std::uint32_t num_deps = 0;
  PredId pred_deps[3] = {kNoPred, kNoPred, kNoPred};
  std::uint32_t num_pred_deps = 0;
  /// Words written back to dst (width for loads, 1 for scalar defs,
  /// 0 when no destination).
  std::uint32_t dst_words = 0;
};

/// The maximal converged straight-line run starting at an instruction:
/// `len` consecutive instructions (0 = this instruction cannot be batched)
/// that are all guard-free register ALU ops — no control flow, no memory
/// access, no barrier, no predicate write, no clock read. A fully converged
/// warp can execute the whole run in one dispatch without re-checking its
/// mask, and the per-instruction accounting the functional executor would
/// have done step by step is pre-aggregated here. Runs never cross block
/// boundaries (every block ends in control flow), so the region is single.
struct DecodedRun {
  std::uint32_t len = 0;
  Region region = Region::kOther;
  /// Dynamic instruction-class histogram of the run (InstrClass order).
  std::array<std::uint32_t, 6> class_counts{};
  /// True when the instruction terminating this run (at `start + len`) is a
  /// guard-free memory op a converged warp may execute fused into the same
  /// dispatch (boundary-step fusion, functional executor); fused execution
  /// is bit-identical to the separate step.
  bool fuse_boundary = false;
};

/// The flattened stream: blocks are concatenated in order, and
/// `block_start[b] + ip` addresses the instruction warp state points at.
/// `runs` parallels `instrs` (kept out of DecodedInstr so the single-step
/// stream stays cache-dense).
struct DecodedProgram {
  std::vector<DecodedInstr> instrs;
  std::vector<DecodedRun> runs;
  std::vector<std::uint32_t> block_start;

  [[nodiscard]] const DecodedInstr& at(BlockId b, std::uint32_t ip) const {
    return instrs[block_start[b] + ip];
  }
  [[nodiscard]] const DecodedRun& run_at(BlockId b, std::uint32_t ip) const {
    return runs[block_start[b] + ip];
  }
};

/// Pre-decode a finished program (register layout present). The result
/// references nothing in `prog` and stays valid independently of it.
[[nodiscard]] DecodedProgram decode(const Program& prog);

}  // namespace vgpu
