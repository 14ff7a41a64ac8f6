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

#include "vgpu/check.hpp"
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

/// True for the two clock reads, `clock` and `mov.special %clock`: the only
/// register ALU instructions whose value depends on the issue cycle. No run
/// holds one, build_threaded compiles no handler for one, and step_fast
/// executes them itself.
[[nodiscard]] inline bool reads_clock(const DecodedInstr& d) {
  return d.op == Opcode::kClock ||
         (d.op == Opcode::kMovSpecial &&
          static_cast<Special>(d.imm) == Special::kClock);
}

/// The maximal converged straight-line run starting at an instruction:
/// `len` consecutive instructions (0 = this instruction cannot be batched)
/// that are all guard-free and change no warp state but registers,
/// predicates and the instruction pointer: register ALU ops, predicate
/// writers (setp/pand/por/pnot) and shared loads whose address is
/// warp-uniform (decode.cpp's divergence analysis). No control flow, no
/// barrier, no store, no other memory access, no clock read. A fully
/// converged warp can execute the whole run in one dispatch without
/// re-checking its mask - nothing in it changes the mask - and the
/// per-instruction accounting the functional executor would have done step
/// by step is pre-aggregated here. Runs never cross block boundaries (every
/// block ends in control flow), so the region is single.
struct DecodedRun {
  std::uint32_t len = 0;
  Region region = Region::kOther;
  /// Dynamic instruction-class histogram of the run (InstrClass order).
  std::array<std::uint32_t, 6> class_counts{};
  /// Uniform shared loads in the run, by width (shared_width_index order:
  /// 32, 64, 128 bits). Every one is a broadcast, so its bank-conflict
  /// degree depends only on its width (uniform_shared_degrees).
  std::array<std::uint32_t, 3> shared_loads{};
  /// True when the instruction terminating this run (at `start + len`) is a
  /// guard-free memory op with no predicate write: the functional executor
  /// steps it straight after the run and counts it as a fused boundary op
  /// (LaunchStats::fused_boundary_ops).
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

/// Index of a memory width in DecodedRun::shared_loads.
[[nodiscard]] inline std::size_t shared_width_index(std::uint32_t words) {
  return words == 1 ? 0u : words == 2 ? 1u : 2u;
}

/// Pre-decode a finished program (register layout present). The result
/// references nothing in `prog` and stays valid independently of it.
[[nodiscard]] DecodedProgram decode(const Program& prog);

// The timing executor's per-issue accessors (declared in interp.hpp). They
// are defined here, where DecodedProgram is complete, so the timing
// executor's issue loops inline them.

inline const DecodedInstr* BlockExec::peek_decoded(std::uint32_t w) const {
  const WarpState& ws = warps_[w];
  if (ws.done || ws.at_barrier) return nullptr;
  return &dec_->at(ws.block, ws.ip);
}

// Issue without execution: see interp.hpp. The run instructions' values
// land in step_fast, before the warp's next instruction - the run's
// terminator - executes, or before another warp's shared store when the
// range holds a shared load; until then only the timing model sees the
// issue.
inline const DecodedInstr* BlockExec::issue_timing_only(std::uint32_t w) {
  if (dec_ == nullptr) return nullptr;
  WarpState& ws = warps_[w];
  VGPU_EXPECTS_MSG(!ws.done && !ws.at_barrier,
                   "issuing a finished or parked warp");
  if ((ws.active & full_mask_) != full_mask_) return nullptr;
  const std::uint32_t pc = dec_->block_start[ws.block] + ws.ip;
  if (dec_->runs[pc].len == 0) return nullptr;
  if (ws.pending_len == 0) ws.pending_first = pc;
  VGPU_EXPECTS_MSG(ws.pending_first + ws.pending_len == pc,
                   "a timing-only issue must extend the pending range");
  ++ws.pending_len;
  ++ws.ip;
  ++ws.issued;
  return &dec_->instrs[pc];
}

}  // namespace vgpu
