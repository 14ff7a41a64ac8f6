// threaded.hpp - the compiled form of a decoded program: one handler per
// instruction the fast path executes through compiled code.
//
// build_threaded compiles each such decoded instruction once per program
// into a ThreadedOp - a dense handler index plus operand row offsets
// premultiplied for lane storage. Two dispatchers execute ThreadedOps, both
// expanded from the one handler text (threaded_handlers.inc):
//
//   * the superblock traces (traces.hpp), which execute every whole
//     straight-line run of a converged warp - step_run's runs and the
//     timing executor's pending ranges (BlockExec::issue_timing_only);
//   * exec_op, one switch over the handler index, which executes a single
//     instruction over the lanes of a mask: the ALU ops, moves and
//     predicate writers step_fast single-steps (guarded, divergent, or
//     outside any run), and the part of a pending range that does not
//     cover its whole run (the shared-store flush, BlockExec::step_fast).
//
// Both are required to be bit-identical to the reference interpreter
// (step_ref), which keeps its own hand-written semantics as the
// independent oracle; the uniform shared load keeps step_fast's alignment
// and bounds contracts. threaded_dispatch_test runs the switch beside a
// trace over every handler, fuzz_differential_test checks every trace
// against step_ref, and the differential suites (fuzz_differential_test,
// fastpath_equivalence_test) compare both executors against the reference
// interpreter.
#pragma once

#include <cstdint>
#include <vector>

#include "vgpu/ir.hpp"

namespace vgpu {

struct DecodedProgram;

/// Dense handler set of the compiled code: the run-eligible opcodes of
/// opclass.hpp (all but the %clock read) plus the warp-uniform shared load
/// of runs, with kMovSpecial split per special register and kSetp per
/// compare domain and second-operand kind, so those selects happen at
/// compile time, not per lane.
enum class THandler : std::uint8_t {
  kFAdd, kFSub, kFMul, kFFma, kFRcp, kFRsqrt, kFNeg, kFAbs, kFMin, kFMax,
  kIAdd, kISub, kIMul, kIMad, kIAddImm, kShl, kShr, kAnd, kOr, kXor,
  kIMin, kIMax, kF2I, kI2F, kMov, kMovImm, kMovParam, kSel,
  kTid, kCtaid, kNtid, kNctaid, kLane, kWarpId, kSmId,
  kSetpU, kSetpUI, kSetpF, kSetpFI, kPAnd, kPOr, kPNot, kLdSharedU,
  kCount
};

inline constexpr std::size_t kTHandlerCount =
    static_cast<std::size_t>(THandler::kCount);

/// One compiled instruction. `dst`/`a`/`b`/`c` are register-file row
/// offsets (slot * 32, ready to add to WarpState::regs), except where a
/// handler reads them as something else: `c` is the predicate source index
/// for kSel and the CmpOp for kSetp*; the predicate writers' `dst` (and
/// kPAnd/kPOr/kPNot's `a`/`b`) are predicate indices; kLdSharedU's `b` is 1
/// when the address has a base register (`a`) and `c` its width in words.
/// Instructions build_threaded does not compile (memory ops but the
/// uniform shared load of a run, control flow, clock reads) hold
/// `h == kTHandlerCount`, which no dispatcher executes.
struct ThreadedOp {
  std::uint32_t dst = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t c = 0;
  std::uint32_t imm = 0;
  /// THandler index
  std::uint32_t h = static_cast<std::uint32_t>(THandler::kCount);
};

/// The compiled stream, parallel to DecodedProgram::instrs. Immutable after
/// build_threaded and safe to share across threads and launches.
struct ThreadedProgram {
  std::vector<ThreadedOp> ops;
};

/// Per-run execution context: everything a handler can read besides the
/// register and predicate files. Parameters are resolved at execution time,
/// never at compile time, so one ThreadedProgram serves launches with
/// different parameter blocks (the decode cache depends on this).
struct ThreadedCtx {
  const std::uint32_t* params = nullptr;
  std::uint32_t block_id = 0;
  std::uint32_t block_threads = 0;
  std::uint32_t grid_blocks = 0;
  std::uint32_t sm_id = 0;
  std::uint32_t warp_index = 0;
  std::uint32_t base_thread = 0;
  std::uint32_t warp_size = 32;
  /// The lanes that execute: the warp's active mask, and for a single
  /// step also its guard. A predicate write is (p & ~active) |
  /// (result & active); exec_op writes registers of these lanes only.
  std::uint32_t active = 0xFFFFFFFFu;
  /// The block's shared memory words, `shared_bytes` long (kLdSharedU).
  const std::uint32_t* shared = nullptr;
  std::uint32_t shared_bytes = 0;
};

/// Compile every decoded instruction the fast path executes through a
/// handler: the members of decoded runs, and every other instruction of a
/// run-eligible opcode but the %clock read.
[[nodiscard]] ThreadedProgram build_threaded(const DecodedProgram& dec);

/// Execute one compiled instruction (`regs` is the warp's lane storage,
/// `preds` its predicate file, `ctx.active` the lanes that execute): the
/// handler's lane loop skips the lanes outside `ctx.active`.
void exec_op(const ThreadedOp& op, std::uint32_t* regs, std::uint32_t* preds,
             const ThreadedCtx& ctx);

}  // namespace vgpu
