// threaded.hpp - threaded-code execution of decoded straight-line runs.
//
// Both executors' fast paths execute each converged straight-line run in
// one dispatch: the functional executor through BlockExec::step_run, the
// timing executor through the pending range of instructions it issued for
// timing only (BlockExec::issue_timing_only). Instead of looping the
// per-instruction `switch (d.op)` of exec_alu over the run, this backend
// compiles each batchable decoded instruction once per program into a
// ThreadedOp - a dense handler index plus operand row offsets premultiplied
// for lane storage - and executes whole runs through a computed-goto
// dispatch loop (GCC/Clang `&&label` token threading), falling back to a
// portable dense-switch loop when the extension is unavailable
// (configure-time: the build defines VGPU_HAVE_COMPUTED_GOTO when the
// probe in src/vgpu/CMakeLists.txt compiles; GCM_PORTABLE_DISPATCH=ON
// forces the fallback).
//
// Both dispatch loops are required to be bit-identical to step_fast, which
// still single-steps the same opcodes for divergent warps and guarded
// instructions; the ALU and predicate handler bodies are the exact
// expressions of the corresponding exec_alu cases, and the uniform shared
// load keeps step_fast's alignment and bounds contracts. These loops run
// single-instruction runs and the partial ranges of the shared-store flush
// only - every longer run executes through its superblock trace
// (traces.hpp) - and are compiled for the baseline instruction set alone;
// the trace dispatcher also has an AVX2 copy.
// threaded_dispatch_test runs the two loops side by side over every
// handler, and the differential suites (fuzz_differential_test,
// fastpath_equivalence_test) compare both executors, which run them,
// against the reference interpreter.
#pragma once

#include <cstdint>
#include <vector>

#include "vgpu/ir.hpp"

namespace vgpu {

struct DecodedProgram;

/// Dense handler set of the threaded executor: exactly the run members
/// (decode.hpp, DecodedRun) - the run-eligible opcodes of opclass.hpp plus
/// the warp-uniform shared load - with kMovSpecial split per special
/// register and kSetp per compare domain and second-operand kind, so those
/// selects happen at compile time, not per lane.
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
/// Only positions inside a decoded run hold a valid entry.
struct ThreadedOp {
  std::uint32_t dst = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t c = 0;
  std::uint32_t imm = 0;
  std::uint32_t h = 0;  ///< THandler index
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
  /// The warp's active mask: a predicate write is (p & ~active) |
  /// (result & active), exec_alu's write for a converged warp.
  std::uint32_t active = 0xFFFFFFFFu;
  /// The block's shared memory words, `shared_bytes` long (kLdSharedU).
  const std::uint32_t* shared = nullptr;
  std::uint32_t shared_bytes = 0;
};

/// Compile the batchable instructions of a decoded program. Entries outside
/// runs are left defaulted and must never be executed.
[[nodiscard]] ThreadedProgram build_threaded(const DecodedProgram& dec);

/// Execute `n` compiled instructions on a fully converged warp (`regs` is
/// the warp's lane storage, `preds` its predicate file: run members write
/// both, and read shared memory through `ctx`). Dispatches through
/// computed goto when the build has it, else through the portable loop.
void exec_threaded(const ThreadedOp* ops, std::uint32_t n,
                   std::uint32_t* regs, std::uint32_t* preds,
                   const ThreadedCtx& ctx);

/// The portable dense-switch twin, always compiled so the fallback is
/// differential-tested even on builds that default to computed goto.
void exec_threaded_portable(const ThreadedOp* ops, std::uint32_t n,
                            std::uint32_t* regs, std::uint32_t* preds,
                            const ThreadedCtx& ctx);

/// "computed-goto" or "switch": what exec_threaded dispatches through in
/// this build (benchmark/doc reporting).
[[nodiscard]] const char* threaded_dispatch_kind();

}  // namespace vgpu
