// traces.hpp - superblock traces: shape-specialized compilation of decoded
// straight-line runs.
//
// The threaded backend (threaded.hpp) already collapses per-instruction
// interpretation to one indirect jump per op. This layer removes most of
// those jumps too: at compile time every maximal converged run is flattened
// into a *trace* - its ThreadedOps copied into one contiguous arena and
// partitioned into segments the dispatcher can execute as a whole:
//
//   * uniform segments - N consecutive ops sharing one handler run as a
//     single tight loop (one dispatch for the whole stretch);
//   * pair segments - the FMA-chain idiom (alternating mul/add, fma/add,
//     mul/sub pairs of the force kernels) fuses both handler bodies into
//     one dispatch per pair, halving the jump count of the chain;
//   * everything else falls back to one dispatch per op, exactly like the
//     threaded loop.
//
// Handler bodies are the VGPU_THREADED_HANDLERS expansions (threaded.cpp)
// verbatim - a trace performs the same lane operations in the same order as
// exec_threaded, so trace dispatch is bit-identical by construction, and
// the differential suites check the functional executor, which dispatches
// every trace, against the reference interpreter.
//
// Traces exist only at run *heads* - the only place BlockExec::step_run
// enters a run, since a warp's mask cannot change inside one - and only
// runs of length >= 2 get one; single-instruction runs go through the
// threaded loop.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "vgpu/threaded.hpp"

namespace vgpu {

struct DecodedProgram;

/// Sentinel for "no trace compiled at this instruction".
inline constexpr std::uint32_t kNoTrace =
    std::numeric_limits<std::uint32_t>::max();

/// One dispatch unit of a trace: `count` repetitions of handler `h`. Plain
/// handlers (`h < kTHandlerCount`) cover `count` ops; pair handlers
/// (synthetic ids >= kTHandlerCount, see traces.cpp) cover `2 * count` ops.
struct TraceSegment {
  std::uint32_t h = 0;
  std::uint32_t count = 0;
};

/// Dominant trace shapes, recorded for reporting (docs/performance.md);
/// dispatch specialization happens per segment, so mixed traces still get
/// their uniform and pair stretches fused.
enum class TraceShape : std::uint8_t {
  kUniform,   ///< one handler for the whole run (all-ALU single-op loops)
  kFmaChain,  ///< float mul/add/sub/fma only (the force-accumulation bodies)
  kGeneric,
};

/// One compiled superblock trace (a full maximal run).
struct Trace {
  std::uint32_t op_begin = 0;   ///< first op in TraceProgram::ops
  std::uint32_t seg_begin = 0;  ///< first segment in TraceProgram::segs
  std::uint32_t seg_count = 0;
  std::uint32_t len = 0;  ///< ops covered (== DecodedRun::len at the head)
  TraceShape shape = TraceShape::kGeneric;
};

/// Compiled traces of a program. Immutable after build_traces and safe to
/// share across threads and launches (cached in progcache beside the
/// ThreadedProgram it was built from).
struct TraceProgram {
  std::vector<ThreadedOp> ops;  ///< contiguous per-trace operand arena
  std::vector<TraceSegment> segs;
  std::vector<Trace> traces;
  /// Parallel to DecodedProgram::instrs: trace id at run heads, kNoTrace
  /// everywhere else.
  std::vector<std::uint32_t> trace_at;
};

/// Compile every maximal run of length >= 2 into a trace. `tp` must be
/// `build_threaded(dec)` for the same decoded program.
[[nodiscard]] TraceProgram build_traces(const DecodedProgram& dec,
                                        const ThreadedProgram& tp);

/// Execute trace `trace` on a fully converged warp. Same contract as
/// exec_threaded for the run the trace was compiled from, and bit-identical
/// to it in every architectural effect.
void exec_trace(const TraceProgram& tp, std::uint32_t trace,
                std::uint32_t* regs, const std::uint32_t* preds,
                const ThreadedCtx& ctx);

}  // namespace vgpu
