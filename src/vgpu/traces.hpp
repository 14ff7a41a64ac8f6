// traces.hpp - superblock traces: shape-specialized compilation of decoded
// straight-line runs.
//
// Every whole run a converged warp executes goes through its trace. At
// compile time every maximal run - a single instruction included - is
// flattened into a *trace*: its ThreadedOps (threaded.hpp) copied into one
// contiguous arena and partitioned into segments the dispatcher can execute
// as a whole:
//
//   * uniform segments - N consecutive ops sharing one handler run as a
//     single tight loop (one dispatch for the whole stretch);
//   * pair segments - the FMA-chain idiom (alternating mul/add, fma/add,
//     mul/sub pairs of the force kernels) fuses both handler bodies into
//     one dispatch per pair, halving the jump count of the chain;
//   * everything else is one dispatch per op.
//
// Handler bodies are the VGPU_THREADED_HANDLERS expansions verbatim, the
// text the per-instruction switch (exec_op) expands too - a trace performs
// the same register writes, predicate writes and warp-uniform shared reads
// in the same order as exec_op over its run, so the two are bit-identical
// by construction; FuzzSeed.SpecializedMatchesPlain checks every trace of
// its programs against the reference interpreter, and the differential
// suites check both executors, which dispatch every trace, against it too.
// The dispatcher is the one code path compiled twice: a baseline copy and,
// on x86-64, an AVX2 copy (eight lanes per vector instruction, no FMA) that
// exec_trace selects on hosts that have it; the tests run both copies
// (exec_trace_baseline).
//
// Traces exist only at run *heads* - the only place a converged warp enters
// a run, since a warp's mask cannot change inside one: BlockExec::step_run
// starts there (again on every iteration of a loop it continues across a
// back-edge), and a timing-only pending range normally starts there. A
// pending range that does not cover its whole run (cut by a shared store of
// another warp, BlockExec::step_fast, or resumed after such a cut) executes
// one instruction at a time through exec_op instead.
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

/// Compile every maximal run into a trace. `tp` must be
/// `build_threaded(dec)` for the same decoded program.
[[nodiscard]] TraceProgram build_traces(const DecodedProgram& dec,
                                        const ThreadedProgram& tp);

/// Execute trace `trace` on a fully converged warp (`regs` is the warp's
/// lane storage, `preds` its predicate file: run members write both, and
/// read shared memory through `ctx`). Bit-identical in every architectural
/// effect to exec_op over the run the trace was compiled from. On x86-64
/// the dispatcher exists in two instruction-set copies compiled from one
/// text - baseline and AVX2, eight lanes per vector instruction - and the
/// process picks one at its first call: AVX2 where the host supports it
/// (trace_dispatch_isa()).
void exec_trace(const TraceProgram& tp, std::uint32_t trace,
                std::uint32_t* regs, std::uint32_t* preds,
                const ThreadedCtx& ctx);

/// The baseline copy of exec_trace, whatever the host supports, so the
/// differential tests run it on AVX2 hosts too.
void exec_trace_baseline(const TraceProgram& tp, std::uint32_t trace,
                         std::uint32_t* regs, std::uint32_t* preds,
                         const ThreadedCtx& ctx);

/// "avx2" or "baseline": the copy exec_trace runs in this process.
[[nodiscard]] const char* trace_dispatch_isa();

}  // namespace vgpu
