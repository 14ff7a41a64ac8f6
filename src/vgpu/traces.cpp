#include "vgpu/traces.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "vgpu/check.hpp"
#include "vgpu/decode.hpp"
#include "vgpu/opclass.hpp"

namespace vgpu {

namespace {

[[nodiscard]] float as_f32(std::uint32_t v) { return std::bit_cast<float>(v); }
[[nodiscard]] std::uint32_t as_u32(float v) {
  return std::bit_cast<std::uint32_t>(v);
}

#include "vgpu/threaded_handlers.inc"

#if defined(__GNUC__)
#define VGPU_TRACE_INLINE [[gnu::always_inline]] inline
#else
#define VGPU_TRACE_INLINE inline
#endif

// One inlinable function per handler body, so segment loops and pair fusions
// compose the exact same lane operations the per-instruction switch
// (threaded.cpp) expands. A trace runs on a converged warp, so its lane
// loops are the plain, unmasked ones.
#define X(name, ...)                                                        \
  template <bool kWarp32>                                                   \
  VGPU_TRACE_INLINE void body_##name(                                       \
      const ThreadedOp* op, std::uint32_t* R, std::uint32_t* preds,         \
      const ThreadedCtx& ctx) {                                             \
    const std::uint32_t lanes = kWarp32 ? 32u : ctx.warp_size;              \
    constexpr bool kMasked = false;                                         \
    (void)R;                                                                \
    (void)preds;                                                            \
    (void)ctx;                                                              \
    (void)lanes;                                                            \
    (void)kMasked;                                                          \
    __VA_ARGS__                                                             \
  }
VGPU_THREADED_HANDLERS(X)
#undef X

// Synthetic segment handlers for the FMA-chain idiom: alternating float
// mul/add/sub/fma pairs fuse into one dispatch per pair. Ids extend the
// plain THandler space; kPairs is indexed by `h - kTHandlerCount` and its
// order must match the pair label/case tables below.
struct PairDef {
  THandler a;
  THandler b;
};
inline constexpr PairDef kPairs[] = {
    {THandler::kFMul, THandler::kFAdd}, {THandler::kFAdd, THandler::kFMul},
    {THandler::kFFma, THandler::kFAdd}, {THandler::kFAdd, THandler::kFFma},
    {THandler::kFMul, THandler::kFSub}, {THandler::kFSub, THandler::kFMul},
    {THandler::kFFma, THandler::kFMul}, {THandler::kFMul, THandler::kFFma},
};
inline constexpr std::uint32_t kNumPairs =
    static_cast<std::uint32_t>(std::size(kPairs));

[[nodiscard]] std::uint32_t pair_handler(std::uint32_t a, std::uint32_t b) {
  for (std::uint32_t p = 0; p < kNumPairs; ++p) {
    if (static_cast<std::uint32_t>(kPairs[p].a) == a &&
        static_cast<std::uint32_t>(kPairs[p].b) == b) {
      return static_cast<std::uint32_t>(kTHandlerCount) + p;
    }
  }
  return kNoTrace;
}

// The dispatchers, compiled twice from one text (trace_dispatch.inc): a
// baseline copy, and on x86-64 an AVX2 copy whose lane loops run eight
// lanes per instruction instead of SSE2's four. The copy is a function
// attribute, not a file built with -mavx2: such a file would also emit its
// weak inline functions (contract_fail, std::to_string, ...) with VEX
// encodings, and the linker may keep that copy for baseline callers. No
// FMA: "avx2" alone, and -ffp-contract=off for the target, keep ffma's two
// roundings (step_ref's) in both copies.
namespace baseline {
#define VGPU_TRACE_TARGET
#include "vgpu/trace_dispatch.inc"
#undef VGPU_TRACE_TARGET
}  // namespace baseline

#if defined(__x86_64__) && defined(__GNUC__)
#define VGPU_TRACE_AVX2 1
namespace avx2 {
#define VGPU_TRACE_TARGET [[gnu::target("avx2")]]
#include "vgpu/trace_dispatch.inc"
#undef VGPU_TRACE_TARGET
}  // namespace avx2
#endif

/// True when exec_trace runs the AVX2 copy: decided once per process (a
/// function-local static, so thread-safe from the timing workers).
/// __builtin_cpu_supports also checks that the OS saves the YMM state.
[[nodiscard]] bool host_runs_avx2() {
#if defined(VGPU_TRACE_AVX2)
  static const bool avx2_host = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return avx2_host;
#else
  return false;
#endif
}

/// Float-arithmetic handlers: a trace made only of these is an FMA chain.
[[nodiscard]] bool is_float_arith(std::uint32_t h) {
  switch (static_cast<THandler>(h)) {
    case THandler::kFAdd:
    case THandler::kFSub:
    case THandler::kFMul:
    case THandler::kFFma:
      return true;
    default:
      return false;
  }
}

}  // namespace

TraceProgram build_traces(const DecodedProgram& dec,
                          const ThreadedProgram& tp) {
  VGPU_EXPECTS_MSG(tp.ops.size() == dec.instrs.size(),
                   "threaded program does not match the decoded program");
  TraceProgram out;
  out.trace_at.assign(dec.instrs.size(), kNoTrace);

  for (std::size_t b = 0; b < dec.block_start.size(); ++b) {
    const std::size_t begin = dec.block_start[b];
    const std::size_t end = b + 1 < dec.block_start.size()
                                ? dec.block_start[b + 1]
                                : dec.instrs.size();
    for (std::size_t i = begin; i < end; ++i) {
      const DecodedRun& run = dec.runs[i];
      if (run.len == 0) continue;
      // Heads only: a position mid-run (its predecessor continues a run)
      // is never where step_run enters a run.
      if (i != begin && dec.runs[i - 1].len != 0) continue;

      Trace tr;
      tr.op_begin = static_cast<std::uint32_t>(out.ops.size());
      tr.seg_begin = static_cast<std::uint32_t>(out.segs.size());
      tr.len = run.len;
      out.ops.insert(out.ops.end(), tp.ops.begin() + static_cast<std::ptrdiff_t>(i),
                     tp.ops.begin() + static_cast<std::ptrdiff_t>(i + run.len));

      // Segment the handler sequence: maximal uniform stretches first, then
      // alternating pairs from the fusion table, one-op segments otherwise.
      const ThreadedOp* const ops = out.ops.data() + tr.op_begin;
      std::uint32_t j = 0;
      bool fma_chain = true;
      while (j < run.len) {
        const std::uint32_t h = ops[j].h;
        fma_chain = fma_chain && is_float_arith(h);
        std::uint32_t k = j + 1;
        while (k < run.len && ops[k].h == h) ++k;
        if (k - j >= 2) {
          out.segs.push_back(TraceSegment{h, k - j});
          j = k;
          continue;
        }
        if (j + 1 < run.len) {
          const std::uint32_t ph = pair_handler(h, ops[j + 1].h);
          if (ph != kNoTrace) {
            std::uint32_t pairs = 1;
            while (j + 2 * pairs + 1 < run.len &&
                   ops[j + 2 * pairs].h == h &&
                   ops[j + 2 * pairs + 1].h == ops[j + 1].h) {
              ++pairs;
            }
            out.segs.push_back(TraceSegment{ph, pairs});
            j += 2 * pairs;
            continue;
          }
        }
        out.segs.push_back(TraceSegment{h, 1});
        ++j;
      }
      tr.seg_count = static_cast<std::uint32_t>(out.segs.size()) - tr.seg_begin;

      tr.shape = tr.seg_count == 1 &&
                         out.segs[tr.seg_begin].h < kTHandlerCount
                     ? TraceShape::kUniform
                 : fma_chain ? TraceShape::kFmaChain
                             : TraceShape::kGeneric;
      out.trace_at[i] = static_cast<std::uint32_t>(out.traces.size());
      out.traces.push_back(tr);
    }
  }
  return out;
}

void exec_trace(const TraceProgram& tp, std::uint32_t trace,
                std::uint32_t* regs, std::uint32_t* preds,
                const ThreadedCtx& ctx) {
  const Trace& tr = tp.traces[trace];
  const TraceSegment* const s = tp.segs.data() + tr.seg_begin;
  const ThreadedOp* const op = tp.ops.data() + tr.op_begin;
#if defined(VGPU_TRACE_AVX2)
  if (host_runs_avx2()) {
    avx2::run_segments(s, s + tr.seg_count, op, regs, preds, ctx);
    return;
  }
#endif
  baseline::run_segments(s, s + tr.seg_count, op, regs, preds, ctx);
}

void exec_trace_baseline(const TraceProgram& tp, std::uint32_t trace,
                         std::uint32_t* regs, std::uint32_t* preds,
                         const ThreadedCtx& ctx) {
  const Trace& tr = tp.traces[trace];
  const TraceSegment* const s = tp.segs.data() + tr.seg_begin;
  baseline::run_segments(s, s + tr.seg_count, tp.ops.data() + tr.op_begin,
                         regs, preds, ctx);
}

const char* trace_dispatch_isa() {
  return host_runs_avx2() ? "avx2" : "baseline";
}

}  // namespace vgpu
