#include "vgpu/traces.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "vgpu/check.hpp"
#include "vgpu/decode.hpp"

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
// compose the exact same lane operations the threaded loops expand.
#define X(name, ...)                                                        \
  template <bool kWarp32>                                                   \
  VGPU_TRACE_INLINE void body_##name(                                       \
      const ThreadedOp* op, std::uint32_t* R, const std::uint32_t* preds,   \
      const ThreadedCtx& ctx) {                                             \
    const std::uint32_t lanes = kWarp32 ? 32u : ctx.warp_size;              \
    (void)preds;                                                            \
    (void)ctx;                                                              \
    (void)lanes;                                                            \
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

// Segment dispatch, portable twin: one switch per segment, tight loops
// inside. Always compiled so builds without computed goto (and the
// differential tests on them) run the same specialization.
template <bool kWarp32>
void trace_switch(const TraceSegment* s, const TraceSegment* const send,
                  const ThreadedOp* op, std::uint32_t* R,
                  const std::uint32_t* preds, const ThreadedCtx& ctx) {
  for (; s != send; ++s) {
    switch (s->h) {
#define X(name, ...)                                          \
  case static_cast<std::uint32_t>(THandler::name): {          \
    const ThreadedOp* const e = op + s->count;                \
    do {                                                      \
      body_##name<kWarp32>(op, R, preds, ctx);                \
      ++op;                                                   \
    } while (op != e);                                        \
  } break;
      VGPU_THREADED_HANDLERS(X)
#undef X
#define VGPU_PAIR_CASE(idx, ba, bb)                           \
  case static_cast<std::uint32_t>(kTHandlerCount) + idx: {    \
    for (std::uint32_t n = s->count; n-- != 0;) {             \
      body_##ba<kWarp32>(op, R, preds, ctx);                  \
      ++op;                                                   \
      body_##bb<kWarp32>(op, R, preds, ctx);                  \
      ++op;                                                   \
    }                                                         \
  } break;
      VGPU_PAIR_CASE(0u, kFMul, kFAdd)
      VGPU_PAIR_CASE(1u, kFAdd, kFMul)
      VGPU_PAIR_CASE(2u, kFFma, kFAdd)
      VGPU_PAIR_CASE(3u, kFAdd, kFFma)
      VGPU_PAIR_CASE(4u, kFMul, kFSub)
      VGPU_PAIR_CASE(5u, kFSub, kFMul)
      VGPU_PAIR_CASE(6u, kFFma, kFMul)
      VGPU_PAIR_CASE(7u, kFMul, kFFma)
#undef VGPU_PAIR_CASE
      default:
        VGPU_EXPECTS_MSG(false, "invalid trace segment handler");
    }
  }
}

#if defined(VGPU_HAVE_COMPUTED_GOTO)
// Segment dispatch through a label table: one indirect jump per *segment*
// (not per op), with uniform stretches and fused pairs looping on a direct
// branch in between.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpedantic"
#if defined(__clang__)
#pragma GCC diagnostic ignored "-Wgnu-label-as-value"
#endif
template <bool kWarp32>
void trace_goto(const TraceSegment* s, const TraceSegment* const send,
                const ThreadedOp* op, std::uint32_t* R,
                const std::uint32_t* preds, const ThreadedCtx& ctx) {
#define X(name, ...) &&L_##name,
  static const void* const labels[] = {
      VGPU_THREADED_HANDLERS(X) &&P_MulAdd, &&P_AddMul, &&P_FmaAdd,
      &&P_AddFma, &&P_MulSub,   &&P_SubMul, &&P_FmaMul, &&P_MulFma};
#undef X
  goto* labels[s->h];
#define X(name, ...)                                \
  L_##name : {                                      \
    const ThreadedOp* const e = op + s->count;      \
    do {                                            \
      body_##name<kWarp32>(op, R, preds, ctx);      \
      ++op;                                         \
    } while (op != e);                              \
  }                                                 \
  if (++s == send) return;                          \
  goto* labels[s->h];
  VGPU_THREADED_HANDLERS(X)
#undef X
#define VGPU_PAIR_LABEL(label, ba, bb)              \
  label : {                                         \
    for (std::uint32_t n = s->count; n-- != 0;) {   \
      body_##ba<kWarp32>(op, R, preds, ctx);        \
      ++op;                                         \
      body_##bb<kWarp32>(op, R, preds, ctx);        \
      ++op;                                         \
    }                                               \
  }                                                 \
  if (++s == send) return;                          \
  goto* labels[s->h];
  VGPU_PAIR_LABEL(P_MulAdd, kFMul, kFAdd)
  VGPU_PAIR_LABEL(P_AddMul, kFAdd, kFMul)
  VGPU_PAIR_LABEL(P_FmaAdd, kFFma, kFAdd)
  VGPU_PAIR_LABEL(P_AddFma, kFAdd, kFFma)
  VGPU_PAIR_LABEL(P_MulSub, kFMul, kFSub)
  VGPU_PAIR_LABEL(P_SubMul, kFSub, kFMul)
  VGPU_PAIR_LABEL(P_FmaMul, kFFma, kFMul)
  VGPU_PAIR_LABEL(P_MulFma, kFMul, kFFma)
#undef VGPU_PAIR_LABEL
}
#pragma GCC diagnostic pop
#endif  // VGPU_HAVE_COMPUTED_GOTO

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
      if (run.len < 2) continue;
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
                std::uint32_t* regs, const std::uint32_t* preds,
                const ThreadedCtx& ctx) {
  const Trace& tr = tp.traces[trace];
  const TraceSegment* const s = tp.segs.data() + tr.seg_begin;
  const TraceSegment* const send = s + tr.seg_count;
  const ThreadedOp* const op = tp.ops.data() + tr.op_begin;
#if defined(VGPU_HAVE_COMPUTED_GOTO)
  if (ctx.warp_size == 32) {
    trace_goto<true>(s, send, op, regs, preds, ctx);
  } else {
    trace_goto<false>(s, send, op, regs, preds, ctx);
  }
#else
  if (ctx.warp_size == 32) {
    trace_switch<true>(s, send, op, regs, preds, ctx);
  } else {
    trace_switch<false>(s, send, op, regs, preds, ctx);
  }
#endif
}

}  // namespace vgpu
