#include "vgpu/threaded.hpp"

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

// Every handler body, written exactly once (threaded_handlers.inc) and
// expanded into both dispatch loops here (computed goto and portable
// switch) plus the superblock trace dispatcher (traces.cpp). The bodies are
// the expressions of the corresponding exec_alu cases in interp.cpp
// verbatim, and the uniform shared load keeps step_fast's contracts - the
// differential suites hold every loop bit-identical. A body may read `op`
// (the current ThreadedOp), `R` (lane storage), `preds` (the predicate
// file, which the predicate writers also write), `ctx`, and the lane count
// `lanes` (a compile-time 32 on the warp-size-32 instantiation, which is
// what lets the compiler unroll/vectorize the lane loops).
#include "vgpu/threaded_handlers.inc"

// Portable fallback: one dense switch over the handler index per
// instruction. Still much faster than exec_alu - operands are pre-resolved
// rows and the switch is over a dense handler index, not the sparse opcode
// space with per-case slot arithmetic.
template <bool kWarp32>
void exec_switch(const ThreadedOp* ops, std::uint32_t n, std::uint32_t* R,
                 std::uint32_t* preds, const ThreadedCtx& ctx) {
  const std::uint32_t lanes = kWarp32 ? 32u : ctx.warp_size;
  const ThreadedOp* const end = ops + n;
  for (const ThreadedOp* op = ops; op != end; ++op) {
    switch (static_cast<THandler>(op->h)) {
#define X(name, ...)      \
  case THandler::name: {  \
    __VA_ARGS__           \
  } break;
      VGPU_THREADED_HANDLERS(X)
#undef X
      default:
        VGPU_EXPECTS_MSG(false, "invalid threaded handler index");
    }
  }
}

#if defined(VGPU_HAVE_COMPUTED_GOTO)
// Token-threaded dispatch: each handler jumps straight to the next
// instruction's handler through a label table (GNU address-of-label), so
// the dispatch is one indexed indirect jump per instruction - no bounds
// check, no shared branch target for the predictor to serialize on.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpedantic"
#if defined(__clang__)
#pragma GCC diagnostic ignored "-Wgnu-label-as-value"
#endif
template <bool kWarp32>
void exec_goto(const ThreadedOp* ops, std::uint32_t n, std::uint32_t* R,
               std::uint32_t* preds, const ThreadedCtx& ctx) {
  const std::uint32_t lanes = kWarp32 ? 32u : ctx.warp_size;
#define X(name, ...) &&L_##name,
  static const void* const labels[] = {VGPU_THREADED_HANDLERS(X)};
#undef X
  const ThreadedOp* op = ops;
  const ThreadedOp* const end = ops + n;
  goto* labels[op->h];
#define X(name, ...)        \
  L_##name : {              \
    __VA_ARGS__             \
  }                         \
  if (++op == end) return;  \
  goto* labels[op->h];
  VGPU_THREADED_HANDLERS(X)
#undef X
}
#pragma GCC diagnostic pop
#endif  // VGPU_HAVE_COMPUTED_GOTO

}  // namespace

ThreadedProgram build_threaded(const DecodedProgram& dec) {
  ThreadedProgram tp;
  tp.ops.assign(dec.instrs.size(), ThreadedOp{});
  const auto row_of = [](std::uint32_t slot) {
    return slot == kNoSlot ? 0u : slot * 32u;
  };
  for (std::size_t i = 0; i < dec.instrs.size(); ++i) {
    if (dec.runs[i].len == 0) continue;  // never executed by step_run
    const DecodedInstr& d = dec.instrs[i];
    ThreadedOp& op = tp.ops[i];
    op.dst = row_of(d.dst_slot);
    op.a = row_of(d.src_slot[0]);
    op.b = row_of(d.src_slot[1]);
    op.c = row_of(d.src_slot[2]);
    op.imm = d.imm;
    THandler h = THandler::kCount;
    switch (d.op) {
      case Opcode::kFAdd: h = THandler::kFAdd; break;
      case Opcode::kFSub: h = THandler::kFSub; break;
      case Opcode::kFMul: h = THandler::kFMul; break;
      case Opcode::kFFma: h = THandler::kFFma; break;
      case Opcode::kFRcp: h = THandler::kFRcp; break;
      case Opcode::kFRsqrt: h = THandler::kFRsqrt; break;
      case Opcode::kFNeg: h = THandler::kFNeg; break;
      case Opcode::kFAbs: h = THandler::kFAbs; break;
      case Opcode::kFMin: h = THandler::kFMin; break;
      case Opcode::kFMax: h = THandler::kFMax; break;
      case Opcode::kIAdd: h = THandler::kIAdd; break;
      case Opcode::kISub: h = THandler::kISub; break;
      case Opcode::kIMul: h = THandler::kIMul; break;
      case Opcode::kIMad: h = THandler::kIMad; break;
      case Opcode::kIAddImm: h = THandler::kIAddImm; break;
      case Opcode::kShl: h = THandler::kShl; break;
      case Opcode::kShr: h = THandler::kShr; break;
      case Opcode::kAnd: h = THandler::kAnd; break;
      case Opcode::kOr: h = THandler::kOr; break;
      case Opcode::kXor: h = THandler::kXor; break;
      case Opcode::kIMin: h = THandler::kIMin; break;
      case Opcode::kIMax: h = THandler::kIMax; break;
      case Opcode::kF2I: h = THandler::kF2I; break;
      case Opcode::kI2F: h = THandler::kI2F; break;
      case Opcode::kMov: h = THandler::kMov; break;
      case Opcode::kMovImm: h = THandler::kMovImm; break;
      case Opcode::kMovParam: h = THandler::kMovParam; break;
      case Opcode::kSel:
        h = THandler::kSel;
        op.c = d.psrc0;  // predicate index, not a register row
        break;
      case Opcode::kSetp:
        // The predicate index and the compare, not register rows.
        h = d.cmp_is_float ? (d.src_slot[1] != kNoSlot ? THandler::kSetpF
                                                       : THandler::kSetpFI)
                           : (d.src_slot[1] != kNoSlot ? THandler::kSetpU
                                                       : THandler::kSetpUI);
        op.dst = d.pdst;
        op.c = static_cast<std::uint32_t>(d.cmp);
        break;
      case Opcode::kPAnd:
      case Opcode::kPOr:
      case Opcode::kPNot:
        h = d.op == Opcode::kPAnd  ? THandler::kPAnd
            : d.op == Opcode::kPOr ? THandler::kPOr
                                   : THandler::kPNot;
        op.dst = d.pdst;  // predicate indices, not register rows
        op.a = d.psrc0;
        op.b = d.op == Opcode::kPNot ? 0u : d.psrc1;
        break;
      case Opcode::kLdShared:
        // decode() admits a shared load to a run only with a warp-uniform
        // address (or none: an absolute immediate).
        h = THandler::kLdSharedU;
        op.b = d.src_slot[0] != kNoSlot ? 1u : 0u;
        op.c = d.width_words;
        break;
      case Opcode::kMovSpecial:
        switch (static_cast<Special>(d.imm)) {
          case Special::kTid: h = THandler::kTid; break;
          case Special::kCtaid: h = THandler::kCtaid; break;
          case Special::kNtid: h = THandler::kNtid; break;
          case Special::kNctaid: h = THandler::kNctaid; break;
          case Special::kLane: h = THandler::kLane; break;
          case Special::kWarpId: h = THandler::kWarpId; break;
          case Special::kSmId: h = THandler::kSmId; break;
          case Special::kClock:
            VGPU_EXPECTS_MSG(false, "%clock special inside a run");
            break;
        }
        break;
      default:
        VGPU_EXPECTS_MSG(false, "non-batchable instruction inside a run");
    }
    VGPU_EXPECTS_MSG(h != THandler::kCount, "unmapped threaded handler");
    op.h = static_cast<std::uint32_t>(h);
  }
  return tp;
}

void exec_threaded(const ThreadedOp* ops, std::uint32_t n, std::uint32_t* regs,
                   std::uint32_t* preds, const ThreadedCtx& ctx) {
  if (n == 0) return;
#if defined(VGPU_HAVE_COMPUTED_GOTO)
  if (ctx.warp_size == 32) {
    exec_goto<true>(ops, n, regs, preds, ctx);
  } else {
    exec_goto<false>(ops, n, regs, preds, ctx);
  }
#else
  exec_threaded_portable(ops, n, regs, preds, ctx);
#endif
}

void exec_threaded_portable(const ThreadedOp* ops, std::uint32_t n,
                            std::uint32_t* regs, std::uint32_t* preds,
                            const ThreadedCtx& ctx) {
  if (n == 0) return;
  if (ctx.warp_size == 32) {
    exec_switch<true>(ops, n, regs, preds, ctx);
  } else {
    exec_switch<false>(ops, n, regs, preds, ctx);
  }
}

const char* threaded_dispatch_kind() {
#if defined(VGPU_HAVE_COMPUTED_GOTO)
  return "computed-goto";
#else
  return "switch";
#endif
}

}  // namespace vgpu
