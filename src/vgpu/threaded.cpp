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
// expanded into the switch here plus the superblock trace dispatcher
// (traces.cpp). A body may read `op` (the current ThreadedOp), `R` (lane
// storage), `preds` (the predicate file, which the predicate writers also
// write), `ctx`, the lane count `lanes` (a compile-time 32 on the
// warp-size-32 instantiation, which is what lets the compiler
// unroll/vectorize the lane loops) and `kMasked` (compile time: skip the
// lanes outside `ctx.active`; always set here, never in a trace).
#include "vgpu/threaded_handlers.inc"

template <bool kWarp32>
void handler_switch(const ThreadedOp* op, std::uint32_t* R,
                    std::uint32_t* preds, const ThreadedCtx& ctx) {
  constexpr bool kMasked = true;
  const std::uint32_t lanes = kWarp32 ? 32u : ctx.warp_size;
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

}  // namespace

ThreadedProgram build_threaded(const DecodedProgram& dec) {
  ThreadedProgram tp;
  tp.ops.assign(dec.instrs.size(), ThreadedOp{});
  const auto row_of = [](std::uint32_t slot) {
    return slot == kNoSlot ? 0u : slot * 32u;
  };
  for (std::size_t i = 0; i < dec.instrs.size(); ++i) {
    const DecodedInstr& d = dec.instrs[i];
    // Memory ops, control flow and clock reads are step_fast's own cases;
    // a shared load compiles only as a run member (decode() proved its
    // address warp-uniform).
    const bool compiled = d.op == Opcode::kLdShared
                              ? dec.runs[i].len != 0
                              : op_traits(d.op).run_eligible && !reads_clock(d);
    if (!compiled) continue;
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
          case Special::kClock: break;  // step_fast's own case
        }
        break;
      default:
        break;
    }
    VGPU_EXPECTS_MSG(h != THandler::kCount, "unmapped threaded handler");
    op.h = static_cast<std::uint32_t>(h);
  }
  return tp;
}

void exec_op(const ThreadedOp& op, std::uint32_t* regs, std::uint32_t* preds,
             const ThreadedCtx& ctx) {
  if (ctx.warp_size == 32) {
    handler_switch<true>(&op, regs, preds, ctx);
  } else {
    handler_switch<false>(&op, regs, preds, ctx);
  }
}

}  // namespace vgpu
