// Threaded-code dispatch backend and decode cache.
//
// Three concerns, each pinned independently of the implementation:
//
//  1. The shared opcode table (opclass.hpp) - every column is compared
//     against an oracle written directly from the ISA definition, so the
//     table cannot silently drift when an opcode is added.
//  2. The two dispatch loops - computed goto and the portable switch - are
//     executed side by side over an op stream covering every THandler and
//     must agree bit for bit (and, for the simple handlers, match values
//     computed longhand here).
//  3. The decode cache (progcache.hpp) - hit/miss counters, structural
//     keying, correctness across parameter changes, and private
//     compilation.
//
// The executor-level differentials of the functional fast path, which
// dispatches runs through these loops, against the reference interpreter
// live in fuzz_differential_test.cpp and fastpath_equivalence_test.cpp.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "gravit/kernels.hpp"
#include "vgpu/builder.hpp"
#include "vgpu/decode.hpp"
#include "vgpu/device.hpp"
#include "vgpu/opclass.hpp"
#include "vgpu/opt.hpp"
#include "vgpu/progcache.hpp"
#include "vgpu/regalloc.hpp"
#include "vgpu/threaded.hpp"

namespace vgpu {
namespace {

// ---------------------------------------------------------------------------
// 1. opclass table parity
// ---------------------------------------------------------------------------

/// Oracle for InstrClass, written straight from the ISA comment block in
/// ir.hpp - intentionally a second, independent switch.
InstrClass oracle_class(Opcode op) {
  switch (op) {
    case Opcode::kFAdd: case Opcode::kFSub: case Opcode::kFMul:
    case Opcode::kFFma: case Opcode::kFRcp: case Opcode::kFRsqrt:
    case Opcode::kFNeg: case Opcode::kFAbs: case Opcode::kFMin:
    case Opcode::kFMax: case Opcode::kI2F:
      return InstrClass::kFloatAlu;
    case Opcode::kIAdd: case Opcode::kISub: case Opcode::kIMul:
    case Opcode::kIMad: case Opcode::kIAddImm: case Opcode::kShl:
    case Opcode::kShr: case Opcode::kAnd: case Opcode::kOr:
    case Opcode::kXor: case Opcode::kIMin: case Opcode::kIMax:
    case Opcode::kF2I:
      return InstrClass::kIntAlu;
    case Opcode::kLdGlobal: case Opcode::kStGlobal:
    case Opcode::kLdTex: case Opcode::kLdLocal: case Opcode::kStLocal:
      return InstrClass::kGlobalMemory;
    case Opcode::kLdShared: case Opcode::kStShared:
      return InstrClass::kSharedMemory;
    case Opcode::kSetp: case Opcode::kPAnd: case Opcode::kPOr:
    case Opcode::kPNot: case Opcode::kBra: case Opcode::kBraCond:
    case Opcode::kExit: case Opcode::kBar:
      return InstrClass::kControl;
    case Opcode::kMov: case Opcode::kMovImm: case Opcode::kMovSpecial:
    case Opcode::kMovParam: case Opcode::kSel: case Opcode::kLdConst:
    case Opcode::kClock:
      return InstrClass::kOther;
  }
  ADD_FAILURE() << "opcode missing from oracle_class";
  return InstrClass::kOther;
}

/// Oracle for StepResult::Kind: the memory space the step touches, exit and
/// barrier distinguished, everything else an ALU step.
StepResult::Kind oracle_kind(Opcode op) {
  switch (op) {
    case Opcode::kLdGlobal: case Opcode::kStGlobal:
      return StepResult::Kind::kGlobal;
    case Opcode::kLdShared: case Opcode::kStShared:
      return StepResult::Kind::kShared;
    case Opcode::kLdConst: return StepResult::Kind::kConst;
    case Opcode::kLdTex: return StepResult::Kind::kTex;
    case Opcode::kLdLocal: case Opcode::kStLocal:
      return StepResult::Kind::kLocal;
    case Opcode::kExit: return StepResult::Kind::kExit;
    case Opcode::kBar: return StepResult::Kind::kBarrier;
    default: return StepResult::Kind::kAlu;
  }
}

/// Oracle for opcode-level run eligibility: register ALU only - nothing
/// that touches memory, control flow, predicates, or the cycle counter.
bool oracle_run_eligible(const Instruction& in) {
  return !in.is_memory() && !in.is_terminator() && in.op != Opcode::kBar &&
         in.op != Opcode::kSetp && in.op != Opcode::kPAnd &&
         in.op != Opcode::kPOr && in.op != Opcode::kPNot &&
         in.op != Opcode::kClock;
}

TEST(OpClassTable, EveryColumnMatchesOracle) {
  for (std::size_t k = 0; k < kOpcodeCount; ++k) {
    const Opcode op = static_cast<Opcode>(k);
    Instruction in;
    in.op = op;
    const OpTraits& t = op_traits(op);
    EXPECT_EQ(t.klass, oracle_class(op)) << "opcode " << k;
    EXPECT_EQ(t.kind, oracle_kind(op)) << "opcode " << k;
    EXPECT_EQ(t.is_load, in.is_load()) << "opcode " << k;
    EXPECT_EQ(t.is_store, in.is_store()) << "opcode " << k;
    EXPECT_EQ(t.is_control, in.is_terminator() || op == Opcode::kBar)
        << "opcode " << k;
    EXPECT_EQ(t.run_eligible, oracle_run_eligible(in)) << "opcode " << k;
    // cross-column consistency: a run-eligible op is a pure ALU step
    if (t.run_eligible) {
      EXPECT_EQ(t.kind, StepResult::Kind::kAlu) << "opcode " << k;
      EXPECT_FALSE(t.is_load || t.is_store || t.is_control) << "opcode " << k;
    }
  }
}

TEST(OpClassTable, EvalCmpMatchesOperators) {
  const float fvals[] = {-3.5f, 0.0f, 0.5f, 2.0f,
                         std::numeric_limits<float>::quiet_NaN()};
  for (const float a : fvals) {
    for (const float b : fvals) {
      EXPECT_EQ(eval_cmp(CmpOp::kEq, a, b), a == b);
      EXPECT_EQ(eval_cmp(CmpOp::kNe, a, b), a != b);
      EXPECT_EQ(eval_cmp(CmpOp::kLt, a, b), a < b);
      EXPECT_EQ(eval_cmp(CmpOp::kLe, a, b), a <= b);
      EXPECT_EQ(eval_cmp(CmpOp::kGt, a, b), a > b);
      EXPECT_EQ(eval_cmp(CmpOp::kGe, a, b), a >= b);
    }
  }
  const std::uint32_t uvals[] = {0u, 1u, 7u, 0x7FFFFFFFu, 0xFFFFFFFFu};
  for (const std::uint32_t a : uvals) {
    for (const std::uint32_t b : uvals) {
      EXPECT_EQ(eval_cmp(CmpOp::kEq, a, b), a == b);
      EXPECT_EQ(eval_cmp(CmpOp::kNe, a, b), a != b);
      EXPECT_EQ(eval_cmp(CmpOp::kLt, a, b), a < b);
      EXPECT_EQ(eval_cmp(CmpOp::kLe, a, b), a <= b);
      EXPECT_EQ(eval_cmp(CmpOp::kGt, a, b), a > b);
      EXPECT_EQ(eval_cmp(CmpOp::kGe, a, b), a >= b);
    }
  }
}

// ---------------------------------------------------------------------------
// 2. computed-goto vs portable dispatch, all handlers
// ---------------------------------------------------------------------------

constexpr std::uint32_t kSlots = 16;
constexpr std::uint32_t kLanes = 32;

ThreadedOp make_op(THandler h, std::uint32_t dst, std::uint32_t a,
                   std::uint32_t b, std::uint32_t c, std::uint32_t imm) {
  ThreadedOp op;
  op.h = static_cast<std::uint32_t>(h);
  op.dst = dst * kLanes;
  op.a = a * kLanes;
  op.b = b * kLanes;
  op.c = c * kLanes;
  op.imm = imm;
  return op;
}

/// An op stream touching every THandler at least once, reading the seeded
/// low slots and writing the high ones (handlers later in the stream read
/// results of earlier ones, so a single wrong handler cascades).
std::vector<ThreadedOp> full_coverage_stream() {
  std::vector<ThreadedOp> ops;
  // specials first: they only read ctx
  ops.push_back(make_op(THandler::kTid, 4, 0, 0, 0, 0));
  ops.push_back(make_op(THandler::kCtaid, 5, 0, 0, 0, 0));
  ops.push_back(make_op(THandler::kNtid, 6, 0, 0, 0, 0));
  ops.push_back(make_op(THandler::kNctaid, 7, 0, 0, 0, 0));
  ops.push_back(make_op(THandler::kLane, 8, 0, 0, 0, 0));
  ops.push_back(make_op(THandler::kWarpId, 9, 0, 0, 0, 0));
  ops.push_back(make_op(THandler::kSmId, 10, 0, 0, 0, 0));
  ops.push_back(make_op(THandler::kMovImm, 11, 0, 0, 0, 0x40490FDBu));
  ops.push_back(make_op(THandler::kMovParam, 12, 0, 0, 0, 1));
  ops.push_back(make_op(THandler::kMov, 13, 2, 0, 0, 0));
  // integer chain over the seeds and specials
  ops.push_back(make_op(THandler::kIAdd, 14, 4, 0, 0, 0));
  ops.push_back(make_op(THandler::kISub, 14, 14, 1, 0, 0));
  ops.push_back(make_op(THandler::kIMul, 15, 14, 0, 0, 0));
  ops.push_back(make_op(THandler::kIMad, 15, 4, 1, 15, 0));
  ops.push_back(make_op(THandler::kIAddImm, 15, 15, 0, 0, 1234567u));
  ops.push_back(make_op(THandler::kShl, 14, 15, 1, 0, 0));
  ops.push_back(make_op(THandler::kShr, 14, 14, 1, 0, 0));
  ops.push_back(make_op(THandler::kAnd, 15, 15, 14, 0, 0));
  ops.push_back(make_op(THandler::kOr, 15, 15, 4, 0, 0));
  ops.push_back(make_op(THandler::kXor, 15, 15, 0, 0, 0));
  ops.push_back(make_op(THandler::kIMin, 14, 15, 0, 0, 0));
  ops.push_back(make_op(THandler::kIMax, 14, 14, 4, 0, 0));
  // float chain (slots 2/3 seeded with floats)
  ops.push_back(make_op(THandler::kI2F, 11, 8, 0, 0, 0));
  ops.push_back(make_op(THandler::kFAdd, 12, 2, 3, 0, 0));
  ops.push_back(make_op(THandler::kFSub, 12, 12, 2, 0, 0));
  ops.push_back(make_op(THandler::kFMul, 13, 12, 3, 0, 0));
  ops.push_back(make_op(THandler::kFFma, 13, 12, 11, 13, 0));
  ops.push_back(make_op(THandler::kFRcp, 11, 13, 0, 0, 0));
  ops.push_back(make_op(THandler::kFRsqrt, 12, 3, 0, 0, 0));
  ops.push_back(make_op(THandler::kFNeg, 11, 11, 0, 0, 0));
  ops.push_back(make_op(THandler::kFAbs, 11, 11, 0, 0, 0));
  ops.push_back(make_op(THandler::kFMin, 12, 12, 11, 0, 0));
  ops.push_back(make_op(THandler::kFMax, 12, 12, 2, 0, 0));
  ops.push_back(make_op(THandler::kF2I, 14, 12, 0, 0, 0));
  // predicated select; op.c is the predicate index for kSel (not a slot),
  // so build it directly instead of through make_op
  {
    ThreadedOp sel;
    sel.h = static_cast<std::uint32_t>(THandler::kSel);
    sel.dst = 13 * kLanes;
    sel.a = 2 * kLanes;
    sel.b = 3 * kLanes;
    sel.c = 1;  // predicate register 1
    ops.push_back(sel);
  }
  return ops;
}

TEST(ThreadedDispatch, GotoAndPortableAgreeOnAllHandlers) {
  std::vector<ThreadedOp> ops = full_coverage_stream();
  // every handler covered?
  std::array<bool, kTHandlerCount> hit{};
  for (const ThreadedOp& op : ops) hit[op.h] = true;
  for (std::size_t h = 0; h < kTHandlerCount; ++h) {
    EXPECT_TRUE(hit[h]) << "THandler " << h << " not covered by the stream";
  }

  std::vector<std::uint32_t> seed(kSlots * kLanes);
  for (std::uint32_t s = 0; s < 4; ++s) {
    for (std::uint32_t l = 0; l < kLanes; ++l) {
      const std::uint32_t v = s * 1000003u + l * 97u + 13u;
      // slots 0/1 integers, slots 2/3 floats
      seed[s * kLanes + l] =
          s < 2 ? v : std::bit_cast<std::uint32_t>(
                          static_cast<float>(v % 513) * 0.25f - 32.0f);
    }
  }
  const std::uint32_t preds[4] = {0u, 0xA5A5A5A5u, 0xFFFFFFFFu, 0u};
  const std::uint32_t params[4] = {11u, 22u, 33u, 44u};
  ThreadedCtx ctx;
  ctx.params = params;
  ctx.block_id = 3;
  ctx.block_threads = 128;
  ctx.grid_blocks = 9;
  ctx.sm_id = 2;
  ctx.warp_index = 1;
  ctx.base_thread = 32;
  ctx.warp_size = 32;

  std::vector<std::uint32_t> via_goto = seed;
  std::vector<std::uint32_t> via_portable = seed;
  exec_threaded(ops.data(), static_cast<std::uint32_t>(ops.size()),
                via_goto.data(), preds, ctx);
  exec_threaded_portable(ops.data(), static_cast<std::uint32_t>(ops.size()),
                         via_portable.data(), preds, ctx);
  EXPECT_EQ(via_goto, via_portable)
      << "dispatch kind: " << threaded_dispatch_kind();

  // longhand spot checks so a shared bug in both loops cannot hide:
  for (std::uint32_t l = 0; l < kLanes; ++l) {
    // kMovParam slot 12 was later overwritten; check kTid directly instead
    EXPECT_EQ(via_goto[4 * kLanes + l], ctx.base_thread + l) << "lane " << l;
    EXPECT_EQ(via_goto[5 * kLanes + l], ctx.block_id);
    EXPECT_EQ(via_goto[6 * kLanes + l], ctx.block_threads);
    EXPECT_EQ(via_goto[7 * kLanes + l], ctx.grid_blocks);
    EXPECT_EQ(via_goto[8 * kLanes + l], l);
    EXPECT_EQ(via_goto[9 * kLanes + l], ctx.warp_index);
    EXPECT_EQ(via_goto[10 * kLanes + l], ctx.sm_id);
    // kSel wrote last into slot 13: preds[1] bit l picks slot 2 else slot 3
    const std::uint32_t want =
        (preds[1] >> l) & 1u ? seed[2 * kLanes + l] : seed[3 * kLanes + l];
    EXPECT_EQ(via_goto[13 * kLanes + l], want) << "kSel lane " << l;
  }
}

TEST(ThreadedDispatch, CompiledStreamParallelsDecodedProgram) {
  gravit::BuiltKernel built = gravit::make_farfield_kernel({});
  const DecodedProgram dec = decode(built.prog);
  const ThreadedProgram tp = build_threaded(dec);
  ASSERT_EQ(tp.ops.size(), dec.instrs.size());
  // every instruction covered by a decoded run must have compiled to a
  // valid handler with an in-range destination row
  for (std::size_t i = 0; i < dec.runs.size(); ++i) {
    for (std::uint32_t k = 0; k < dec.runs[i].len; ++k) {
      const ThreadedOp& op = tp.ops[i + k];
      EXPECT_LT(op.h, kTHandlerCount) << "instr " << i + k;
    }
  }
}

// ---------------------------------------------------------------------------
// 3. decode cache
// ---------------------------------------------------------------------------

Program make_scale_kernel(float factor) {
  KernelBuilder kb("scale", 2);
  Val i = kb.iadd(kb.imul(kb.ctaid(), kb.ntid()), kb.tid());
  Val x = kb.ld_global_f32(kb.iadd(kb.param_u32(0), kb.shl(i, 2)));
  kb.st_global(kb.iadd(kb.param_u32(1), kb.shl(i, 2)),
               kb.fmul(x, kb.imm_f32(factor)));
  Program prog = std::move(kb).finish();
  run_standard_pipeline(prog);
  allocate_registers(prog);
  return prog;
}

TEST(DecodeCache, StructuralKeyingAndBound) {
  decode_cache_clear();
  EXPECT_EQ(decode_cache_size(), 0u);

  const Program a = make_scale_kernel(2.0f);
  bool hit = true;
  const auto ck1 = acquire_compiled(a, /*use_cache=*/true, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(decode_cache_size(), 1u);

  // a *separately built* but structurally identical program hits
  const Program a2 = make_scale_kernel(2.0f);
  const auto ck2 = acquire_compiled(a2, /*use_cache=*/true, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(ck1.get(), ck2.get());
  EXPECT_EQ(decode_cache_size(), 1u);

  // a different constant is a different program
  const Program b = make_scale_kernel(3.0f);
  const auto ck3 = acquire_compiled(b, /*use_cache=*/true, &hit);
  EXPECT_FALSE(hit);
  EXPECT_NE(ck1.get(), ck3.get());
  EXPECT_EQ(decode_cache_size(), 2u);

  // private compilation bypasses the cache entirely
  const auto ck4 = acquire_compiled(a, /*use_cache=*/false, &hit);
  EXPECT_FALSE(hit);
  EXPECT_NE(ck1.get(), ck4.get());
  EXPECT_EQ(decode_cache_size(), 2u);

  decode_cache_clear();
  EXPECT_EQ(decode_cache_size(), 0u);
}

struct CacheRun {
  std::vector<std::uint32_t> out;
  LaunchStats stats;
};

CacheRun launch_scale(Device& dev, const Program& prog, Buffer bin, Buffer bout,
                      std::uint32_t n, bool timed) {
  CacheRun r;
  const std::uint32_t params[2] = {bin.addr, bout.addr};
  const LaunchConfig cfg{n / 64, 64};
  if (timed) {
    r.stats = dev.launch_timed(prog, cfg, params);
  } else {
    r.stats = dev.launch_functional(prog, cfg, params);
  }
  r.out.resize(n);
  dev.download<std::uint32_t>(r.out, bout);
  return r;
}

TEST(DecodeCache, LaunchCountersAndRepeatLaunches) {
  decode_cache_clear();
  const std::uint32_t n = 128;
  const Program prog = make_scale_kernel(1.5f);
  Device dev(tiny_spec(), 1 << 20);
  std::vector<float> input(n);
  for (std::size_t k = 0; k < input.size(); ++k) {
    input[k] = static_cast<float>(k) * 0.5f - 17.0f;
  }
  Buffer bin = dev.upload<float>(input);
  Buffer bout = dev.malloc_n<float>(n);

  for (const bool timed : {false, true}) {
    decode_cache_clear();
    const CacheRun first = launch_scale(dev, prog, bin, bout, n, timed);
    EXPECT_EQ(first.stats.decode_cache_hits, 0u);
    EXPECT_EQ(first.stats.decode_cache_misses, 1u);
    const CacheRun second = launch_scale(dev, prog, bin, bout, n, timed);
    EXPECT_EQ(second.stats.decode_cache_hits, 1u);
    EXPECT_EQ(second.stats.decode_cache_misses, 0u);
    // identical results and counters (cache bookkeeping excluded via core())
    EXPECT_EQ(second.out, first.out);
    EXPECT_TRUE(second.stats.core() == first.stats.core());
  }
}

TEST(DecodeCache, CachedKernelServesChangedParameters) {
  // One ThreadedProgram must serve launches with different parameter
  // blocks: parameters resolve at execution time, never compile time.
  decode_cache_clear();
  const std::uint32_t n = 128;
  const Program prog = make_scale_kernel(2.0f);
  Device dev(tiny_spec(), 1 << 20);
  std::vector<float> input(n);
  for (std::size_t k = 0; k < input.size(); ++k) {
    input[k] = static_cast<float>(k % 31) * 0.25f;
  }
  Buffer bin = dev.upload<float>(input);
  Buffer out1 = dev.malloc_n<float>(n);
  Buffer out2 = dev.malloc_n<float>(n);

  // warm the cache writing to out1, then relaunch aimed at out2
  const CacheRun warm = launch_scale(dev, prog, bin, out1, n, false);
  EXPECT_EQ(warm.stats.decode_cache_misses, 1u);
  const CacheRun moved = launch_scale(dev, prog, bin, out2, n, false);
  EXPECT_EQ(moved.stats.decode_cache_hits, 1u);
  EXPECT_EQ(moved.out, warm.out) << "cached relaunch with a different "
                                    "parameter block produced different data";
  // and out1 was not re-written by the second launch reading stale params
  std::vector<std::uint32_t> check(n);
  dev.download<std::uint32_t>(check, out1);
  EXPECT_EQ(check, warm.out);
}

}  // namespace
}  // namespace vgpu
