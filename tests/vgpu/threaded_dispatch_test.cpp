// Compiled handlers, their two dispatchers, and the decode cache.
//
// Three concerns, each pinned independently of the implementation:
//
//  1. The shared opcode table (opclass.hpp) - every column is compared
//     against an oracle written directly from the ISA definition, so the
//     table cannot silently drift when an opcode is added.
//  2. The two dispatchers of the handler text - the superblock trace and
//     the per-instruction switch (exec_op) - are executed side by side
//     over an op stream covering every THandler, under a full and under a
//     partial mask, and must agree bit for bit (and, for the simple
//     handlers, match values computed longhand here); so must each
//     instruction-set copy of the trace dispatcher, also from rows of edge
//     values.
//  3. The decode cache (progcache.hpp) - hit/miss counters, structural
//     keying, correctness across parameter changes, and private
//     compilation.
//
// The executor-level differentials of the fast paths, which run every
// whole run through its trace, against the reference interpreter live in
// fuzz_differential_test.cpp and fastpath_equivalence_test.cpp.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "gravit/kernels.hpp"
#include "vgpu/asm.hpp"
#include "vgpu/builder.hpp"
#include "vgpu/decode.hpp"
#include "vgpu/device.hpp"
#include "vgpu/opclass.hpp"
#include "vgpu/opt.hpp"
#include "vgpu/progcache.hpp"
#include "vgpu/regalloc.hpp"
#include "vgpu/threaded.hpp"
#include "vgpu/traces.hpp"

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

/// Oracle for opcode-level run eligibility: register ALU and predicate
/// writers - nothing that touches memory, control flow, or the cycle
/// counter. (The warp-uniform shared load joins runs per instruction, not
/// per opcode.)
bool oracle_run_eligible(const Instruction& in) {
  return !in.is_memory() && !in.is_terminator() && in.op != Opcode::kBar &&
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
// 2. trace vs per-instruction switch, all handlers
// ---------------------------------------------------------------------------

constexpr std::uint32_t kSlots = 24;
constexpr std::uint32_t kLanes = 32;
constexpr std::uint32_t kPreds = 10;

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

/// A ThreadedOp whose fields are not all register rows (predicate indices,
/// a compare, a flag or a width), taken as given.
ThreadedOp make_raw(THandler h, std::uint32_t dst, std::uint32_t a,
                    std::uint32_t b, std::uint32_t c, std::uint32_t imm) {
  ThreadedOp op;
  op.h = static_cast<std::uint32_t>(h);
  op.dst = dst;
  op.a = a;
  op.b = b;
  op.c = c;
  op.imm = imm;
  return op;
}

/// An op stream touching every THandler at least once, reading the seeded
/// low slots and predicates and writing the high ones (handlers later in the
/// stream read results of earlier ones, so a single wrong handler
/// cascades).
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
  // predicate writers: predicate indices and the CmpOp, not rows
  const auto cmp = [](CmpOp c) { return static_cast<std::uint32_t>(c); };
  ops.push_back(make_raw(THandler::kSetpUI, 4, 8 * kLanes, 0, cmp(CmpOp::kLt),
                         13));  // %laneid < 13
  ops.push_back(make_raw(THandler::kSetpU, 5, 0, 14 * kLanes,
                         cmp(CmpOp::kNe), 0));
  ops.push_back(make_raw(THandler::kSetpF, 6, 2 * kLanes, 3 * kLanes,
                         cmp(CmpOp::kLt), 0));
  ops.push_back(make_raw(THandler::kSetpFI, 7, 3 * kLanes, 0,
                         cmp(CmpOp::kGe), 0));  // >= 0.0f
  ops.push_back(make_raw(THandler::kPAnd, 8, 5, 6, 0, 0));
  ops.push_back(make_raw(THandler::kPOr, 9, 7, 1, 0, 0));
  ops.push_back(make_raw(THandler::kPNot, 3, 9, 0, 0, 0));
  // warp-uniform shared loads: a 128-bit one from a base row holding 32 in
  // every lane (+16 = byte 48), a 32-bit one from the absolute byte 8
  ops.push_back(make_op(THandler::kMovImm, 16, 0, 0, 0, 32));
  ops.push_back(make_raw(THandler::kLdSharedU, 20 * kLanes, 16 * kLanes, 1,
                         4, 16));
  ops.push_back(make_raw(THandler::kLdSharedU, 17 * kLanes, 0, 0, 1, 8));
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

/// Edge values for seed rows, as float bits: +0 and -0 (also the integer
/// 2^31), +inf and -inf, a quiet NaN, denormals, 2^31, 2^32 and 5e9, and
/// 0xFFFFFFFF (the largest integer; a NaN as a float).
constexpr std::uint32_t kEdgeBits[] = {
    0x00000000u, 0x80000000u, 0x7F800000u, 0xFF800000u,
    0x7FC00000u, 0x00000001u, 0x807FFFFFu, 0x4F000000u,
    0x4F800000u, 0x4F9502F9u, 0xFFFFFFFFu,
};

/// What the coverage stream runs from: seed rows (slots 0/1 integers, 2/3
/// floats), the predicate file, shared memory and a context. `ctx` points
/// into the object, so it is neither copied nor moved. With `edges`, every
/// third lane of each seed row holds one of kEdgeBits instead.
struct CoverageInputs {
  explicit CoverageInputs(bool edges) {
    for (std::uint32_t s = 0; s < 4; ++s) {
      for (std::uint32_t l = 0; l < kLanes; ++l) {
        const std::uint32_t v = s * 1000003u + l * 97u + 13u;
        regs[s * kLanes + l] =
            s < 2 ? v : std::bit_cast<std::uint32_t>(
                            static_cast<float>(v % 513) * 0.25f - 32.0f);
        if (edges && l % 3 == 0) {
          regs[s * kLanes + l] =
              kEdgeBits[(l / 3 + s) % std::size(kEdgeBits)];
        }
      }
    }
    for (std::uint32_t k = 0; k < shared.size(); ++k) {
      shared[k] = 0x5000u + k * 7u;
    }
    ctx.params = params;
    ctx.block_id = 3;
    ctx.block_threads = 128;
    ctx.grid_blocks = 9;
    ctx.sm_id = 2;
    ctx.warp_index = 1;
    ctx.base_thread = 32;
    ctx.warp_size = 32;
    ctx.shared = shared.data();
    ctx.shared_bytes = static_cast<std::uint32_t>(shared.size() * 4);
  }
  CoverageInputs(const CoverageInputs&) = delete;
  CoverageInputs& operator=(const CoverageInputs&) = delete;

  std::vector<std::uint32_t> regs = std::vector<std::uint32_t>(kSlots * kLanes);
  std::vector<std::uint32_t> preds = {0u, 0xA5A5A5A5u, 0xFFFFFFFFu, 0u, 0u,
                                      0u, 0u,          0u,          0u, 0u};
  std::vector<std::uint32_t> shared = std::vector<std::uint32_t>(64);
  std::uint32_t params[4] = {11u, 22u, 33u, 44u};
  ThreadedCtx ctx;
};

/// `ops` compiled into one superblock trace, as build_traces compiles a
/// decoded run of that length (followed by its terminator).
TraceProgram coverage_trace(const std::vector<ThreadedOp>& ops) {
  const auto n = static_cast<std::uint32_t>(ops.size());
  DecodedProgram dec;
  dec.instrs.resize(n + 1);
  dec.runs.resize(n + 1);
  for (std::uint32_t k = 0; k < n; ++k) dec.runs[k].len = n - k;
  dec.block_start = {0};
  ThreadedProgram tp;
  tp.ops = ops;
  tp.ops.emplace_back();
  return build_traces(dec, tp);
}

/// `ops` through the per-instruction switch, one exec_op call each, as
/// BlockExec::exec_run executes a range that is not a whole run.
void run_switch(const std::vector<ThreadedOp>& ops,
                std::vector<std::uint32_t>& regs,
                std::vector<std::uint32_t>& preds, const ThreadedCtx& ctx) {
  for (const ThreadedOp& op : ops) {
    exec_op(op, regs.data(), preds.data(), ctx);
  }
}

TEST(ThreadedDispatch, TraceAndSwitchAgreeOnAllHandlers) {
  const std::vector<ThreadedOp> ops = full_coverage_stream();
  // every handler covered?
  std::array<bool, kTHandlerCount> hit{};
  for (const ThreadedOp& op : ops) hit[op.h] = true;
  for (std::size_t h = 0; h < kTHandlerCount; ++h) {
    EXPECT_TRUE(hit[h]) << "THandler " << h << " not covered by the stream";
  }
  const TraceProgram traces = coverage_trace(ops);
  ASSERT_EQ(traces.traces.size(), 1u);

  CoverageInputs in(/*edges=*/false);
  const std::vector<std::uint32_t>& seed = in.regs;
  const std::vector<std::uint32_t>& seed_preds = in.preds;
  ASSERT_EQ(seed_preds.size(), kPreds);
  const std::vector<std::uint32_t>& shared = in.shared;
  const ThreadedCtx& ctx = in.ctx;

  // Under the full mask the switch writes every lane the trace writes.
  std::vector<std::uint32_t> via_trace = seed;
  std::vector<std::uint32_t> via_switch = seed;
  std::vector<std::uint32_t> preds_trace = seed_preds;
  std::vector<std::uint32_t> preds_switch = seed_preds;
  exec_trace(traces, 0, via_trace.data(), preds_trace.data(), ctx);
  run_switch(ops, via_switch, preds_switch, ctx);
  EXPECT_EQ(via_switch, via_trace);
  EXPECT_EQ(preds_switch, preds_trace);

  // longhand predicate checks: the %laneid < 13 mask, a float compare
  // against an immediate, and the or/not chain built on it
  EXPECT_EQ(preds_trace[4], 0x00001FFFu);
  std::uint32_t ge_zero = 0;
  for (std::uint32_t l = 0; l < kLanes; ++l) {
    if (std::bit_cast<float>(seed[3 * kLanes + l]) >= 0.0f) ge_zero |= 1u << l;
  }
  EXPECT_EQ(preds_trace[7], ge_zero);
  EXPECT_EQ(preds_trace[3], ~(ge_zero | seed_preds[1]));
  EXPECT_EQ(preds_trace[8], preds_trace[5] & preds_trace[6]);

  // longhand spot checks so a shared bug in both dispatchers cannot hide:
  for (std::uint32_t l = 0; l < kLanes; ++l) {
    // kMovParam slot 12 was later overwritten; check kTid directly instead
    EXPECT_EQ(via_trace[4 * kLanes + l], ctx.base_thread + l) << "lane " << l;
    EXPECT_EQ(via_trace[5 * kLanes + l], ctx.block_id);
    EXPECT_EQ(via_trace[6 * kLanes + l], ctx.block_threads);
    EXPECT_EQ(via_trace[7 * kLanes + l], ctx.grid_blocks);
    EXPECT_EQ(via_trace[8 * kLanes + l], l);
    EXPECT_EQ(via_trace[9 * kLanes + l], ctx.warp_index);
    EXPECT_EQ(via_trace[10 * kLanes + l], ctx.sm_id);
    // kSel wrote last into slot 13: preds[1] bit l picks slot 2 else slot 3
    const std::uint32_t want =
        (seed_preds[1] >> l) & 1u ? seed[2 * kLanes + l] : seed[3 * kLanes + l];
    EXPECT_EQ(via_trace[13 * kLanes + l], want) << "kSel lane " << l;
    // the shared loads splat words 12..15 and word 2 into every lane
    for (std::uint32_t c = 0; c < 4; ++c) {
      EXPECT_EQ(via_trace[(20 + c) * kLanes + l], shared[12 + c])
          << "kLdSharedU word " << c << " lane " << l;
    }
    EXPECT_EQ(via_trace[17 * kLanes + l], shared[2]) << "lane " << l;
  }

  // a shared load whose address differs between lanes (%laneid * 4 here)
  // breaks the warp-uniform contract instead of reading one lane's word
  const std::vector<ThreadedOp> bad = {
      make_op(THandler::kShl, 16, 8, 1, 0, 0),
      make_raw(THandler::kLdSharedU, 17 * kLanes, 16 * kLanes, 1, 1, 0)};
  const TraceProgram bad_trace = coverage_trace(bad);
  ASSERT_EQ(bad_trace.traces.size(), 1u);
  std::vector<std::uint32_t> lane_regs = via_trace;
  for (std::uint32_t l = 0; l < kLanes; ++l) lane_regs[1 * kLanes + l] = 2;
  std::vector<std::uint32_t> lane_preds = preds_trace;
  EXPECT_THROW(exec_trace(bad_trace, 0, lane_regs.data(), lane_preds.data(),
                          ctx),
               ContractViolation);
  EXPECT_THROW(run_switch(bad, lane_regs, lane_preds, ctx), ContractViolation);

  // Under a partial mask (a guarded or divergent step) the switch writes
  // the registers of the active lanes only - what the trace computes there
  // - and leaves the other lanes as seeded; both write the predicates over
  // the mask. Lane 0 stays active: the uniform shared load reads its base.
  in.ctx.active = 0x0F0F0F0Fu;
  via_trace = seed;
  via_switch = seed;
  preds_trace = seed_preds;
  preds_switch = seed_preds;
  exec_trace(traces, 0, via_trace.data(), preds_trace.data(), ctx);
  run_switch(ops, via_switch, preds_switch, ctx);
  EXPECT_EQ(preds_switch, preds_trace);
  EXPECT_EQ(preds_switch[4],
            (seed_preds[4] & ~ctx.active) | (0x00001FFFu & ctx.active));
  for (std::uint32_t s = 0; s < kSlots; ++s) {
    for (std::uint32_t l = 0; l < kLanes; ++l) {
      const std::size_t k = std::size_t{s} * kLanes + l;
      const bool active = ((ctx.active >> l) & 1u) != 0;
      EXPECT_EQ(via_switch[k], active ? via_trace[k] : seed[k])
          << "slot " << s << " lane " << l << (active ? " (active)" : "");
    }
  }
}

// Every handler in one superblock trace, run from plain and from
// edge-valued rows: the trace dispatcher's baseline copy must leave the
// registers and predicates the per-instruction switch leaves.
TEST(ThreadedDispatch, TraceCopiesAgreeOnAllHandlers) {
  const std::vector<ThreadedOp> ops = full_coverage_stream();
  const TraceProgram traces = coverage_trace(ops);
  ASSERT_EQ(traces.traces.size(), 1u);
  ASSERT_EQ(traces.traces[0].len, ops.size());
  for (const bool edges : {false, true}) {
    CoverageInputs in(edges);
    std::vector<std::uint32_t> via_trace = in.regs;
    std::vector<std::uint32_t> via_switch = in.regs;
    std::vector<std::uint32_t> preds_trace = in.preds;
    std::vector<std::uint32_t> preds_switch = in.preds;
    exec_trace_baseline(traces, 0, via_trace.data(), preds_trace.data(),
                        in.ctx);
    run_switch(ops, via_switch, preds_switch, in.ctx);
    EXPECT_EQ(via_trace, via_switch) << "edges " << edges;
    EXPECT_EQ(preds_trace, preds_switch) << "edges " << edges;
  }
}

// The same trace through exec_trace where it runs the AVX2 copy: eight
// lanes per vector instruction must leave what the baseline copy leaves.
TEST(ThreadedDispatch, Avx2TraceCopyMatchesBaseline) {
  if (std::string_view(trace_dispatch_isa()) != "avx2") {
    GTEST_SKIP() << "exec_trace runs the baseline copy here (no AVX2 on the "
                    "host, or not an x86-64 build)";
  }
  const std::vector<ThreadedOp> ops = full_coverage_stream();
  const TraceProgram traces = coverage_trace(ops);
  ASSERT_EQ(traces.traces.size(), 1u);
  for (const bool edges : {false, true}) {
    CoverageInputs in(edges);
    std::vector<std::uint32_t> via_avx2 = in.regs;
    std::vector<std::uint32_t> via_baseline = in.regs;
    std::vector<std::uint32_t> preds_avx2 = in.preds;
    std::vector<std::uint32_t> preds_baseline = in.preds;
    exec_trace(traces, 0, via_avx2.data(), preds_avx2.data(), in.ctx);
    exec_trace_baseline(traces, 0, via_baseline.data(), preds_baseline.data(),
                        in.ctx);
    EXPECT_EQ(via_avx2, via_baseline) << "edges " << edges;
    EXPECT_EQ(preds_avx2, preds_baseline) << "edges " << edges;
  }
}

/// Oracle for what step_fast hands to the per-instruction switch: every
/// instruction but its own cases - memory ops, control flow and the two
/// clock reads, the only instructions that need the step's `now`.
bool sent_to_switch(const DecodedInstr& d) {
  switch (d.op) {
    case Opcode::kLdGlobal: case Opcode::kStGlobal: case Opcode::kLdConst:
    case Opcode::kLdTex: case Opcode::kLdLocal: case Opcode::kStLocal:
    case Opcode::kLdShared: case Opcode::kStShared: case Opcode::kBar:
    case Opcode::kExit: case Opcode::kBra: case Opcode::kBraCond:
    case Opcode::kClock:
      return false;
    case Opcode::kMovSpecial:
      return static_cast<Special>(d.imm) != Special::kClock;
    default:
      return true;
  }
}

TEST(ThreadedDispatch, CompiledStreamParallelsDecodedProgram) {
  // The far-field kernel, and a listing with guarded ALU ops, predicate
  // writers and both clock reads outside any run.
  const Program guarded = assemble(R"(
.kernel guarded  (params=1)
B0:
    mov.special r0, %tid
    setp.lt.u32 p0, r0, 16
    @p0 mov.imm r1, 0x7
    @!p0 iadd r1, r0, r0
    @p0 setp.lt.u32 p1, r0, 8
    mov.special r2, %clock
    clock r3
    @!p0 sel r1, p1, r2, r3
    st.global.32b [r0+0], r1
    exit
)");
  const Program programs[] = {gravit::make_farfield_kernel({}).prog, guarded};
  for (const Program& prog : programs) {
    const DecodedProgram dec = decode(prog);
    const ThreadedProgram tp = build_threaded(dec);
    ASSERT_EQ(tp.ops.size(), dec.instrs.size());
    // Every instruction a decoded run covers, or step_fast sends to the
    // switch, compiled to a valid handler; the rest hold the sentinel no
    // dispatcher executes.
    std::size_t outside_runs = 0;
    for (std::size_t i = 0; i < dec.instrs.size(); ++i) {
      const bool in_run = dec.runs[i].len != 0;
      const bool compiled = in_run || sent_to_switch(dec.instrs[i]);
      outside_runs += compiled && !in_run ? 1u : 0u;
      if (compiled) {
        EXPECT_LT(tp.ops[i].h, kTHandlerCount) << prog.name << " instr " << i;
      } else {
        EXPECT_EQ(tp.ops[i].h, kTHandlerCount) << prog.name << " instr " << i;
      }
    }
    if (&prog == &guarded) {
      EXPECT_GE(outside_runs, 4u) << "the guarded ops and sel left runs";
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
