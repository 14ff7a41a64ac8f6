// Loops run inside one run dispatch, and the conversions every copy of the
// fast path must agree on.
//
// BlockExec::step_run executes a run's uniform terminating branch itself
// and, when it lands back on the run's head, the run again: a loop body
// then runs all its iterations in one call. The trace dispatcher also
// exists in two instruction-set copies (traces.hpp). This suite pins the
// semantics both changes must keep, against the reference interpreter:
//
//  * BackEdgeContinuation.ClockAcrossContinuedBranches - the functional
//    executor's %clock is pseudo-time (issued instructions * 4), so every
//    branch step_run executes must count as issued;
//  * F2IConversion.SaturatesLikeCvtRzi - f2i is PTX cvt.rzi.u32.f32 for
//    every input (NaN, infinities, values beyond 2^32), through each
//    dispatcher of its handler: a one-op trace, a longer trace and the
//    per-instruction switch under a partial mask.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "vgpu/builder.hpp"
#include "vgpu/decode.hpp"
#include "vgpu/device.hpp"
#include "vgpu/regalloc.hpp"

namespace vgpu {
namespace {

/// One launch's output words and statistics.
struct Outcome {
  std::vector<std::uint32_t> out;
  LaunchStats stats;
};

/// Runs `prog` on a fresh g80 device: param 0 holds `input`, param 1 an
/// output of `out_words` zeroed words.
Outcome launch(const Program& prog, const LaunchConfig& cfg,
               const std::vector<std::uint32_t>& input,
               std::uint32_t out_words, bool timed, bool reference,
               std::uint32_t threads = 1) {
  Device dev(g80_spec(), 1 << 20);
  const Buffer bin = dev.upload<std::uint32_t>(input);
  const Buffer bout =
      dev.upload<std::uint32_t>(std::vector<std::uint32_t>(out_words, 0u));
  const std::vector<std::uint32_t> params = {bin.addr, bout.addr};
  Outcome r;
  if (timed) {
    TimingOptions topt;
    topt.reference = reference;
    topt.threads = threads;
    r.stats = dev.launch_timed(prog, cfg, params, topt);
  } else {
    FunctionalOptions fopt;
    fopt.reference = reference;
    r.stats = dev.launch_functional(prog, cfg, params, fopt);
  }
  r.out.resize(out_words);
  dev.download<std::uint32_t>(r.out, bout);
  return r;
}

// ---------------------------------------------------------------------------
// Pseudo-time across continued branches
// ---------------------------------------------------------------------------

/// Three loops, each followed by a %clock read stored beside the loop's
/// result: a uniform counted loop (step_run continues across its
/// back-edge), a loop whose trip count depends on the lane (its back-edge
/// diverges), and a uniform loop inside a divergent `if` (a partial mask,
/// so no run dispatch). Output word k of thread t is at k * threads + t.
Program make_clock_loops_kernel(std::uint32_t total_threads) {
  KernelBuilder kb("clock_loops", 2);
  Val i = kb.iadd(kb.imul(kb.ctaid(), kb.ntid()), kb.tid());
  Val lane = kb.special(Special::kLane);
  Val out = kb.iadd(kb.param_u32(1), kb.shl(i, 2));
  Val acc = kb.var_u32(kb.ld_global_u32(kb.iadd(kb.param_u32(0),
                                                kb.shl(i, 2))));
  const std::uint32_t stride = 4 * total_threads;

  kb.for_counted(9, [&](Val iv) {
    kb.assign(acc, kb.iadd(kb.imul(acc, kb.imm_u32(3)), iv));
  });
  Val c1 = kb.clock();
  kb.st_global(out, acc, 0 * stride);
  kb.st_global(out, c1, 1 * stride);

  Val trip = kb.iadd(kb.band(lane, kb.imm_u32(3)), kb.imm_u32(1));
  kb.for_dynamic(trip, [&](Val iv) {
    kb.assign(acc, kb.iadd(acc, kb.iadd(iv, lane)));
  });
  Val c2 = kb.clock();
  kb.st_global(out, acc, 2 * stride);
  kb.st_global(out, c2, 3 * stride);

  kb.if_then(kb.setp_u32_imm(CmpOp::kLt, lane, 16), [&] {
    kb.for_counted(5, [&](Val iv) {
      kb.assign(acc, kb.iadd(kb.imul(acc, kb.imm_u32(5)), iv));
    });
  });
  Val c3 = kb.clock();
  kb.st_global(out, acc, 4 * stride);
  kb.st_global(out, c3, 5 * stride);
  Program prog = std::move(kb).finish();
  allocate_registers(prog);
  return prog;
}

TEST(BackEdgeContinuation, ClockAcrossContinuedBranches) {
  const LaunchConfig cfg{2, 64};
  const std::uint32_t n = cfg.grid_blocks * cfg.block_threads;
  const Program prog = make_clock_loops_kernel(n);

  // The first loop's body is a run whose terminator branches back to the
  // run's own head: the shape step_run continues across.
  const DecodedProgram dec = decode(prog);
  bool has_back_edge_run = false;
  for (std::size_t b = 0; b < dec.block_start.size(); ++b) {
    const std::uint32_t head = dec.block_start[b];
    const DecodedRun& run = dec.runs[head];
    if (run.len == 0) continue;
    const DecodedInstr& term = dec.instrs[head + run.len];
    has_back_edge_run = has_back_edge_run ||
                        (term.op == Opcode::kBraCond && term.target == b);
  }
  ASSERT_TRUE(has_back_edge_run) << "no loop body is a single run";

  std::vector<std::uint32_t> input(n);
  for (std::uint32_t t = 0; t < n; ++t) input[t] = t * 7u + 1u;
  const Outcome ref = launch(prog, cfg, input, 6 * n, false, true);
  const Outcome fast = launch(prog, cfg, input, 6 * n, false, false);
  EXPECT_TRUE(fast.stats.core() == ref.stats.core())
      << "functional stats diverged (warp instructions "
      << fast.stats.warp_instructions << " vs "
      << ref.stats.warp_instructions << ")";
  for (std::uint32_t k = 0; k < 6; ++k) {
    for (std::uint32_t t = 0; t < n; ++t) {
      ASSERT_EQ(fast.out[k * n + t], ref.out[k * n + t])
          << (k % 2 == 0 ? "loop result " : "clock ") << k / 2
          << ", thread " << t;
    }
  }
  // each loop moves the pseudo-clock forward
  for (std::uint32_t t = 0; t < n; ++t) {
    EXPECT_LT(ref.out[1 * n + t], ref.out[3 * n + t]) << "thread " << t;
    EXPECT_LT(ref.out[3 * n + t], ref.out[5 * n + t]) << "thread " << t;
  }
}

// ---------------------------------------------------------------------------
// f2i at the edges of its domain
// ---------------------------------------------------------------------------

/// PTX cvt.rzi.u32.f32, longhand: NaN and values <= 0 give 0, values from
/// 2^32 up give 0xFFFFFFFF, the rest truncate (exactly, through double).
std::uint32_t cvt_rzi_u32(float f) {
  if (std::isnan(f) || f <= 0.0f) return 0u;
  if (static_cast<double>(f) >= 4294967296.0) return 0xFFFFFFFFu;
  return static_cast<std::uint32_t>(std::trunc(static_cast<double>(f)));
}

/// Each thread converts its input word three times, through each dispatcher
/// of the f2i handler: alone between a load and a store (a
/// single-instruction run: a one-op trace), inside a longer run (a longer
/// trace), and under a divergent branch (the per-instruction switch, masked).
/// Output word k of thread t is at k * threads + t.
Program make_f2i_kernel(std::uint32_t total_threads) {
  KernelBuilder kb("f2i_edges", 2);
  Val i = kb.iadd(kb.imul(kb.ctaid(), kb.ntid()), kb.tid());
  Val out = kb.iadd(kb.param_u32(1), kb.shl(i, 2));
  Val x = kb.ld_global_f32(kb.iadd(kb.param_u32(0), kb.shl(i, 2)));
  const std::uint32_t stride = 4 * total_threads;
  kb.st_global(out, kb.f2i(x), 0 * stride);
  Val in_run = kb.f2i(x);
  kb.st_global(out, kb.iadd(in_run, kb.imm_u32(0)), 1 * stride);
  const auto divergent = [&] { kb.st_global(out, kb.f2i(x), 2 * stride); };
  kb.if_then_else(
      kb.setp_u32_imm(CmpOp::kNe, kb.band(i, kb.imm_u32(1)), 0), divergent,
      divergent);
  Program prog = std::move(kb).finish();
  allocate_registers(prog);
  return prog;
}

TEST(F2IConversion, SaturatesLikeCvtRzi) {
  const LaunchConfig cfg{1, 64};
  const std::uint32_t n = cfg.block_threads;
  const Program prog = make_f2i_kernel(n);

  // The first two conversions sit in runs of one and of several
  // instructions (a one-op trace and a longer one).
  const DecodedProgram dec = decode(prog);
  std::vector<std::uint32_t> f2i_run_lens;
  for (std::size_t k = 0; k < dec.instrs.size(); ++k) {
    if (dec.instrs[k].op == Opcode::kF2I && dec.runs[k].len != 0 &&
        (k == 0 || dec.runs[k - 1].len == 0)) {
      f2i_run_lens.push_back(dec.runs[k].len);
    }
  }
  ASSERT_GE(f2i_run_lens.size(), 2u);
  EXPECT_EQ(f2i_run_lens[0], 1u);
  EXPECT_GE(f2i_run_lens[1], 2u);

  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<std::pair<float, std::uint32_t>> edges = {
      {std::numeric_limits<float>::quiet_NaN(), 0u},
      {-std::numeric_limits<float>::quiet_NaN(), 0u},
      {inf, 0xFFFFFFFFu},
      {-inf, 0u},
      {5e9f, 0xFFFFFFFFu},
      {4294967296.0f, 0xFFFFFFFFu},  // 2^32
      {4294967040.0f, 4294967040u},  // the largest float below 2^32
      {2147483648.0f, 0x80000000u},  // 2^31
      {3e9f, 3000000000u},
      {-1.0f, 0u},
      {-0.0f, 0u},
      {0.0f, 0u},
      {1.5f, 1u},
      {0.999f, 0u},
      {-0.5f, 0u},
      {std::numeric_limits<float>::denorm_min(), 0u},
      {-std::numeric_limits<float>::denorm_min(), 0u},
  };
  std::vector<std::uint32_t> input(n);
  std::vector<std::uint32_t> want(n);
  for (std::uint32_t t = 0; t < n; ++t) {
    const float f = t < edges.size() ? edges[t].first
                                     : static_cast<float>(t) * 1.75f - 40.0f;
    input[t] = std::bit_cast<std::uint32_t>(f);
    want[t] = cvt_rzi_u32(f);
    if (t < edges.size()) {
      ASSERT_EQ(want[t], edges[t].second) << "longhand, lane " << t;
    }
  }

  const auto check = [&](const Outcome& r, const std::string& what) {
    for (std::uint32_t k = 0; k < 3; ++k) {
      for (std::uint32_t t = 0; t < n; ++t) {
        EXPECT_EQ(r.out[k * n + t], want[t])
            << what << ", conversion " << k << ", input 0x" << std::hex
            << input[t] << std::dec << " (lane " << t << ")";
      }
    }
  };
  const Outcome fref = launch(prog, cfg, input, 3 * n, false, true);
  check(fref, "functional reference");
  const Outcome ffast = launch(prog, cfg, input, 3 * n, false, false);
  check(ffast, "functional fast");
  EXPECT_TRUE(ffast.stats.core() == fref.stats.core());
  const Outcome tref = launch(prog, cfg, input, 3 * n, true, true);
  check(tref, "timed reference");
  for (const std::uint32_t threads : {1u, 2u, 4u}) {
    const Outcome tfast = launch(prog, cfg, input, 3 * n, true, false, threads);
    check(tfast, "timed fast, " + std::to_string(threads) + " threads");
    EXPECT_TRUE(tfast.stats.core() == tref.stats.core())
        << "timed stats diverged, threads " << threads;
  }
}

}  // namespace
}  // namespace vgpu
