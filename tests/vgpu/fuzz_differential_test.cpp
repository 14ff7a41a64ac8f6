// Differential fuzzing of the compiler pipeline: random (but type-correct)
// kernels are generated from a seeded grammar, executed raw, then executed
// again after every optimization pass and after register allocation - all
// four executions must agree bit-for-bit. This is the strongest correctness
// evidence for the pass/allocator combination the paper experiments hinge
// on.
//
// A second differential axis covers the executor itself: every seed also
// runs the pre-decoded fast path against the reference interpreter
// (FunctionalOptions/TimingOptions `reference`) under all three driver
// models, demanding bit-identical memory results and identical
// LaunchStats::core() - cycles included in timing mode. Timed runs are
// also checked against the serial driver's recorded results
// (serial_golden.hpp). Two more axes pit the fast paths' dispatch
// machinery against each other: whole-run threaded dispatch (functional)
// against per-instruction issue (timed), and superblock traces against
// the plain threaded loops they were compiled from.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <random>
#include <vector>

#include "vgpu/builder.hpp"
#include "vgpu/device.hpp"
#include "vgpu/opt.hpp"
#include "vgpu/progcache.hpp"
#include "vgpu/regalloc.hpp"
#include "vgpu/threaded.hpp"
#include "vgpu/traces.hpp"
#include "vgpu/verify.hpp"
#include "serial_golden.hpp"

namespace vgpu {
namespace {

/// Generates a random straight-line-plus-structured kernel that reads an
/// input array, computes through a random op DAG (reusing live values),
/// optionally loops/branches, and writes one result per thread.
class RandomKernelGen {
 public:
  explicit RandomKernelGen(std::uint32_t seed) : rng_(seed) {}

  Program generate() {
    KernelBuilder kb("fuzz", 2);
    Val i = kb.iadd(kb.imul(kb.ctaid(), kb.ntid()), kb.tid());
    Val in_addr = kb.iadd(kb.param_u32(0), kb.shl(i, 2));

    std::vector<Val> fpool;
    std::vector<Val> upool;
    fpool.push_back(kb.ld_global_f32(in_addr));
    fpool.push_back(kb.imm_f32(pick_float()));
    fpool.push_back(kb.ld_global_f32(in_addr, 4096));
    upool.push_back(i);
    upool.push_back(kb.imm_u32(static_cast<std::uint32_t>(rng_() % 64)));
    upool.push_back(kb.band(i, kb.imm_u32(7)));

    const int ops = 10 + static_cast<int>(rng_() % 25);
    for (int k = 0; k < ops; ++k) {
      emit_random_op(kb, fpool, upool);
    }

    // maybe a counted loop accumulating over the pools, optionally with a
    // divergent if nested inside the body
    if (rng_() % 2 == 0) {
      Val acc = kb.var_f32(fpool.back());
      const std::uint32_t trip = 2u + static_cast<std::uint32_t>(rng_() % 6);
      const bool nested_if = rng_() % 2 == 0;
      Val sel_a = pick(fpool);
      Val sel_b = pick(fpool);
      kb.for_counted(trip, [&](Val iv) {
        Val t = kb.fadd(acc, kb.fmul(pick(fpool), kb.imm_f32(0.25f)));
        if (nested_if) {
          PVal p = kb.setp_u32(CmpOp::kLt, kb.band(upool.front(), kb.imm_u32(3)),
                               kb.band(iv, kb.imm_u32(3)));
          kb.if_then_else(p, [&] { kb.assign(acc, kb.fadd(t, sel_a)); },
                          [&] { kb.assign(acc, kb.fmax(t, sel_b)); });
        } else {
          kb.assign(acc, t);
        }
      });
      fpool.push_back(acc);
    }

    // maybe a per-lane dynamic loop (divergent trip counts)
    if (rng_() % 3 == 0) {
      Val acc = kb.var_f32(kb.imm_f32(1.0f));
      Val trips = kb.band(upool.front(), kb.imm_u32(3));
      kb.for_dynamic(trips, [&](Val iv) {
        kb.assign(acc, kb.ffma(kb.i2f(iv), kb.imm_f32(0.5f), acc));
      });
      fpool.push_back(acc);
    }

    // maybe a vector load with component reuse
    if (rng_() % 3 == 0) {
      Val block16 = kb.band(upool.front(), kb.imm_u32(63));
      Val vaddr = kb.imad(block16, kb.imm_u32(16), kb.param_u32(0));
      Val v = kb.ld_global_vec(vaddr, MemWidth::kW128, VType::kF32);
      fpool.push_back(kb.fadd(kb.comp(v, rng_() % 4 == 0 ? 3 : 1),
                              kb.comp(v, 0)));
    }

    // maybe a divergent if/else writing a selected value
    Val result = pick(fpool);
    if (rng_() % 2 == 0) {
      Val sel_val = kb.var_f32(result);
      PVal p = kb.setp_u32(CmpOp::kLt, kb.band(upool.front(), kb.imm_u32(3)),
                           kb.imm_u32(1u + static_cast<std::uint32_t>(rng_() % 3)));
      Val a = pick(fpool);
      Val b = pick(fpool);
      kb.if_then_else(p, [&] { kb.assign(sel_val, a); },
                      [&] { kb.assign(sel_val, kb.fmul(b, kb.imm_f32(0.5f))); });
      result = sel_val;
    }

    kb.st_global(kb.iadd(kb.param_u32(1), kb.shl(i, 2)), result);
    return std::move(kb).finish();
  }

 private:
  float pick_float() {
    return static_cast<float>(static_cast<int>(rng_() % 1000) - 500) / 64.0f;
  }
  Val pick(const std::vector<Val>& pool) {
    return pool[rng_() % pool.size()];
  }
  void emit_random_op(KernelBuilder& kb, std::vector<Val>& fpool,
                      std::vector<Val>& upool) {
    switch (rng_() % 10) {
      case 0: fpool.push_back(kb.fadd(pick(fpool), pick(fpool))); break;
      case 1: fpool.push_back(kb.fsub(pick(fpool), pick(fpool))); break;
      case 2: fpool.push_back(kb.fmul(pick(fpool), pick(fpool))); break;
      case 3:
        fpool.push_back(kb.ffma(pick(fpool), pick(fpool), pick(fpool)));
        break;
      case 4: fpool.push_back(kb.fmax(pick(fpool), pick(fpool))); break;
      case 5: fpool.push_back(kb.fabs(pick(fpool))); break;
      case 6: upool.push_back(kb.iadd(pick(upool), pick(upool))); break;
      case 7: upool.push_back(kb.iadd_imm(pick(upool), static_cast<std::uint32_t>(rng_() % 256))); break;
      case 8: upool.push_back(kb.band(pick(upool), kb.imm_u32(0xFF))); break;
      case 9: fpool.push_back(kb.i2f(kb.band(pick(upool), kb.imm_u32(31)))); break;
      default: break;
    }
  }

  std::mt19937 rng_;
};

std::vector<std::uint32_t> run_program(const Program& prog) {
  const std::uint32_t n = 128;
  Device dev(tiny_spec(), 1 << 20);
  std::vector<float> input(4096);
  std::mt19937 rng(99);
  std::uniform_real_distribution<float> dist(-8.0f, 8.0f);
  for (float& v : input) v = dist(rng);
  Buffer bin = dev.upload<float>(input);
  Buffer bout = dev.malloc_n<float>(n);
  const std::uint32_t params[2] = {bin.addr, bout.addr};
  dev.launch_functional(prog, LaunchConfig{n / 64, 64}, params);
  std::vector<std::uint32_t> out(n);
  dev.download<std::uint32_t>(out, bout);
  return out;
}

/// One execution (fast or reference, functional or timed) of a fuzz
/// program on a fresh device with the shared deterministic input.
struct DiffRun {
  std::vector<std::uint32_t> out;
  LaunchStats stats;
  golden::Digests digests;  ///< timed runs only
};

DiffRun run_diff(const Program& prog, DriverModel driver, bool timed,
                 bool reference, std::uint32_t threads = 1,
                 Attribution* attr = nullptr) {
  const std::uint32_t n = 128;
  Device dev(tiny_spec(), 1 << 20);
  std::vector<float> input(4096);
  std::mt19937 rng(99);
  std::uniform_real_distribution<float> dist(-8.0f, 8.0f);
  for (float& v : input) v = dist(rng);
  Buffer bin = dev.upload<float>(input);
  Buffer bout = dev.malloc_n<float>(n);
  const std::uint32_t params[2] = {bin.addr, bout.addr};
  const LaunchConfig cfg{n / 64, 64};
  DiffRun r;
  if (timed) {
    TimingOptions topt;
    topt.driver = driver;
    topt.reference = reference;
    topt.threads = threads;
    topt.attribution = attr;
    r.stats = dev.launch_timed(prog, cfg, params, topt);
    r.digests = golden::digests(r.stats, dev.gmem());
  } else {
    FunctionalOptions fopt;
    fopt.driver = driver;
    fopt.reference = reference;
    r.stats = dev.launch_functional(prog, cfg, params, fopt);
  }
  r.out.resize(n);
  dev.download<std::uint32_t>(r.out, bout);
  return r;
}

/// The LaunchStats counters both executors keep - instruction and memory
/// traffic accounting - with every timing-only field left at its default.
LaunchStats work_counters(const LaunchStats& s) {
  LaunchStats w;
  w.warp_instructions = s.warp_instructions;
  w.region_instructions = s.region_instructions;
  w.instr_class_counts = s.instr_class_counts;
  w.divergent_branches = s.divergent_branches;
  w.global_requests = s.global_requests;
  w.global_transactions = s.global_transactions;
  w.global_bytes = s.global_bytes;
  w.coalesced_requests = s.coalesced_requests;
  w.uncoalesced_requests = s.uncoalesced_requests;
  w.shared_requests = s.shared_requests;
  w.shared_conflict_extra = s.shared_conflict_extra;
  w.local_requests = s.local_requests;
  w.const_requests = s.const_requests;
  w.tex_requests = s.tex_requests;
  w.barriers = s.barriers;
  w.blocks_total = s.blocks_total;
  return w;
}

class FuzzSeed : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(FuzzSeed, PassesAndAllocatorPreserveSemantics) {
  RandomKernelGen gen(GetParam());
  Program raw = gen.generate();
  verify(raw);
  const auto want = run_program(raw);

  // each pass in isolation
  {
    RandomKernelGen g2(GetParam());
    Program p = g2.generate();
    fold_constants(p);
    verify(p);
    EXPECT_EQ(run_program(p), want) << "fold_constants diverged";
  }
  {
    RandomKernelGen g2(GetParam());
    Program p = g2.generate();
    propagate_copies(p);
    verify(p);
    EXPECT_EQ(run_program(p), want) << "propagate_copies diverged";
  }
  {
    RandomKernelGen g2(GetParam());
    Program p = g2.generate();
    fold_addresses(p);
    verify(p);
    EXPECT_EQ(run_program(p), want) << "fold_addresses diverged";
  }
  {
    RandomKernelGen g2(GetParam());
    Program p = g2.generate();
    eliminate_dead_code(p);
    verify(p);
    EXPECT_EQ(run_program(p), want) << "dce diverged";
  }
  // the full pipeline + register allocation
  {
    RandomKernelGen g2(GetParam());
    Program p = g2.generate();
    run_standard_pipeline(p);
    allocate_registers(p);
    verify(p);
    EXPECT_EQ(run_program(p), want) << "pipeline+regalloc diverged";
  }
}

TEST_P(FuzzSeed, FastPathMatchesReferenceExecutor) {
  RandomKernelGen gen(GetParam());
  Program p = gen.generate();
  run_standard_pipeline(p);
  allocate_registers(p);
  verify(p);

  for (const DriverModel driver :
       {DriverModel::kCuda10, DriverModel::kCuda11, DriverModel::kCuda22}) {
    {
      const DiffRun ref = run_diff(p, driver, /*timed=*/false, true);
      const DiffRun fast = run_diff(p, driver, /*timed=*/false, false);
      EXPECT_EQ(fast.out, ref.out)
          << "functional outputs diverged, driver " << to_string(driver);
      EXPECT_TRUE(fast.stats.core() == ref.stats.core())
          << "functional stats diverged, driver " << to_string(driver);
    }
    {
      const DiffRun ref = run_diff(p, driver, /*timed=*/true, true);
      const DiffRun fast = run_diff(p, driver, /*timed=*/true, false);
      EXPECT_EQ(fast.out, ref.out)
          << "timed outputs diverged, driver " << to_string(driver);
      EXPECT_EQ(fast.stats.cycles, ref.stats.cycles)
          << "cycle count diverged, driver " << to_string(driver);
      EXPECT_TRUE(fast.stats.core() == ref.stats.core())
          << "timed stats diverged, driver " << to_string(driver);
    }
  }
}

// Third differential axis: the timing executor's thread count. At 1, 2
// and 4 threads, the fast path and the reference interpreter must each
// reproduce the serial driver's recorded run - cycles, every
// LaunchStats::core() field and device memory - for every seed and driver
// model.
TEST_P(FuzzSeed, ThreadedTimingMatchesSingleThreaded) {
  RandomKernelGen gen(GetParam());
  Program p = gen.generate();
  run_standard_pipeline(p);
  allocate_registers(p);
  verify(p);

  struct Mode {
    const char* name;
    bool reference;
  };
  for (const DriverModel driver :
       {DriverModel::kCuda10, DriverModel::kCuda11, DriverModel::kCuda22}) {
    const golden::Digests* want = golden::fuzz_record(GetParam(), driver);
    ASSERT_NE(want, nullptr) << "no serial record, driver " << to_string(driver);
    for (const std::uint32_t threads : {1u, 2u, 4u}) {
      for (const Mode m : {Mode{"fast", false}, Mode{"reference", true}}) {
        const DiffRun r =
            run_diff(p, driver, /*timed=*/true, m.reference, threads);
        EXPECT_EQ(r.digests, *want)
            << m.name << " run left the serial record, driver "
            << to_string(driver) << ", threads " << threads;
      }
    }
  }
}

// Fourth differential axis: stall attribution. For every seed and driver
// the per-PC table must (a) not perturb a single simulated counter, (b)
// reconcile exactly with the LaunchStats aggregates, and (c) come out
// bit-identical at 1/2/4 threads.
TEST_P(FuzzSeed, AttributionReconcilesAcrossConfigs) {
  RandomKernelGen gen(GetParam());
  Program p = gen.generate();
  run_standard_pipeline(p);
  allocate_registers(p);
  verify(p);

  for (const DriverModel driver :
       {DriverModel::kCuda10, DriverModel::kCuda11, DriverModel::kCuda22}) {
    const DiffRun plain = run_diff(p, driver, /*timed=*/true, false);
    Attribution base;
    const DiffRun first =
        run_diff(p, driver, /*timed=*/true, false, 1, &base);
    EXPECT_TRUE(first.stats.core() == plain.stats.core())
        << "attribution perturbed the run, driver " << to_string(driver);
    ASSERT_TRUE(base.collected) << to_string(driver);
    EXPECT_TRUE(reconciles(base, first.stats))
        << "attribution does not reconcile, driver " << to_string(driver);

    for (const std::uint32_t threads : {2u, 4u}) {
      Attribution other;
      const DiffRun r =
          run_diff(p, driver, /*timed=*/true, false, threads, &other);
      EXPECT_TRUE(r.stats.core() == first.stats.core())
          << "stats diverged, driver " << to_string(driver)
          << " threads=" << threads;
      EXPECT_TRUE(reconciles(other, r.stats))
          << "attribution does not reconcile, driver " << to_string(driver)
          << " threads=" << threads;
      EXPECT_TRUE(other == base)
          << "attribution table diverged, driver " << to_string(driver)
          << " threads=" << threads;
    }
  }
}

// Fifth differential axis: run dispatch. The functional fast path executes
// every converged straight-line run in one dispatch - a superblock trace or
// the threaded-code loop - while the timed fast path issues the same
// decoded instructions one at a time through exec_alu's opcode switch. For
// every seed and driver both must leave bit-identical memory and count the
// same instructions and memory traffic, at 1/2/4 timing threads.
TEST_P(FuzzSeed, ThreadedDispatchMatchesSwitch) {
  RandomKernelGen gen(GetParam());
  Program p = gen.generate();
  run_standard_pipeline(p);
  allocate_registers(p);
  verify(p);

  for (const DriverModel driver :
       {DriverModel::kCuda10, DriverModel::kCuda11, DriverModel::kCuda22}) {
    const DiffRun th = run_diff(p, driver, /*timed=*/false, false);
    EXPECT_GT(th.stats.traces_entered, 0u)
        << "functional run dispatched no trace, driver " << to_string(driver);
    for (const std::uint32_t threads : {1u, 2u, 4u}) {
      const DiffRun sw = run_diff(p, driver, /*timed=*/true, false, threads);
      EXPECT_EQ(sw.stats.traces_entered, 0u)
          << "timed run dispatched a trace, driver " << to_string(driver)
          << ", threads " << threads;
      EXPECT_EQ(sw.out, th.out)
          << "dispatch outputs diverged, driver " << to_string(driver)
          << ", threads " << threads;
      EXPECT_TRUE(work_counters(sw.stats) == work_counters(th.stats))
          << "dispatch counters diverged, driver " << to_string(driver)
          << ", threads " << threads;
    }
  }
}

// Sixth differential axis: specialized run execution. Every superblock
// trace compiled for the seed's program (traces.hpp: uniform and FMA-pair
// segments) must leave a warp's registers bit-identical to the plain
// threaded loops over the run it was compiled from - the computed-goto
// loop and its portable switch twin - from the same register contents.
TEST_P(FuzzSeed, SpecializedMatchesPlain) {
  RandomKernelGen gen(GetParam());
  Program p = gen.generate();
  run_standard_pipeline(p);
  allocate_registers(p);
  verify(p);

  const std::shared_ptr<const CompiledKernel> ck =
      acquire_compiled(p, /*use_cache=*/false);
  const DecodedProgram& dec = ck->decoded();
  const TraceProgram& traces = ck->traces();
  const ThreadedOp* const ops = ck->threaded().ops.data();
  ASSERT_EQ(traces.trace_at.size(), dec.instrs.size());

  // lane contents like a launch's: finite floats and small integers
  std::mt19937 rng(GetParam());
  std::uniform_real_distribution<float> fdist(-8.0f, 8.0f);
  std::vector<std::uint32_t> regs(std::size_t{p.reg_file_size} * 32u);
  for (std::uint32_t& v : regs) {
    v = rng() % 2 == 0 ? std::bit_cast<std::uint32_t>(fdist(rng))
                       : static_cast<std::uint32_t>(rng() % 4096);
  }
  std::vector<std::uint32_t> preds(std::max(p.num_preds, 1u));
  for (std::uint32_t& m : preds) m = static_cast<std::uint32_t>(rng());
  const std::uint32_t params[2] = {0x1000u, 0x9000u};
  ThreadedCtx ctx;
  ctx.params = params;
  ctx.block_id = 1;
  ctx.block_threads = 64;
  ctx.grid_blocks = 2;
  ctx.warp_index = 1;
  ctx.base_thread = 32;

  std::size_t checked = 0;
  for (std::size_t i = 0; i < traces.trace_at.size(); ++i) {
    const std::uint32_t t = traces.trace_at[i];
    if (t == kNoTrace) continue;
    const std::uint32_t len = dec.runs[i].len;
    std::vector<std::uint32_t> via_trace = regs;
    std::vector<std::uint32_t> via_goto = regs;
    std::vector<std::uint32_t> via_switch = regs;
    exec_trace(traces, t, via_trace.data(), preds.data(), ctx);
    exec_threaded(ops + i, len, via_goto.data(), preds.data(), ctx);
    exec_threaded_portable(ops + i, len, via_switch.data(), preds.data(),
                           ctx);
    EXPECT_EQ(via_trace, via_goto)
        << "trace " << t << " at instr " << i << " left the threaded loop";
    EXPECT_EQ(via_switch, via_goto)
        << "portable loop diverged on the run at instr " << i;
    ++checked;
  }
  EXPECT_GT(checked, 0u) << "no trace compiled for the seed's program";
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeed,
                         ::testing::Range<std::uint32_t>(1, 61));

}  // namespace
}  // namespace vgpu
