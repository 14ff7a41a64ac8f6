// Warp-uniform shared loads inside straight-line runs.
//
// decode() lets a guard-free shared load join a run when its divergence
// analysis proves the address warp-uniform. Such a load then executes with
// the rest of its run: at once in the functional executor, and - issued for
// timing only - at its warp's next step in the timing executor, or earlier,
// when another warp of the block stores to shared memory first. This suite
// pins that design against the reference interpreter:
//
//  * SharedRuns.StoreBetweenIssueAndExecution - one warp loads, the other
//    stores, no barrier: the pending load must execute before the store;
//  * SharedRuns.DivergentlyDefinedAddressStartsNoRun - an address that is
//    an immediate on both sides of a %tid-parity branch varies by lane
//    after reconvergence, so its load must stay out of runs;
//  * SharedFuzzSeed - a seeded generator of shared-memory kernels with
//    uniform, lane-varying and divergently defined addresses, some with
//    cross-warp stores and no barrier, checked fast against reference in
//    both executors under all three drivers at 1/2/4 timing threads.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "vgpu/asm.hpp"
#include "vgpu/builder.hpp"
#include "vgpu/decode.hpp"
#include "vgpu/device.hpp"
#include "vgpu/opt.hpp"
#include "vgpu/regalloc.hpp"
#include "vgpu/verify.hpp"
#include "serial_golden.hpp"

namespace vgpu {
namespace {

/// One launch's results: output words and, for timed runs, the digests of
/// cycles, LaunchStats::core() and device memory.
struct Outcome {
  std::vector<std::uint32_t> out;
  LaunchStats stats;
  golden::Digests digests;
};

/// Runs `prog` on a fresh g80 device over a deterministic input of
/// `threads_total` floats (param 0) with an output of the same size
/// (param 1).
Outcome launch(const Program& prog, const LaunchConfig& cfg, bool timed,
               bool reference, DriverModel driver = DriverModel::kCuda10,
               std::uint32_t threads = 1) {
  const std::uint32_t n = cfg.grid_blocks * cfg.block_threads;
  Device dev(g80_spec(), 1 << 20);
  std::vector<float> input(n);
  for (std::uint32_t k = 0; k < n; ++k) {
    input[k] = static_cast<float>(k % 41) * 0.375f - 6.0f;
  }
  const Buffer bin = dev.upload<float>(input);
  const Buffer bout = dev.malloc_n<float>(n);
  const std::vector<std::uint32_t> params = {bin.addr, bout.addr};
  Outcome r;
  if (timed) {
    TimingOptions topt;
    topt.driver = driver;
    topt.reference = reference;
    topt.threads = threads;
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

/// Functional fast against reference, and timed fast against the 1-thread
/// reference at 1/2/4 threads: outputs, LaunchStats::core() and, timed,
/// cycles and device memory.
void expect_fast_matches_reference(const Program& prog,
                                   const LaunchConfig& cfg,
                                   DriverModel driver,
                                   const std::string& what) {
  const Outcome fref = launch(prog, cfg, /*timed=*/false, true, driver);
  const Outcome ffast = launch(prog, cfg, /*timed=*/false, false, driver);
  EXPECT_EQ(ffast.out, fref.out) << what << ": functional outputs diverged";
  EXPECT_TRUE(ffast.stats.core() == fref.stats.core())
      << what << ": functional stats diverged";
  const Outcome tref = launch(prog, cfg, /*timed=*/true, true, driver);
  for (const std::uint32_t threads : {1u, 2u, 4u}) {
    const Outcome tfast =
        launch(prog, cfg, /*timed=*/true, false, driver, threads);
    EXPECT_EQ(tfast.out, tref.out)
        << what << ": timed outputs diverged, threads " << threads;
    EXPECT_TRUE(tfast.stats.core() == tref.stats.core())
        << what << ": timed stats diverged, threads " << threads
        << " (cycles " << tfast.stats.cycles << " vs " << tref.stats.cycles
        << ")";
    EXPECT_EQ(tfast.digests, tref.digests)
        << what << ": timed digests diverged, threads " << threads;
  }
}

// Warp 0 loads shared word 0 through a uniform address (so the load joins
// its run and, timed, issues for timing only); warp 1 stores 7.0 there with
// no barrier in between. In the issue order the load comes first and reads
// 0, so warp 0 writes 0 * 16 at its global thread index. Warp 0's run is
// long enough that warp 1's store issues before the run's terminator:
// unless the store first executes warp 0's pending range, the load reads
// 7.0 and 112.0 is written.
constexpr const char* kCrossWarpStore = R"(
.kernel cross_warp_store  (params=2, shared=64B)
B0:   // region S
    mov.special r0, %warpid
    setp.eq.u32 p0, r0, 0
    bra.cond p0, B1, else B2, reconv B3
B1:   // region P
    mov.imm r2, 0x0
    ld.shared.32b r3, [r2+0]
    mov.imm r4, 0x41800000
    fadd r5, r4, r4
    fadd r6, r5, r5
    fadd r7, r6, r6
    fadd r8, r7, r7
    fmul r9, r3, r4
    mov.special r10, %tid
    mov.special r17, %ctaid
    mov.special r18, %ntid
    imad r19, r17, r18, r10
    mov.imm r11, 0x2
    shl r12, r19, r11
    mov.param r15, param[1]
    iadd r16, r15, r12
    st.global.32b [r16+0], r9
    bra B3
B2:   // region P
    mov.imm r13, 0x0
    mov.imm r14, 0x40e00000
    st.shared.32b [r13+0], r14
    bra B3
B3:   // region other
    exit
)";

TEST(SharedRuns, StoreBetweenIssueAndExecution) {
  Program prog = assemble(kCrossWarpStore);
  allocate_registers(prog);
  const DecodedProgram dec = decode(prog);
  ASSERT_GE(dec.run_at(1, 0).len, 16u) << "the load must sit inside a run";
  EXPECT_EQ(dec.run_at(1, 0).shared_loads[0], 1u);

  const LaunchConfig cfg{4, 64};
  const Outcome ref = launch(prog, cfg, /*timed=*/true, /*reference=*/true);
  for (std::uint32_t t = 0; t < cfg.grid_blocks * cfg.block_threads; ++t) {
    ASSERT_EQ(ref.out[t], 0u) << "the reference load must read 0, thread "
                              << t;
  }
  expect_fast_matches_reference(prog, cfg, DriverModel::kCuda10,
                                "cross-warp store");
}

// The address r3 is an immediate on both sides of a %tid-parity branch,
// so after reconvergence at B3 even lanes read shared word 0 and odd lanes
// word 1. The analysis marks the blocks the branch reaches before B3 as
// divergent, so r3 varies and the load starts no run; were it admitted,
// the warp-uniform contract of the run's load would fire.
constexpr const char* kDivergentAddress = R"(
.kernel divergent_address  (params=2, shared=256B)
B0:   // region S
    mov.special r0, %tid
    mov.imm r1, 0x2
    shl r2, r0, r1
    i2f r4, r0
    st.shared.32b [r2+0], r4
    bar.sync
    mov.imm r5, 0x1
    and r6, r0, r5
    setp.eq.u32 p0, r6, 0
    bra.cond p0, B1, else B2, reconv B3
B1:   // region P
    mov.imm r3, 0x0
    bra B3
B2:   // region P
    mov.imm r3, 0x4
    bra B3
B3:   // region other
    ld.shared.32b r7, [r3+0]
    mov.imm r8, 0x40000000
    fmul r9, r7, r8
    mov.special r12, %ctaid
    mov.special r13, %ntid
    imad r14, r12, r13, r0
    shl r15, r14, r1
    mov.param r10, param[1]
    iadd r11, r10, r15
    st.global.32b [r11+0], r9
    exit
)";

TEST(SharedRuns, DivergentlyDefinedAddressStartsNoRun) {
  Program prog = assemble(kDivergentAddress);
  allocate_registers(prog);
  const DecodedProgram dec = decode(prog);
  EXPECT_EQ(dec.run_at(3, 0).len, 0u)
      << "a load whose address varies by lane must not start a run";

  const LaunchConfig cfg{2, 64};
  const Outcome ref = launch(prog, cfg, /*timed=*/false, /*reference=*/true);
  for (std::uint32_t t = 0; t < cfg.grid_blocks * cfg.block_threads; ++t) {
    const float want = (t % 2 == 0 ? 0.0f : 1.0f) * 2.0f;
    ASSERT_EQ(ref.out[t], std::bit_cast<std::uint32_t>(want)) << "thread " << t;
  }
  expect_fast_matches_reference(prog, cfg, DriverModel::kCuda10,
                                "divergently defined address");
}

/// Generates a random shared-memory kernel: each thread stages its input in
/// shared memory (usually followed by a barrier), then reads shared memory
/// through a random mix of address kinds - warp-uniform (immediates,
/// %warpid/%ctaid arithmetic, loop counters), varying by lane, and
/// uniform-looking but defined under a divergent branch or a per-lane loop -
/// at 32/64/128-bit widths, folding each value into an accumulator with ALU
/// ops and predicate writers. Some kernels store across warps with no
/// barrier, so the order of one warp's loads and another's stores matters.
/// Separate from the main fuzz grammar, whose seeds serial_golden.inc
/// records.
class SharedKernelGen {
 public:
  static constexpr std::uint32_t kSharedBytes = 512;

  explicit SharedKernelGen(std::uint32_t seed) : rng_(seed) {}

  Program generate() {
    KernelBuilder kb("shared_fuzz", 2);
    Val base = kb.shared_alloc(kSharedBytes);
    tid_ = kb.tid();
    warp_ = kb.special(Special::kWarpId);
    Val i = kb.iadd(kb.imul(kb.ctaid(), kb.ntid()), tid_);
    Val x = kb.ld_global_f32(kb.iadd(kb.param_u32(0), kb.shl(i, 2)));
    kb.st_shared(kb.iadd(base, kb.shl(tid_, 2)), x);
    if (rng_() % 4 != 0) kb.bar();

    acc_ = kb.var_f32(x);
    const int loads = 3 + static_cast<int>(rng_() % 6);
    for (int k = 0; k < loads; ++k) {
      switch (rng_() % 5) {
        case 0:
          // a tile loop, as the far-field kernel reads its tile
          kb.for_counted(2 + static_cast<std::uint32_t>(rng_() % 4),
                         [&](Val iv) { fold(kb, load(kb, base, iv)); });
          break;
        case 1: {
          // a store by one warp, with no barrier before the other warps
          // load the same address
          const std::uint32_t who = static_cast<std::uint32_t>(rng_() % 2);
          Val addr = address(kb, base, MemWidth::kW32, kb.imm_u32(0));
          Val v = acc_;
          kb.if_then(kb.setp_u32_imm(CmpOp::kEq, warp_, who),
                     [&] { kb.st_shared(addr, v); });
          fold(kb, kb.ld_shared_f32(addr));
          break;
        }
        default:
          fold(kb, load(kb, base, kb.imm_u32(static_cast<std::uint32_t>(
                                      rng_() % 8))));
          break;
      }
    }
    kb.st_global(kb.iadd(kb.param_u32(1), kb.shl(i, 2)), acc_);
    return std::move(kb).finish();
  }

 private:
  /// A shared read of a random width through a random address kind.
  Val load(KernelBuilder& kb, Val base, Val salt) {
    static constexpr MemWidth kWidths[] = {MemWidth::kW32, MemWidth::kW64,
                                           MemWidth::kW128};
    const MemWidth w = kWidths[rng_() % 3];
    Val addr = address(kb, base, w, salt);
    if (w == MemWidth::kW32) return kb.ld_shared_f32(addr);
    Val v = kb.ld_shared_vec(addr, w, VType::kF32);
    return kb.fadd(kb.comp(v, 0), kb.comp(v, w == MemWidth::kW64 ? 1 : 3));
  }

  /// A byte address aligned to `w` inside the shared array, of one of the
  /// three kinds. `salt` (uniform) varies the address between call sites.
  Val address(KernelBuilder& kb, Val base, MemWidth w, Val salt) {
    const std::uint32_t bytes = width_bytes(w);
    const std::uint32_t shift = bytes == 4 ? 2 : bytes == 8 ? 3 : 4;
    Val mask = kb.imm_u32(kSharedBytes / bytes - 1);
    const auto scaled = [&](Val index) {
      return kb.iadd(base, kb.shl(kb.band(index, mask), shift));
    };
    switch (rng_() % 6) {
      case 0:  // an immediate
        return kb.iadd(base, kb.imm_u32(static_cast<std::uint32_t>(
                                 rng_() % (kSharedBytes / bytes)) *
                             bytes));
      case 1:  // warp-uniform, different per warp
        return scaled(kb.iadd(kb.iadd(warp_, salt),
                              kb.imm_u32(static_cast<std::uint32_t>(rng_() % 8))));
      case 2:  // block-uniform
        return scaled(kb.iadd(kb.ctaid(), salt));
      case 3:  // varying by lane
        return scaled(kb.iadd(tid_, kb.imm_u32(static_cast<std::uint32_t>(
                                        rng_() % 16))));
      case 4: {  // uniform-looking: an immediate on both sides of a branch
        Val a = kb.var_u32(kb.imm_u32(0));
        const std::uint32_t lo = static_cast<std::uint32_t>(rng_() % 8);
        const std::uint32_t hi = lo + 1 + static_cast<std::uint32_t>(rng_() % 8);
        PVal p = kb.setp_u32_imm(
            CmpOp::kEq,
            kb.band(tid_,
                    kb.imm_u32(1u + static_cast<std::uint32_t>(rng_() % 3))),
            0);
        kb.if_then_else(p, [&] { kb.assign(a, kb.imm_u32(lo)); },
                        [&] { kb.assign(a, kb.imm_u32(hi)); });
        return scaled(kb.iadd(a, salt));
      }
      default: {  // uniform-looking: counted up by a per-lane loop
        Val a = kb.var_u32(salt);
        kb.for_dynamic(kb.band(tid_, kb.imm_u32(3)),
                       [&](Val) { kb.assign(a, kb.iadd_imm(a, 1)); });
        return scaled(a);
      }
    }
  }

  /// Folds a loaded value into the accumulator, sometimes through a
  /// predicate write and a select.
  void fold(KernelBuilder& kb, Val v) {
    switch (rng_() % 3) {
      case 0:
        kb.assign(acc_, kb.fadd(acc_, v));
        break;
      case 1:
        kb.assign(acc_, kb.ffma(v, kb.imm_f32(0.5f), acc_));
        break;
      default: {
        PVal p = kb.setp_f32(CmpOp::kLt, v, acc_);
        PVal q = kb.setp_u32_imm(CmpOp::kNe, kb.band(warp_, kb.imm_u32(1)), 0);
        kb.assign(acc_, kb.sel(kb.por(p, kb.pnot(q)), kb.fadd(acc_, v),
                               kb.fsub(acc_, v)));
        break;
      }
    }
  }

  std::mt19937 rng_;
  Val tid_;
  Val warp_;
  Val acc_;
};

Program shared_fuzz_program(std::uint32_t seed) {
  SharedKernelGen gen(seed);
  Program p = gen.generate();
  run_standard_pipeline(p);
  allocate_registers(p);
  verify(p);
  return p;
}

class SharedFuzzSeed : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SharedFuzzSeed, FastPathMatchesReference) {
  const Program p = shared_fuzz_program(GetParam());
  const LaunchConfig cfg{4, GetParam() % 2 == 0 ? 64u : 128u};
  for (const DriverModel driver :
       {DriverModel::kCuda10, DriverModel::kCuda11, DriverModel::kCuda22}) {
    expect_fast_matches_reference(
        p, cfg, driver,
        "seed " + std::to_string(GetParam()) + ", driver " +
            to_string(driver));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharedFuzzSeed,
                         ::testing::Range<std::uint32_t>(1, 41));

// The generator is only worth its seeds if it reaches both sides of the
// rule: shared loads inside runs and shared loads left out of them.
TEST(SharedFuzz, SeedsReachLoadsInAndOutOfRuns) {
  std::size_t in_runs = 0;
  std::size_t outside = 0;
  for (std::uint32_t seed = 1; seed < 41; ++seed) {
    const DecodedProgram dec = decode(shared_fuzz_program(seed));
    for (std::size_t k = 0; k < dec.instrs.size(); ++k) {
      if (dec.instrs[k].op != Opcode::kLdShared) continue;
      ++(dec.runs[k].len != 0 ? in_runs : outside);
    }
  }
  EXPECT_GT(in_runs, 20u);
  EXPECT_GT(outside, 20u);
}

}  // namespace
}  // namespace vgpu
