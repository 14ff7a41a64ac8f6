// Fast-path equivalence on the real application kernels. The fuzz
// differential test covers the grammar's reach; this suite pins the
// kernels the paper's experiments actually run - far-field force in every
// layout scheme, unrolled + icm, texture fetches, register-capped spill
// code, the untiled ablation, the strip-down read kernel under all three
// drivers, and a constant-memory kernel - and demands that the pre-decoded
// fast executor and the reference interpreter produce bit-identical
// memory results and identical LaunchStats::core() (cycles included) on
// each of them. ScoreboardWatermark adds a hand-written launch whose loads
// complete out of issue order.
#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "gravit/kernels.hpp"
#include "gravit/spawn.hpp"
#include "layout/microbench.hpp"
#include "layout/transform.hpp"
#include "vgpu/asm.hpp"
#include "vgpu/builder.hpp"
#include "vgpu/device.hpp"
#include "vgpu/opt.hpp"
#include "vgpu/regalloc.hpp"
#include "serial_golden.hpp"

namespace vgpu {
namespace {

struct RunOutput {
  std::vector<std::uint32_t> out;
  LaunchStats stats;
};

/// Runs one launch (fast or reference, functional or timed) and downloads
/// `out_words` words from `out_buf`.
RunOutput run_once(Device& dev, const Program& prog, const LaunchConfig& cfg,
                   std::span<const std::uint32_t> params, DriverModel driver,
                   bool timed, bool reference, Buffer out_buf,
                   std::size_t out_words, std::uint32_t threads = 1) {
  RunOutput r;
  if (timed) {
    TimingOptions topt;
    topt.driver = driver;
    topt.reference = reference;
    topt.threads = threads;
    r.stats = dev.launch_timed(prog, cfg, params, topt);
  } else {
    FunctionalOptions fopt;
    fopt.driver = driver;
    fopt.reference = reference;
    r.stats = dev.launch_functional(prog, cfg, params, fopt);
  }
  r.out.resize(out_words);
  dev.download<std::uint32_t>(r.out, out_buf);
  return r;
}

/// Functional + timed, fast vs reference, on one prepared launch.
void expect_equivalent(Device& dev, const Program& prog,
                       const LaunchConfig& cfg,
                       std::span<const std::uint32_t> params,
                       DriverModel driver, Buffer out_buf,
                       std::size_t out_words, const std::string& what) {
  for (const bool timed : {false, true}) {
    const RunOutput ref = run_once(dev, prog, cfg, params, driver, timed,
                                   /*reference=*/true, out_buf, out_words);
    const RunOutput fast = run_once(dev, prog, cfg, params, driver, timed,
                                    /*reference=*/false, out_buf, out_words);
    const char* mode = timed ? "timed" : "functional";
    EXPECT_EQ(fast.out, ref.out) << what << ": " << mode << " outputs diverged";
    EXPECT_TRUE(fast.stats.core() == ref.stats.core())
        << what << ": " << mode << " stats diverged (cycles " << fast.stats.cycles
        << " vs " << ref.stats.cycles << ")";
    if (timed) {
      EXPECT_GT(fast.stats.cycles, 0u) << what;
      // the fast path must actually be exercising the memo on these kernels
      EXPECT_GT(fast.stats.coalesce_memo_hits + fast.stats.coalesce_memo_misses,
                0u)
          << what;
      // Multi-threaded timing must be bit-identical to single-threaded:
      // memory contents and LaunchStats::core(), cycles included. These
      // kernels run on the full g80 spec (16 SMs), so 2 and 4 threads are
      // genuinely concurrent, not clamped.
      for (const std::uint32_t threads : {2u, 4u}) {
        const RunOutput par =
            run_once(dev, prog, cfg, params, driver, /*timed=*/true,
                     /*reference=*/false, out_buf, out_words, threads);
        EXPECT_EQ(par.out, fast.out)
            << what << ": threads=" << threads << " outputs diverged";
        EXPECT_EQ(par.stats.cycles, fast.stats.cycles)
            << what << ": threads=" << threads << " cycles diverged";
        EXPECT_TRUE(par.stats.core() == fast.stats.core())
            << what << ": threads=" << threads << " stats diverged";
      }
    }
  }
}

void check_farfield(const gravit::KernelOptions& kopt) {
  const std::uint32_t n = 512;
  gravit::BuiltKernel built = gravit::make_farfield_kernel(kopt);
  Device dev(g80_spec(), 16u * 1024 * 1024);

  const std::uint32_t n_pad = (n + kopt.block - 1) / kopt.block * kopt.block;
  gravit::ParticleSet set = gravit::spawn_uniform_cube(n, 1.0f, 3);
  set.pad_to(n_pad);
  const std::vector<float> flat = set.flatten();
  const std::vector<std::byte> image = layout::pack(built.phys, flat, n_pad);
  Buffer img = dev.malloc(image.size());
  dev.memcpy_h2d(img, image);
  Buffer accel = dev.malloc(static_cast<std::size_t>(n_pad) * 12);
  std::vector<std::uint32_t> params;
  for (const std::uint64_t base : built.phys.group_bases(n_pad)) {
    params.push_back(img.addr + static_cast<std::uint32_t>(base));
  }
  params.push_back(accel.addr);
  params.push_back(n_pad / kopt.block);

  expect_equivalent(dev, built.prog, LaunchConfig{n_pad / kopt.block, kopt.block},
                    params, DriverModel::kCuda10, accel,
                    static_cast<std::size_t>(n_pad) * 3,
                    "farfield " + gravit::kernel_label(kopt));
}

TEST(FastPathEquivalence, FarfieldAllSchemes) {
  for (const layout::SchemeKind scheme :
       {layout::SchemeKind::kAoS, layout::SchemeKind::kSoA,
        layout::SchemeKind::kAoaS, layout::SchemeKind::kSoAoaS}) {
    gravit::KernelOptions kopt;
    kopt.scheme = scheme;
    check_farfield(kopt);
  }
}

TEST(FastPathEquivalence, FarfieldUnrolledIcm) {
  gravit::KernelOptions kopt;
  kopt.unroll = 32;
  kopt.icm = true;
  check_farfield(kopt);
}

TEST(FastPathEquivalence, FarfieldTextureFetches) {
  gravit::KernelOptions kopt;
  kopt.use_texture_fetches = true;
  check_farfield(kopt);
}

TEST(FastPathEquivalence, FarfieldRegisterCapSpills) {
  // max_regs forces local-memory spill traffic through both paths
  gravit::KernelOptions kopt;
  kopt.max_regs = 16;
  check_farfield(kopt);
}

TEST(FastPathEquivalence, FarfieldUntiled) {
  gravit::KernelOptions kopt;
  kopt.use_shared_tiles = false;
  check_farfield(kopt);
}

/// The read kernel for `scheme`, with the shared deterministic records
/// packed and uploaded to `dev` for an n-thread launch.
struct ReadLaunch {
  Program prog;
  std::vector<std::uint32_t> params;
  Buffer out;
};

ReadLaunch prepare_read_kernel(Device& dev, layout::SchemeKind scheme,
                               std::uint32_t n) {
  const layout::PhysicalLayout phys =
      layout::plan_layout(layout::gravit_record(), scheme);
  ReadLaunch r{layout::make_read_kernel(phys), {}, {}};
  std::vector<float> data(static_cast<std::size_t>(n) * 7);
  for (std::size_t k = 0; k < data.size(); ++k) {
    data[k] = static_cast<float>(k % 101) * 0.01f;
  }
  const std::vector<std::byte> image = layout::pack(phys, data, n);
  Buffer img = dev.malloc(image.size());
  dev.memcpy_h2d(img, image);
  r.out = dev.malloc(static_cast<std::size_t>(n) * 8);
  for (const std::uint64_t base : phys.group_bases(n)) {
    r.params.push_back(img.addr + static_cast<std::uint32_t>(base));
  }
  r.params.push_back(r.out.addr);
  return r;
}

TEST(FastPathEquivalence, ReadKernelAllDrivers) {
  const std::uint32_t n = 1024;
  const std::uint32_t block = 128;
  for (const DriverModel driver :
       {DriverModel::kCuda10, DriverModel::kCuda11, DriverModel::kCuda22}) {
    Device dev(g80_spec(), 16u * 1024 * 1024);
    const ReadLaunch r = prepare_read_kernel(dev, layout::SchemeKind::kAoS, n);
    expect_equivalent(dev, r.prog, LaunchConfig{n / block, block}, r.params,
                      driver, r.out, static_cast<std::size_t>(n) * 2,
                      std::string("read kernel, driver ") + to_string(driver));
  }
}

/// One timed launch of the read kernel for `scheme` on a spec whose global
/// latency is zero, on a fresh device.
golden::Digests run_zero_latency_read(layout::SchemeKind scheme,
                                      bool reference, std::uint32_t threads) {
  const std::uint32_t n = 2048;
  const std::uint32_t block = 128;
  DeviceSpec spec = g80_spec();
  spec.timing.global_latency_cycles = 0;
  Device dev(spec, 16u * 1024 * 1024);
  const ReadLaunch r = prepare_read_kernel(dev, scheme, n);
  TimingOptions topt;
  topt.reference = reference;
  topt.threads = threads;
  const LaunchStats stats =
      dev.launch_timed(r.prog, LaunchConfig{n / block, block}, r.params, topt);
  return golden::digests(stats, dev.gmem());
}

// A zero global latency leaves the bucketed driver no deferral window, so
// it runs buckets one cycle wide. Fast and reference runs at 1, 2 and 4
// threads must still reproduce the serial driver's recorded runs.
TEST(FastPathEquivalence, ZeroLatencyReadKernels) {
  for (const layout::SchemeKind scheme :
       {layout::SchemeKind::kSoAoaS, layout::SchemeKind::kAoS}) {
    const std::string name =
        std::string("zero-latency read ") + layout::to_string(scheme);
    const golden::Digests* want = golden::launch_record(name);
    ASSERT_NE(want, nullptr) << "no serial record for " << name;
    for (const bool reference : {false, true}) {
      for (const std::uint32_t threads : {1u, 2u, 4u}) {
        EXPECT_EQ(run_zero_latency_read(scheme, reference, threads), *want)
            << name << (reference ? ", reference" : ", fast")
            << ", threads=" << threads;
      }
    }
  }
}

TEST(FastPathEquivalence, ConstantMemoryKernel) {
  // scale[i % 16] from constant memory times a global input
  KernelBuilder kb("const_scale", 2);
  Val i = kb.iadd(kb.imul(kb.ctaid(), kb.ntid()), kb.tid());
  Val caddr = kb.shl(kb.band(i, kb.imm_u32(15)), 2);
  Val scale = kb.ld_const_f32(caddr);
  Val x = kb.ld_global_f32(kb.iadd(kb.param_u32(0), kb.shl(i, 2)));
  kb.st_global(kb.iadd(kb.param_u32(1), kb.shl(i, 2)), kb.fmul(x, scale));
  Program prog = std::move(kb).finish();
  run_standard_pipeline(prog);
  allocate_registers(prog);

  const std::uint32_t n = 256;
  Device dev(g80_spec(), 1 << 20);
  std::vector<float> table(16);
  for (std::size_t k = 0; k < table.size(); ++k) {
    table[k] = 0.5f + static_cast<float>(k) * 0.25f;
  }
  dev.upload_const(0, std::as_bytes(std::span<const float>(table)));
  std::vector<float> input(n);
  for (std::size_t k = 0; k < input.size(); ++k) {
    input[k] = static_cast<float>(k) * 0.125f - 13.0f;
  }
  Buffer bin = dev.upload<float>(input);
  Buffer bout = dev.malloc_n<float>(n);
  const std::vector<std::uint32_t> params = {bin.addr, bout.addr};

  expect_equivalent(dev, prog, LaunchConfig{n / 64, 64}, params,
                    DriverModel::kCuda10, bout, n, "const-memory kernel");
}

TEST(FastPathEquivalence, DivergentKernelBatchedDispatch) {
  // Lanes split three ways on tid bits inside a counted loop, so warps are
  // almost never fully converged: the functional fast path must keep
  // bailing out of run dispatch, and the timed fast path out of timing-only
  // issue, to single stepping and still match the reference exactly.
  KernelBuilder kb("divergent", 2);
  Val i = kb.iadd(kb.imul(kb.ctaid(), kb.ntid()), kb.tid());
  Val x = kb.ld_global_f32(kb.iadd(kb.param_u32(0), kb.shl(i, 2)));
  Val acc = kb.var_f32(kb.imm_f32(0.0f));
  kb.for_counted(8, [&](Val iv) {
    PVal low = kb.setp_u32_imm(CmpOp::kLt, kb.band(kb.tid(), kb.imm_u32(3)), 2);
    kb.if_then_else(
        low,
        [&] {
          kb.assign(acc, kb.fadd(acc, kb.fmul(x, kb.imm_f32(1.5f))));
          PVal odd = kb.setp_u32_imm(CmpOp::kEq, kb.band(kb.tid(), kb.imm_u32(1)), 1);
          kb.if_then(odd, [&] { kb.assign(acc, kb.fadd(acc, kb.imm_f32(0.25f))); });
        },
        [&] { kb.assign(acc, kb.fsub(acc, x)); });
    kb.assign(acc, kb.fadd(acc, kb.i2f(iv)));
  });
  kb.st_global(kb.iadd(kb.param_u32(1), kb.shl(i, 2)), acc);
  Program prog = std::move(kb).finish();
  run_standard_pipeline(prog);
  allocate_registers(prog);

  const std::uint32_t n = 512;
  Device dev(g80_spec(), 1 << 20);
  std::vector<float> input(n);
  for (std::size_t k = 0; k < input.size(); ++k) {
    input[k] = static_cast<float>(k % 37) * 0.5f - 9.0f;
  }
  Buffer bin = dev.upload<float>(input);
  Buffer bout = dev.malloc_n<float>(n);
  const std::vector<std::uint32_t> params = {bin.addr, bout.addr};

  expect_equivalent(dev, prog, LaunchConfig{n / 64, 64}, params,
                    DriverModel::kCuda10, bout, n, "divergent kernel");
}

TEST(FastPathEquivalence, BarrierHeavyKernelBatchedDispatch) {
  // Shared-memory rotation with a barrier on both sides of every access:
  // runs are at most a couple of instructions long and every one ends at a
  // non-batchable barrier or memory op, exercising the run-boundary
  // fallback (and conflict-memo parity) under 2/4 timing threads.
  constexpr std::uint32_t kBlock = 128;
  KernelBuilder kb("barrier_heavy", 2);
  Val sbase = kb.shared_alloc(kBlock * 4);
  Val saddr = kb.iadd(sbase, kb.shl(kb.tid(), 2));
  Val i = kb.iadd(kb.imul(kb.ctaid(), kb.ntid()), kb.tid());
  Val v = kb.var_f32(kb.ld_global_f32(kb.iadd(kb.param_u32(0), kb.shl(i, 2))));
  // neighbor = shared[(tid + 1) % ntid]
  Val next = kb.band(kb.iadd(kb.tid(), kb.imm_u32(1)), kb.imm_u32(kBlock - 1));
  Val naddr = kb.iadd(sbase, kb.shl(next, 2));
  kb.for_counted(6, [&](Val) {
    kb.st_shared(saddr, v);
    kb.bar();
    Val neigh = kb.ld_shared_f32(naddr);
    kb.bar();
    kb.assign(v, kb.fadd(kb.fmul(v, kb.imm_f32(0.5f)), neigh));
  });
  kb.st_global(kb.iadd(kb.param_u32(1), kb.shl(i, 2)), v);
  Program prog = std::move(kb).finish();
  run_standard_pipeline(prog);
  allocate_registers(prog);

  const std::uint32_t n = 512;
  Device dev(g80_spec(), 1 << 20);
  std::vector<float> input(n);
  for (std::size_t k = 0; k < input.size(); ++k) {
    input[k] = static_cast<float>(k % 53) * 0.125f;
  }
  Buffer bin = dev.upload<float>(input);
  Buffer bout = dev.malloc_n<float>(n);
  const std::vector<std::uint32_t> params = {bin.addr, bout.addr};

  expect_equivalent(dev, prog, LaunchConfig{n / kBlock, kBlock}, params,
                    DriverModel::kCuda10, bout, n, "barrier-heavy kernel");
}

// Two global loads of one warp that complete out of issue order. The first
// is a strided 64-bit load: lanes 1536 B (6 partitions x 256 B) apart, so
// all 32 of its row segments queue on one DRAM partition, behind the same
// load of every other SM. The second is a broadcast whose one segment per
// half-warp lands on a partition three away, which no strided segment uses.
// The bucket merge resolves them in issue order, the strided value last to
// land on most SMs. Every address is computed before the loads, and the
// shared store waits for the broadcast only and writes no register, so when
// the fadd asks for the strided value the SM clock has passed the
// broadcast's completion but not the strided one's. A scoreboard watermark
// that kept the last merged value instead of the maximum over the warp's
// rows would let the fadd issue early on the fast path.
constexpr const char* kOutOfOrderLoads = R"(
.kernel out_of_order_loads  (params=3, shared=256B)
B0:   // region S
    mov.special r0, %tid
    mov.imm r1, 0x600
    imul r2, r0, r1
    mov.param r3, param[0]
    iadd r4, r3, r2
    mov.param r6, param[1]
    mov.imm r8, 0x2
    shl r9, r0, r8
    mov.special r11, %ctaid
    mov.special r12, %ntid
    imul r13, r11, r12
    iadd r14, r13, r0
    shl r15, r14, r8
    mov.param r16, param[2]
    iadd r17, r16, r15
    ld.global.64b r5, [r4+0]
    ld.global.32b r7, [r6+0]
    st.shared.32b [r9+0], r7
    fadd r10, r5, r5.1
    st.global.32b [r17+0], r10
    exit
)";

/// One timed launch of kOutOfOrderLoads on a fresh device: 16 blocks of two
/// warps, one block per SM.
golden::Digests run_out_of_order_loads(bool reference, std::uint32_t threads) {
  constexpr std::uint32_t kBlock = 64;
  constexpr std::uint32_t kBlocks = 16;
  constexpr std::uint32_t kStrideBytes = 1536;
  Program prog = assemble(kOutOfOrderLoads);
  allocate_registers(prog);
  Device dev(g80_spec(), 1 << 20);
  std::vector<float> input(kBlock * kStrideBytes / 4);
  for (std::size_t k = 0; k < input.size(); ++k) {
    input[k] = static_cast<float>(k % 29) * 0.5f;
  }
  const Buffer bin = dev.upload<float>(input);
  const Buffer bout = dev.malloc_n<float>(kBlocks * kBlock);
  const std::vector<std::uint32_t> params = {bin.addr, bin.addr + 3 * 256,
                                             bout.addr};
  TimingOptions topt;
  topt.reference = reference;
  topt.threads = threads;
  const LaunchStats stats =
      dev.launch_timed(prog, LaunchConfig{kBlocks, kBlock}, params, topt);
  return golden::digests(stats, dev.gmem());
}

TEST(ScoreboardWatermark, OutOfOrderLoadCompletions) {
  const golden::Digests want =
      run_out_of_order_loads(/*reference=*/true, /*threads=*/1);
  for (const bool reference : {false, true}) {
    for (const std::uint32_t threads : {1u, 2u, 4u}) {
      EXPECT_EQ(run_out_of_order_loads(reference, threads), want)
          << (reference ? "reference" : "fast") << ", threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace vgpu
