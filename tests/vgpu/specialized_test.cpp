// Specialized run execution: boundary-step fusion parity on the pinned
// application kernels, low-occupancy witnesses that the *timed* fusion
// fall-through actually fires, and the trace-cache keying/invalidation
// contract.
//
// The fuzz suite (FuzzSeed.SpecializedMatchesPlain) sweeps random kernels;
// here the paper's real kernel variants - rolled barrier-heavy shared
// tiling, unrolled + icm, the register-capped spill kernel, texture
// fetches, and the untiled global-read ablation - pin the parity on every
// memory subsystem a run can terminate with. The application kernels keep
// their SMs saturated (another warp is always ready at a run boundary), so
// timed fusion never fires on them; the low-occupancy single-warp kernels
// below prove that it fires on a shared-store and on a global-store
// boundary, at every thread count, and stays exact.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "gravit/kernels.hpp"
#include "gravit/spawn.hpp"
#include "layout/transform.hpp"
#include "vgpu/builder.hpp"
#include "vgpu/decode.hpp"
#include "vgpu/device.hpp"
#include "vgpu/opt.hpp"
#include "vgpu/progcache.hpp"
#include "vgpu/regalloc.hpp"
#include "vgpu/traces.hpp"

namespace vgpu {
namespace {

/// One launch of a built far-field kernel with the shared deterministic
/// cube, returning stats and the raw acceleration buffer.
struct KernelRun {
  LaunchStats stats;
  std::vector<std::uint32_t> out;
};

class FarfieldHarness {
 public:
  explicit FarfieldHarness(const gravit::KernelOptions& kopt,
                           std::uint32_t n = 256)
      : built_(gravit::make_farfield_kernel(kopt)),
        dev_(g80_spec(), 16u * 1024 * 1024) {
    const std::uint32_t block = kopt.block;
    n_pad_ = (n + block - 1) / block * block;
    gravit::ParticleSet set = gravit::spawn_uniform_cube(n, 1.0f, 3);
    set.pad_to(n_pad_);
    const std::vector<float> flat = set.flatten();
    const std::vector<std::byte> image = layout::pack(built_.phys, flat, n_pad_);
    Buffer img = dev_.malloc(image.size());
    dev_.memcpy_h2d(img, image);
    accel_ = dev_.malloc(static_cast<std::size_t>(n_pad_) * 12);
    for (const std::uint64_t base : built_.phys.group_bases(n_pad_)) {
      params_.push_back(img.addr + static_cast<std::uint32_t>(base));
    }
    params_.push_back(accel_.addr);
    params_.push_back(n_pad_ / block);
    cfg_ = LaunchConfig{n_pad_ / block, block};
  }

  KernelRun functional(bool specialized) {
    FunctionalOptions fopt;
    fopt.specialized = specialized;
    KernelRun r;
    r.stats = dev_.launch_functional(built_.prog, cfg_, params_, fopt);
    download(r);
    return r;
  }

  KernelRun timed(bool specialized, std::uint32_t threads) {
    TimingOptions topt;
    topt.specialized = specialized;
    topt.threads = threads;
    KernelRun r;
    r.stats = dev_.launch_timed(built_.prog, cfg_, params_, topt);
    download(r);
    return r;
  }

 private:
  void download(KernelRun& r) {
    r.out.resize(static_cast<std::size_t>(n_pad_) * 3);
    dev_.download<std::uint32_t>(r.out, accel_);
  }

  gravit::BuiltKernel built_;
  Device dev_;
  std::uint32_t n_pad_ = 0;
  Buffer accel_{};
  std::vector<std::uint32_t> params_;
  LaunchConfig cfg_{};
};

// Every pinned kernel variant: specialized execution (traces + fusion +
// ready-heap) must be bit-identical to the plain run machinery - memory and
// LaunchStats::core(), cycles included in timing mode - and the functional
// fast path must actually take the specialized path (traces entered,
// boundary ops fused).
TEST(BoundaryFusion, ApplicationKernelParity) {
  struct Variant {
    const char* name;
    gravit::KernelOptions kopt;
  };
  std::vector<Variant> variants;
  variants.push_back({"rolled shared-tiled (barrier-heavy)", {}});
  {
    gravit::KernelOptions k;
    k.unroll = 32;
    k.icm = true;
    variants.push_back({"unrolled+icm", k});
  }
  {
    gravit::KernelOptions k;
    k.max_regs = 16;
    variants.push_back({"register-capped spill", k});
  }
  {
    gravit::KernelOptions k;
    k.use_texture_fetches = true;
    variants.push_back({"texture fetches", k});
  }
  {
    gravit::KernelOptions k;
    k.use_shared_tiles = false;
    variants.push_back({"untiled global reads", k});
  }

  for (const Variant& v : variants) {
    SCOPED_TRACE(v.name);
    FarfieldHarness h(v.kopt);

    const KernelRun fon = h.functional(true);
    const KernelRun foff = h.functional(false);
    EXPECT_EQ(foff.out, fon.out) << "functional memory diverged";
    EXPECT_TRUE(foff.stats.core() == fon.stats.core())
        << "functional stats diverged";
    EXPECT_GT(fon.stats.traces_entered, 0u)
        << "specialized functional run never entered a trace";
    EXPECT_GT(fon.stats.fused_boundary_ops, 0u)
        << "specialized functional run never fused a boundary op";
    EXPECT_EQ(foff.stats.traces_entered, 0u);
    EXPECT_EQ(foff.stats.fused_boundary_ops, 0u);

    const KernelRun ton = h.timed(true, 1);
    EXPECT_GT(ton.stats.pick_heap_pops, 0u)
        << "specialized timed run never used the ready heap";
    for (const std::uint32_t threads : {1u, 2u}) {
      const KernelRun toff = h.timed(false, threads);
      EXPECT_EQ(toff.stats.pick_heap_pops, 0u) << "threads=" << threads;
      EXPECT_EQ(toff.out, ton.out)
          << "timed memory diverged, threads=" << threads;
      EXPECT_EQ(toff.stats.cycles, ton.stats.cycles)
          << "timed cycles diverged, threads=" << threads;
      EXPECT_TRUE(toff.stats.core() == ton.stats.core())
          << "timed stats diverged, threads=" << threads;
      const KernelRun ton2 = h.timed(true, threads);
      EXPECT_EQ(ton2.out, ton.out) << "threads=" << threads;
      EXPECT_TRUE(ton2.stats.core() == ton.stats.core())
          << "threads=" << threads;
    }
  }
}

/// A single-warp, single-block kernel whose long dependent ALU chain ends
/// at a memory op whose operands were ready early: by the time the run's
/// last in-run instruction issues, the boundary's dependences have long
/// retired, no other warp exists to preempt, and the fusion fall-through
/// must take it. `shared_boundary` routes the store through shared memory;
/// otherwise it is a plain global store.
Program make_low_occupancy_kernel(bool shared_boundary) {
  KernelBuilder kb(shared_boundary ? "lowocc_shared" : "lowocc_global", 2);
  Val i = kb.iadd(kb.imul(kb.ctaid(), kb.ntid()), kb.tid());
  Val in_addr = kb.iadd(kb.param_u32(0), kb.shl(i, 2));
  Val out_addr = kb.iadd(kb.param_u32(1), kb.shl(i, 2));
  // the boundary op's operands (addresses and the stored value) all become
  // ready near the top; the dependent ffma chain then walks sm.cycle far
  // past their ready cycles, so dep_ready_fast() at the run end passes
  Val saddr = kb.imm_u32(0);
  if (shared_boundary) {
    Val sbase = kb.shared_alloc(32 * 4);
    saddr = kb.iadd(sbase, kb.shl(kb.tid(), 2));
  }
  Val x = kb.ld_global_f32(in_addr);
  Val v = kb.fadd(x, kb.imm_f32(1.5f));
  Val acc = kb.var_f32(x);
  for (int k = 0; k < 10; ++k) {
    kb.assign(acc, kb.ffma(acc, kb.imm_f32(1.0009f), kb.imm_f32(0.125f)));
  }
  if (shared_boundary) {
    kb.st_shared(saddr, v);  // <- run boundary, kShared
    kb.st_global(out_addr, kb.fadd(kb.ld_shared_f32(saddr), acc));
  } else {
    kb.st_global(out_addr, v);  // <- run boundary, kGlobal
    kb.st_global(out_addr, acc, 4096);
  }
  Program prog = std::move(kb).finish();
  run_standard_pipeline(prog);
  allocate_registers(prog);
  return prog;
}

KernelRun run_low_occupancy(const Program& prog, bool specialized,
                            std::uint32_t threads) {
  const std::uint32_t n = 32;  // one warp, one block: nothing to preempt
  Device dev(g80_spec(), 1 << 20);
  std::vector<float> input(n * 2);
  for (std::size_t k = 0; k < input.size(); ++k) {
    input[k] = 0.25f * static_cast<float>(k) - 3.0f;
  }
  Buffer bin = dev.upload<float>(input);
  Buffer bout = dev.malloc(4096 + n * 4);
  const std::uint32_t params[2] = {bin.addr, bout.addr};
  TimingOptions topt;
  topt.specialized = specialized;
  topt.threads = threads;
  KernelRun r;
  r.stats = dev.launch_timed(prog, LaunchConfig{1, n}, params, topt);
  r.out.resize((4096 + n * 4) / 4);
  dev.download<std::uint32_t>(r.out, bout);
  return r;
}

// Timed fusion fires on the single-warp kernel: the boundary must fuse at
// 1, 2 and 4 threads, and the fused run must stay bit-identical to the plain
// per-instruction issue.
void expect_timed_fusion_fires(bool shared_boundary) {
  const Program prog = make_low_occupancy_kernel(shared_boundary);
  const KernelRun off = run_low_occupancy(prog, false, 1);
  for (const std::uint32_t threads : {1u, 2u, 4u}) {
    const KernelRun on = run_low_occupancy(prog, true, threads);
    EXPECT_GT(on.stats.fused_boundary_ops, 0u)
        << "timed fusion never fired, threads=" << threads;
    EXPECT_EQ(on.out, off.out) << "threads=" << threads;
    EXPECT_EQ(on.stats.cycles, off.stats.cycles) << "threads=" << threads;
    EXPECT_TRUE(on.stats.core() == off.stats.core()) << "threads=" << threads;
    const KernelRun off2 = run_low_occupancy(prog, false, threads);
    EXPECT_EQ(off2.stats.fused_boundary_ops, 0u) << "threads=" << threads;
    EXPECT_EQ(off2.out, off.out) << "threads=" << threads;
    EXPECT_TRUE(off2.stats.core() == off.stats.core())
        << "threads=" << threads;
  }
}

// A global-store boundary fuses at every thread count.
TEST(BoundaryFusion, TimedFusionFiresDeferred) {
  expect_timed_fusion_fires(/*shared_boundary=*/false);
}

// A shared-store (SM-local) boundary fuses at every thread count, the
// serial one-thread run included.
TEST(BoundaryFusion, TimedFusionFiresSerialShared) {
  expect_timed_fusion_fires(/*shared_boundary=*/true);
}

// Trace-cache contract: traces are compiled once per distinct program,
// shared by repeat launches, keyed on content (not identity), structurally
// consistent with the decoded runs, and dropped by a cache clear.
TEST(TraceCache, KeyingAndInvalidation) {
  gravit::KernelOptions kopt;
  gravit::BuiltKernel built = gravit::make_farfield_kernel(kopt);

  decode_cache_clear();
  bool hit = true;
  const std::shared_ptr<const CompiledKernel> k1 =
      acquire_compiled(built.prog, /*use_cache=*/true, &hit);
  EXPECT_FALSE(hit) << "fresh cache reported a hit";

  // structural consistency: trace ids only at run heads of length >= 2,
  // each covering exactly its run, with at least one trace compiled
  const DecodedProgram& dec = k1->decoded();
  const TraceProgram& tp = k1->traces();
  ASSERT_EQ(tp.trace_at.size(), dec.instrs.size());
  std::size_t heads = 0;
  for (std::size_t i = 0; i < tp.trace_at.size(); ++i) {
    const std::uint32_t t = tp.trace_at[i];
    if (t == kNoTrace) continue;
    ++heads;
    ASSERT_LT(t, tp.traces.size());
    EXPECT_GE(tp.traces[t].len, 2u) << "trace " << t << " below run threshold";
    EXPECT_EQ(tp.traces[t].len, dec.runs[i].len)
        << "trace " << t << " does not cover its run";
    EXPECT_GT(tp.traces[t].seg_count, 0u);
  }
  EXPECT_GT(heads, 0u) << "no traces compiled for the application kernel";

  // same content -> cache hit sharing the same compiled traces
  const std::shared_ptr<const CompiledKernel> k2 =
      acquire_compiled(built.prog, true, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(k2.get(), k1.get());

  // a structurally equal copy keys the same (content, not identity)
  Program copy = built.prog;
  const std::shared_ptr<const CompiledKernel> k3 =
      acquire_compiled(copy, true, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(k3.get(), k1.get());

  // a different kernel misses and compiles its own traces
  gravit::KernelOptions other;
  other.unroll = 32;
  other.icm = true;
  gravit::BuiltKernel built2 = gravit::make_farfield_kernel(other);
  const std::shared_ptr<const CompiledKernel> k4 =
      acquire_compiled(built2.prog, true, &hit);
  EXPECT_FALSE(hit);
  EXPECT_NE(k4.get(), k1.get());

  // clearing invalidates: the next acquire recompiles, and entries held
  // across the clear stay alive through shared ownership
  decode_cache_clear();
  const std::shared_ptr<const CompiledKernel> k5 =
      acquire_compiled(built.prog, true, &hit);
  EXPECT_FALSE(hit) << "cleared cache reported a hit";
  EXPECT_NE(k5.get(), k1.get());
  EXPECT_EQ(k1->traces().trace_at.size(), k5->traces().trace_at.size());

  // private compilation bypasses the cache entirely
  decode_cache_clear();
  const std::shared_ptr<const CompiledKernel> priv =
      acquire_compiled(built.prog, /*use_cache=*/false, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(decode_cache_size(), 0u);
  EXPECT_GT(priv->traces().traces.size(), 0u);
}

}  // namespace
}  // namespace vgpu
