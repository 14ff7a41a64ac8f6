// Specialized run execution of the functional fast path - superblock
// traces and boundary-step fusion - on the pinned application kernels, and
// the trace-cache keying/invalidation contract.
//
// The paper's real kernel variants - rolled barrier-heavy shared tiling,
// unrolled + icm, the register-capped spill kernel, texture fetches, and
// the untiled global-read ablation - pin fast-vs-reference parity on every
// memory subsystem a run can terminate with, and witness that the
// functional fast path actually enters traces and fuses boundary ops on
// each of them.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "gravit/kernels.hpp"
#include "gravit/spawn.hpp"
#include "layout/transform.hpp"
#include "vgpu/decode.hpp"
#include "vgpu/device.hpp"
#include "vgpu/progcache.hpp"
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

  KernelRun functional(bool reference) {
    FunctionalOptions fopt;
    fopt.reference = reference;
    KernelRun r;
    r.stats = dev_.launch_functional(built_.prog, cfg_, params_, fopt);
    download(r);
    return r;
  }

  KernelRun timed(bool reference, std::uint32_t threads) {
    TimingOptions topt;
    topt.reference = reference;
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

// Every pinned kernel variant: the fast path (functional: traces + fusion)
// must be bit-identical to the reference interpreter - memory and
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

    const KernelRun fast = h.functional(false);
    const KernelRun fref = h.functional(true);
    EXPECT_EQ(fast.out, fref.out) << "functional memory diverged";
    EXPECT_TRUE(fast.stats.core() == fref.stats.core())
        << "functional stats diverged";
    EXPECT_GT(fast.stats.traces_entered, 0u)
        << "functional fast path never entered a trace";
    EXPECT_GT(fast.stats.fused_boundary_ops, 0u)
        << "functional fast path never fused a boundary op";
    EXPECT_EQ(fref.stats.traces_entered, 0u);
    EXPECT_EQ(fref.stats.fused_boundary_ops, 0u);

    const KernelRun tref = h.timed(true, 1);
    for (const std::uint32_t threads : {1u, 2u}) {
      const KernelRun tfast = h.timed(false, threads);
      EXPECT_EQ(tfast.out, tref.out)
          << "timed memory diverged, threads=" << threads;
      EXPECT_EQ(tfast.stats.cycles, tref.stats.cycles)
          << "timed cycles diverged, threads=" << threads;
      EXPECT_TRUE(tfast.stats.core() == tref.stats.core())
          << "timed stats diverged, threads=" << threads;
    }
  }
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
