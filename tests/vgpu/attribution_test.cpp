// Stall attribution on the real application kernels. The fuzz differential
// suite covers the grammar's reach; this one pins the paper's kernels -
// far-field in the layout schemes, unrolled+icm, texture fetches,
// register-capped spill code and the untiled ablation - and demands the
// attribution contract on each: collecting is cycle-identical, the per-PC
// sums reconcile exactly with LaunchStats, and the table is bit-identical
// at 1/2/4 threads.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "gravit/kernels.hpp"
#include "gravit/spawn.hpp"
#include "layout/microbench.hpp"
#include "layout/transform.hpp"
#include "vgpu/attribution.hpp"
#include "vgpu/decode.hpp"
#include "vgpu/device.hpp"

namespace vgpu {
namespace {

/// One prepared far-field launch (memory image uploaded, params built).
struct FarfieldLaunch {
  Device dev{g80_spec(), 16u * 1024 * 1024};
  gravit::BuiltKernel built;
  LaunchConfig cfg;
  std::vector<std::uint32_t> params;

  explicit FarfieldLaunch(const gravit::KernelOptions& kopt, std::uint32_t n)
      : built(gravit::make_farfield_kernel(kopt)) {
    const std::uint32_t n_pad = (n + kopt.block - 1) / kopt.block * kopt.block;
    gravit::ParticleSet set = gravit::spawn_uniform_cube(n, 1.0f, 3);
    set.pad_to(n_pad);
    const std::vector<float> flat = set.flatten();
    const std::vector<std::byte> image = layout::pack(built.phys, flat, n_pad);
    Buffer img = dev.malloc(image.size());
    dev.memcpy_h2d(img, image);
    Buffer accel = dev.malloc(static_cast<std::size_t>(n_pad) * 12);
    for (const std::uint64_t base : built.phys.group_bases(n_pad)) {
      params.push_back(img.addr + static_cast<std::uint32_t>(base));
    }
    params.push_back(accel.addr);
    params.push_back(n_pad / kopt.block);
    cfg = LaunchConfig{n_pad / kopt.block, kopt.block};
  }

  LaunchStats run(Attribution* attr, std::uint32_t threads,
                  bool reference = false) {
    TimingOptions topt;
    topt.attribution = attr;
    topt.threads = threads;
    topt.reference = reference;
    return dev.launch_timed(built.prog, cfg, params, topt);
  }
};

/// The full contract on one kernel variant: cycle identity, exact
/// reconciliation, and configuration invariance of the table.
void check_attribution(const gravit::KernelOptions& kopt,
                       const std::string& what) {
  FarfieldLaunch launch(kopt, 512);

  const LaunchStats plain = launch.run(nullptr, 1);
  Attribution attr;
  const LaunchStats attributed = launch.run(&attr, 1);

  // Collection observes; it must not perturb a single counter.
  EXPECT_TRUE(attributed.core() == plain.core())
      << what << ": attribution changed the simulated stats (cycles "
      << attributed.cycles << " vs " << plain.cycles << ")";

  ASSERT_TRUE(attr.collected) << what;
  ASSERT_EQ(attr.pcs.size(), decode(launch.built.prog).instrs.size()) << what;
  EXPECT_TRUE(reconciles(attr, attributed))
      << what << ": per-PC sums do not reconcile with LaunchStats";
  EXPECT_GT(attr.total_issues, 0u) << what;
  EXPECT_GT(attr.total_stall_cycles, 0u) << what;

  // Bit-identical table at every thread count.
  for (const std::uint32_t threads : {2u, 4u}) {
    Attribution other;
    const LaunchStats stats = launch.run(&other, threads);
    EXPECT_TRUE(stats.core() == attributed.core())
        << what << ": threads=" << threads << " stats diverged";
    EXPECT_TRUE(other == attr)
        << what << ": threads=" << threads << " attribution table diverged";
  }
}

TEST(Attribution, FarfieldSchemes) {
  for (const layout::SchemeKind scheme :
       {layout::SchemeKind::kAoS, layout::SchemeKind::kSoAoaS}) {
    gravit::KernelOptions kopt;
    kopt.scheme = scheme;
    check_attribution(kopt, gravit::kernel_label(kopt));
  }
}

TEST(Attribution, FarfieldUnrolledIcm) {
  gravit::KernelOptions kopt;
  kopt.unroll = 32;
  kopt.icm = true;
  check_attribution(kopt, gravit::kernel_label(kopt));
}

TEST(Attribution, FarfieldTextureFetches) {
  gravit::KernelOptions kopt;
  kopt.use_texture_fetches = true;
  check_attribution(kopt, gravit::kernel_label(kopt));
}

TEST(Attribution, FarfieldRegisterCapSpills) {
  gravit::KernelOptions kopt;
  kopt.max_regs = 16;  // forces local-memory spill traffic
  check_attribution(kopt, gravit::kernel_label(kopt));
}

TEST(Attribution, FarfieldUntiled) {
  gravit::KernelOptions kopt;
  kopt.use_shared_tiles = false;
  check_attribution(kopt, gravit::kernel_label(kopt));
}

// The reference interpreter has no decoded-PC mapping: it must leave the
// table explicitly uncollected rather than half-filled.
TEST(Attribution, ReferencePathLeavesUncollected) {
  gravit::KernelOptions kopt;
  FarfieldLaunch launch(kopt, 512);
  Attribution attr;
  attr.collected = true;  // stale state from a previous run must be cleared
  (void)launch.run(&attr, 1, /*reference=*/true);
  EXPECT_FALSE(attr.collected);
  EXPECT_TRUE(attr.pcs.empty());
}

// Region breakdown: the far-field inner loop dominates, so the kInner PCs
// must carry the bulk of the issue cycles - the hotspot report depends on
// this mapping being right.
TEST(Attribution, RegionMappingMatchesProgram) {
  gravit::KernelOptions kopt;
  FarfieldLaunch launch(kopt, 512);
  Attribution attr;
  const LaunchStats stats = launch.run(&attr, 1);
  ASSERT_TRUE(attr.collected);

  const DecodedProgram dec = decode(launch.built.prog);
  std::uint64_t loop_issue = 0;
  for (std::size_t p = 0; p < attr.pcs.size(); ++p) {
    const PcAttribution& a = attr.pcs[p];
    ASSERT_LT(a.block, launch.built.prog.blocks.size());
    const Block& b = launch.built.prog.blocks[a.block];
    ASSERT_LT(a.ip, b.instrs.size());
    EXPECT_EQ(dec.block_start[a.block] + a.ip, p);
    EXPECT_EQ(a.region, b.region);
    if (a.region == Region::kInner) loop_issue += a.issue_cycles;
  }
  EXPECT_GT(loop_issue * 2, stats.sm_issue_cycles)
      << "inner loop should dominate issue cycles on far-field";
}

}  // namespace
}  // namespace vgpu
