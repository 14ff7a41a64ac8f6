// ConflictMemo correctness: the memo must be a transparent cache over
// warp_bank_conflict_degree() - same serialization degree, pattern for
// pattern - across bank counts, while keying on the translation-invariant
// lane pattern. Alongside the memo properties, this file pins the two
// parity guarantees the shared-memory counters rest on: the reference and
// fast interpreter paths report identical per-step conflict degrees (one
// shared helper, not two copies), and the functional and timing executors
// report identical shared_requests / shared_conflict_extra.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <random>
#include <vector>

#include "vgpu/builder.hpp"
#include "vgpu/device.hpp"
#include "vgpu/executor.hpp"
#include "vgpu/memo.hpp"
#include "vgpu/memory.hpp"
#include "vgpu/opt.hpp"
#include "vgpu/progcache.hpp"
#include "vgpu/regalloc.hpp"
#include "vgpu/timing.hpp"

namespace vgpu {
namespace {

constexpr std::uint32_t kWarp = 32;
constexpr std::uint32_t kHalf = 16;

TEST(ConflictMemoTest, MatchesDirectDegreeOnRandomPatterns) {
  std::mt19937 rng(2026);
  for (const std::uint32_t banks : {8u, 16u, 32u}) {
    ConflictMemo memo(kWarp, kHalf, banks);
    for (int trial = 0; trial < 4000; ++trial) {
      // Mix strided, broadcast-heavy, and scattered word-aligned patterns.
      std::array<std::uint32_t, kWarp> addrs{};
      const auto base = static_cast<std::uint32_t>(rng() % 1024u) * 4u;
      const std::uint32_t stride = 1u << (rng() % 6);
      const bool scatter = rng() % 4 == 0;
      for (std::uint32_t l = 0; l < kWarp; ++l) {
        addrs[l] = scatter
                       ? base + static_cast<std::uint32_t>(rng() % 256u) * 4u
                       : base + l * stride * 4u;
      }
      const std::uint32_t words = 1u + rng() % 4;
      // Mostly full warps (so repeated patterns actually hit), with a
      // sprinkle of random partial masks.
      const std::uint32_t active =
          rng() % 4 == 0 ? static_cast<std::uint32_t>(rng()) : 0xFFFFFFFFu;
      const std::span<const std::uint32_t> la(addrs.data(), kWarp);
      const std::uint32_t via_memo = memo.lookup(la, active, words);
      const std::uint32_t direct =
          warp_bank_conflict_degree(la, active, words, kHalf, banks);
      ASSERT_EQ(via_memo, direct)
          << "banks " << banks << " trial " << trial;
    }
    EXPECT_GT(memo.hits(), 0u);
    EXPECT_GT(memo.misses(), 0u);
    EXPECT_EQ(memo.banks(), banks);
  }
}

TEST(ConflictMemoTest, TranslatedPatternHitsWithTheSameDegree) {
  for (const std::uint32_t banks : {8u, 16u, 32u}) {
    ConflictMemo memo(kWarp, kHalf, banks);
    std::array<std::uint32_t, kWarp> addrs{};
    for (std::uint32_t l = 0; l < kWarp; ++l) addrs[l] = 256u + l * 8u;
    const std::span<const std::uint32_t> la(addrs.data(), kWarp);
    const std::uint32_t d0 = memo.lookup(la, 0xFFFFFFFFu, 1);
    EXPECT_EQ(memo.misses(), 1u);
    EXPECT_EQ(memo.hits(), 0u);

    // The same pattern shifted by any multiple of one word must hit the
    // memo, and the replayed degree must match the direct computation at
    // the new base (bank rotation leaves the max per-bank count alone).
    for (std::uint32_t shift = 4; shift <= 4u * 40; shift += 4) {
      std::array<std::uint32_t, kWarp> moved{};
      for (std::uint32_t l = 0; l < kWarp; ++l) moved[l] = addrs[l] + shift;
      const std::span<const std::uint32_t> ml(moved.data(), kWarp);
      const std::uint32_t via_memo = memo.lookup(ml, 0xFFFFFFFFu, 1);
      ASSERT_EQ(via_memo,
                warp_bank_conflict_degree(ml, 0xFFFFFFFFu, 1, kHalf, banks))
          << "banks " << banks << " shift " << shift;
      ASSERT_EQ(via_memo, d0);
    }
    EXPECT_EQ(memo.hits(), 40u);
    EXPECT_EQ(memo.misses(), 1u);
    EXPECT_EQ(memo.distinct_patterns(), 1u);
  }
}

TEST(ConflictMemoTest, WordsAndActiveMaskArePartOfTheKey) {
  ConflictMemo memo(kWarp, kHalf, 16);
  std::array<std::uint32_t, kWarp> addrs{};
  for (std::uint32_t l = 0; l < kWarp; ++l) addrs[l] = 1024u + l * 4u;
  const std::span<const std::uint32_t> la(addrs.data(), kWarp);
  (void)memo.lookup(la, 0xFFFFFFFFu, 1);
  (void)memo.lookup(la, 0xFFFFFFFFu, 2);  // wider access: distinct pattern
  (void)memo.lookup(la, 0x0000FFFFu, 1);  // partial mask: distinct pattern
  (void)memo.lookup(la, 0x0000FFFFu, 1);  // replay: hit
  EXPECT_EQ(memo.misses(), 3u);
  EXPECT_EQ(memo.hits(), 1u);
  EXPECT_EQ(memo.distinct_patterns(), 3u);
}

TEST(ConflictMemoTest, EmptyRequestBypassesTheMemo) {
  ConflictMemo memo(kWarp, kHalf, 16);
  std::array<std::uint32_t, kWarp> addrs{};
  const std::span<const std::uint32_t> la(addrs.data(), kWarp);
  const std::uint32_t degree = memo.lookup(la, 0u, 1);
  EXPECT_EQ(degree, warp_bank_conflict_degree(la, 0u, 1, kHalf, 16));
  EXPECT_EQ(memo.hits() + memo.misses(), 0u);
}

/// Conflict-heavy kernel: every thread stores and reloads
/// shared[tid * stride_words], so a half-warp's lanes collide
/// `stride_words`-way on the 16 banks (stride 8 -> 8-way conflicts).
Program make_conflict_kernel(std::uint32_t stride_words) {
  KernelBuilder kb("conflict", 2);
  Val sbase = kb.shared_alloc(128 * stride_words * 4);
  Val saddr = kb.iadd(
      sbase, kb.shl(kb.imul(kb.tid(), kb.imm_u32(stride_words)), 2));
  kb.st_shared(saddr, kb.imm_f32(2.5f));
  kb.bar();
  Val v = kb.ld_shared_f32(saddr);
  Val i = kb.iadd(kb.imul(kb.ctaid(), kb.ntid()), kb.tid());
  kb.st_global(kb.iadd(kb.param_u32(1), kb.shl(i, 2)), v);
  Program prog = std::move(kb).finish();
  run_standard_pipeline(prog);
  allocate_registers(prog);
  return prog;
}

// The dedupe guarantee behind warp_bank_conflict_degree(): stepping the
// same block through the reference interpreter and the pre-decoded fast
// path must report the identical conflict degree at every shared-memory
// step (not just identical totals).
TEST(ConflictParityTest, ReferenceAndFastPathsReportIdenticalDegrees) {
  const Program prog = make_conflict_kernel(8);
  Device dev;
  Buffer unused = dev.malloc_n<float>(256);
  Buffer out = dev.malloc_n<float>(256);
  const std::uint32_t params[2] = {unused.addr, out.addr};
  const LaunchConfig cfg{2, 128};
  const std::shared_ptr<const CompiledKernel> ck =
      acquire_compiled(prog, /*use_cache=*/false);
  const BlockParams bp{0, cfg, params, 0, nullptr};
  std::uint64_t traces_entered = 0;
  BlockExec ref(prog, dev.spec(), dev.gmem(), bp);
  BlockExec fast(prog, dev.spec(), dev.gmem(), bp, ck.get(), &traces_entered);

  std::uint32_t shared_steps = 0;
  bool saw_conflict = false;
  while (!ref.all_done()) {
    for (std::uint32_t w = 0; w < ref.num_warps(); ++w) {
      while (!ref.warp(w).done && !ref.warp(w).at_barrier) {
        const StepResult a = ref.step(w, ref.warp(w).issued * 4);
        const StepResult b = fast.step(w, fast.warp(w).issued * 4);
        ASSERT_EQ(a.kind, b.kind);
        ASSERT_EQ(a.shared_conflict_degree, b.shared_conflict_degree);
        if (a.kind == StepResult::Kind::kShared) {
          ++shared_steps;
          saw_conflict = saw_conflict || a.shared_conflict_degree > 1;
        }
      }
    }
    if (ref.barrier_releasable()) {
      ref.release_barrier();
      fast.release_barrier();
    }
  }
  EXPECT_TRUE(fast.all_done());
  EXPECT_GT(shared_steps, 0u);
  EXPECT_TRUE(saw_conflict);
}

// Regression test for the executor-parity audit: the functional and the
// timing executor accumulate shared_requests / shared_conflict_extra
// through the same helper (count_shared_requests), so a conflict-heavy kernel
// must report identical shared counters on all four paths (functional and
// timed, reference and fast), at 1 and 2 host threads.
TEST(ConflictParityTest, FunctionalAndTimingExecutorsAgreeOnSharedCounters) {
  const Program prog = make_conflict_kernel(8);
  Device dev;
  Buffer unused = dev.malloc_n<float>(1024);
  Buffer out = dev.malloc_n<float>(1024);
  const std::uint32_t params[2] = {unused.addr, out.addr};
  const LaunchConfig cfg{8, 128};

  FunctionalOptions fref;
  fref.reference = true;
  const LaunchStats base =
      run_functional(prog, dev.spec(), dev.gmem(), cfg, params, fref);
  EXPECT_GT(base.shared_requests, 0u);
  EXPECT_GT(base.shared_conflict_extra, 0u);

  FunctionalOptions ffast;
  const LaunchStats func =
      run_functional(prog, dev.spec(), dev.gmem(), cfg, params, ffast);
  EXPECT_EQ(func.shared_requests, base.shared_requests);
  EXPECT_EQ(func.shared_conflict_extra, base.shared_conflict_extra);
  EXPECT_GT(func.conflict_memo_hits, 0u);

  for (const bool reference : {false, true}) {
    for (const std::uint32_t threads : {1u, 2u}) {
      TimingOptions topt;
      topt.reference = reference;
      topt.threads = threads;
      const LaunchStats timed =
          run_timed(prog, dev.spec(), dev.gmem(), cfg, params, topt);
      EXPECT_EQ(timed.shared_requests, base.shared_requests)
          << "reference=" << reference << " threads=" << threads;
      EXPECT_EQ(timed.shared_conflict_extra, base.shared_conflict_extra)
          << "reference=" << reference << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace vgpu
