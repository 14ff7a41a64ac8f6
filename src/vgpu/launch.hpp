// launch.hpp - launch configuration and execution statistics.
#pragma once

#include <array>
#include <cstdint>

#include "vgpu/ir.hpp"

namespace vgpu {

/// Grid/block shape of a kernel launch (one-dimensional, like the paper's).
struct LaunchConfig {
  std::uint32_t grid_blocks = 1;
  std::uint32_t block_threads = 128;
};

/// Everything a launch reports back. Functional runs fill the instruction
/// and memory counters; timing runs additionally fill cycles, occupancy and
/// contention data.
struct LaunchStats {
  // --- timing ---
  std::uint64_t cycles = 0;             ///< simulated kernel duration
  double occupancy = 0.0;               ///< resident warps / max warps per SM
  std::uint32_t blocks_per_sm = 0;      ///< resident blocks per SM

  // --- dynamic instruction accounting (warp granularity) ---
  std::uint64_t warp_instructions = 0;
  std::array<std::uint64_t, kRegionCount> region_instructions{};
  /// Dynamic mix by instruction class (see InstrClass below).
  std::array<std::uint64_t, 6> instr_class_counts{};
  /// Conditional branches whose lanes took both paths.
  std::uint64_t divergent_branches = 0;

  // --- pipeline accounting (timing runs) ---
  /// Cycles during which an SM had work resident but could not issue
  /// (scoreboard stalls / memory waits), summed over SMs.
  std::uint64_t sm_idle_cycles = 0;
  /// Cycles spent issuing, summed over SMs.
  std::uint64_t sm_issue_cycles = 0;

  // --- global memory ---
  std::uint64_t global_requests = 0;      ///< half-warp requests
  std::uint64_t global_transactions = 0;  ///< DRAM transactions issued
  std::uint64_t global_bytes = 0;         ///< bytes moved on the DRAM bus
  std::uint64_t coalesced_requests = 0;
  std::uint64_t uncoalesced_requests = 0;

  // --- shared memory ---
  std::uint64_t shared_requests = 0;
  std::uint64_t shared_conflict_extra = 0;  ///< serialization steps beyond 1

  // --- local memory (register spills) ---
  std::uint64_t local_requests = 0;

  // --- read-only caches ---
  std::uint64_t const_requests = 0;
  std::uint64_t tex_requests = 0;
  std::uint64_t tex_hits = 0;    ///< texture-cache line hits (timing runs)
  std::uint64_t tex_misses = 0;

  // --- structure ---
  std::uint64_t barriers = 0;
  std::uint32_t blocks_total = 0;
  std::uint32_t blocks_simulated = 0;  ///< < blocks_total when sampled
  double extrapolation_factor = 1.0;   ///< cycles multiplier applied

  // --- fast-path instrumentation ---
  /// Coalescing-memo hit/miss totals (zero on the reference path). These are
  /// the only fields on which the fast path may legitimately differ from the
  /// reference; everything else is covered by the cycle-identity invariant.
  std::uint64_t coalesce_memo_hits = 0;
  std::uint64_t coalesce_memo_misses = 0;
  /// Bank-conflict-memo hit/miss totals (zero on the reference path).
  std::uint64_t conflict_memo_hits = 0;
  std::uint64_t conflict_memo_misses = 0;
  /// Retired: nothing writes these, so they are always zero. They counted
  /// the timing executor's batched runs, batch fallbacks and ready-heap
  /// pops, which are gone; the fields stay only because the repository
  /// benchmark (perfbench/workloads.cpp) still reads them.
  std::uint64_t timed_runs_issued = 0;
  std::uint64_t timed_run_fallbacks = 0;
  /// Decode-cache totals (zero on the reference path): compiled-kernel
  /// lookups served from the process-wide cache (progcache.hpp) vs.
  /// populated by a fresh decode + threaded compile.
  std::uint64_t decode_cache_hits = 0;
  std::uint64_t decode_cache_misses = 0;
  /// Fast-path run totals (zero on the reference path): converged runs
  /// dispatched through a compiled superblock trace (traces.hpp), by either
  /// executor, and memory steps that terminate such a run, stepped straight
  /// after its dispatch (DecodedRun::fuse_boundary; functional executor
  /// only).
  std::uint64_t traces_entered = 0;
  std::uint64_t fused_boundary_ops = 0;
  std::uint64_t pick_heap_pops = 0;  ///< retired, always zero (see above)

  [[nodiscard]] std::uint64_t region(Region r) const {
    return region_instructions[static_cast<std::size_t>(r)];
  }

  friend bool operator==(const LaunchStats&, const LaunchStats&) = default;

  /// Copy with the fast-path-only instrumentation zeroed: the part of the
  /// stats every execution path must agree on exactly. Equivalence tests
  /// compare `a.core() == b.core()`.
  [[nodiscard]] LaunchStats core() const {
    LaunchStats c = *this;
    c.coalesce_memo_hits = 0;
    c.coalesce_memo_misses = 0;
    c.conflict_memo_hits = 0;
    c.conflict_memo_misses = 0;
    c.decode_cache_hits = 0;
    c.decode_cache_misses = 0;
    c.traces_entered = 0;
    c.fused_boundary_ops = 0;
    return c;
  }
};

/// Coarse instruction classes for profiling reports.
enum class InstrClass : std::uint8_t {
  kFloatAlu,
  kIntAlu,
  kGlobalMemory,
  kSharedMemory,
  kControl,
  kOther,
};

[[nodiscard]] const char* to_string(InstrClass c);
/// Profiling class of an opcode; defined inline in opclass.hpp (include it
/// to call this - the accounting hot paths need the definition visible).
[[nodiscard]] InstrClass instr_class(Opcode op);

}  // namespace vgpu
