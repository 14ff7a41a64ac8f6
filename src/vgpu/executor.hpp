// executor.hpp - functional (untimed) kernel execution.
//
// Runs a grid to completion for numerical results and architectural event
// counts (dynamic instructions per region, memory requests/transactions,
// bank conflicts). Cycle accounting is the timing executor's job
// (timing.hpp); the two share BlockExec, so they always agree functionally.
#pragma once

#include <array>
#include <span>

#include "vgpu/arch.hpp"
#include "vgpu/coalesce.hpp"
#include "vgpu/interp.hpp"
#include "vgpu/launch.hpp"
#include "vgpu/memory.hpp"

namespace vgpu {

class CoalesceMemo;

struct FunctionalOptions {
  /// Driver model used to *count* coalescing/transactions (no timing).
  DriverModel driver = DriverModel::kCuda10;
  /// Constant-memory image to bind (null = kernel uses none).
  const ConstantMemory* cmem = nullptr;
  /// Run the reference interpreter instead of the pre-decoded fast path.
  /// Both must agree bit for bit (numerics) and field for field
  /// (LaunchStats::core()); the differential tests exercise this flag.
  /// The fast path serves its compiled kernel from the process-wide decode
  /// cache (progcache.hpp) and issues each converged straight-line run in
  /// one dispatch (BlockExec::step_run), through the run's superblock
  /// trace (traces.hpp), with a uniform terminating branch executed in the
  /// same dispatch - and when that branch is a loop's back-edge to the
  /// run's head, every further iteration too.
  bool reference = false;
};

/// Execute the whole grid block-by-block. The program must be finished
/// (register layout present); it may be pre- or post-register-allocation.
LaunchStats run_functional(const Program& prog, const DeviceSpec& spec,
                           GlobalMemory& gmem, const LaunchConfig& cfg,
                           std::span<const std::uint32_t> params,
                           const FunctionalOptions& opt = {});

/// Accumulate the memory-system statistics of one global-memory step into
/// `stats` (shared between the functional and timing executors). With a
/// memo the coalescing decision is served from the pattern cache; the
/// resulting transactions are identical to the direct call.
void count_global_step(const StepResult& res, const DeviceSpec& spec,
                       DriverModel driver, LaunchStats& stats,
                       CoalesceResult& scratch, CoalesceMemo* memo = nullptr);

/// Accumulate the shared-memory counters of `n` requests of one conflict
/// degree into `stats`: one request each, plus `degree - 1` extra
/// serialization steps each when the banks conflict. This is the single
/// definition both the functional and the timing executor use, for single
/// steps and run members alike, so the two can never drift apart on
/// `shared_requests` / `shared_conflict_extra` for the same kernel.
inline void count_shared_requests(std::uint64_t n, std::uint32_t degree,
                                  LaunchStats& stats) {
  stats.shared_requests += n;
  if (degree > 1) stats.shared_conflict_extra += n * (degree - 1);
}

/// Bank-conflict degree of a warp-uniform shared load (a run member,
/// decode.hpp) of each width, in DecodedRun::shared_loads order: the degree
/// warp_bank_conflict_degree gives a converged warp whose lanes all read one
/// aligned address. Shifting that address by whole words rotates every
/// lane's banks alike, so the degree does not depend on it. Executors
/// compute this once per launch.
[[nodiscard]] std::array<std::uint32_t, 3> uniform_shared_degrees(
    const DeviceSpec& spec);

}  // namespace vgpu
