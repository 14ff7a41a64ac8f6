// executor.hpp - functional (untimed) kernel execution.
//
// Runs a grid to completion for numerical results and architectural event
// counts (dynamic instructions per region, memory requests/transactions,
// bank conflicts). Cycle accounting is the timing executor's job
// (timing.hpp); the two share BlockExec, so they always agree functionally.
#pragma once

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
  /// one dispatch (BlockExec::step_run): through a superblock trace at run
  /// heads (traces.hpp), else the threaded-code loop (threaded.hpp), with
  /// a fusable run-terminating memory op executed in the same dispatch.
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

/// Accumulate the shared-memory counters of one step into `stats`: one
/// request, plus `degree - 1` extra serialization steps when the banks
/// conflict. This is the single definition both the functional and the
/// timing executor use, so the two can never drift apart on
/// `shared_requests` / `shared_conflict_extra` for the same kernel.
inline void count_shared_step(const StepResult& res, LaunchStats& stats) {
  ++stats.shared_requests;
  if (res.shared_conflict_degree > 1) {
    stats.shared_conflict_extra += res.shared_conflict_degree - 1;
  }
}

}  // namespace vgpu
