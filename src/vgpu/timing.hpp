// timing.hpp - cycle-approximate execution.
//
// An event-driven model of the G80 execution pipeline:
//  * each SM issues one warp instruction at a time (32 threads over 8 SPs,
//    4 cycles per issue) to the warp picked by loose round robin among the
//    ready warps of its resident blocks - this is what makes occupancy
//    matter: more resident warps hide more global-memory latency;
//  * global accesses go through the coalescing model of the selected CUDA
//    driver generation and their transactions queue on the shared DRAM
//    partitions (bandwidth + per-transaction overhead -> contention);
//  * shared-memory accesses serialize by bank-conflict degree;
//  * barriers release when all warps of the block arrive;
//  * finished blocks are replaced from the grid queue.
//
// Large grids/loops can be sampled: `max_blocks` simulates a prefix of the
// grid (ideally whole waves) and reports the extrapolation factor; tile
// sampling for periodic kernels lives in sampling.hpp.
#pragma once

#include <span>

#include "vgpu/arch.hpp"
#include "vgpu/attribution.hpp"
#include "vgpu/launch.hpp"
#include "vgpu/memory.hpp"

namespace vgpu {

class TimelineSink;  // timeline.hpp - optional observer of the run

struct TimingOptions {
  DriverModel driver = DriverModel::kCuda10;
  /// Number of SMs to simulate (0 = all). When fewer than the device has,
  /// DRAM bandwidth is scaled proportionally so per-SM behaviour matches.
  std::uint32_t sim_sms = 0;
  /// Simulate at most this many blocks (0 = whole grid); cycles then carry
  /// extrapolation_factor = grid / simulated.
  std::uint32_t max_blocks = 0;
  /// Constant-memory image to bind (null = kernel uses none).
  const ConstantMemory* cmem = nullptr;
  /// Optional timeline observer (null = off). Observing is side-effect
  /// free: the reported stats are bit-identical with and without a sink.
  TimelineSink* sink = nullptr;
  /// Run the reference interpreter/scoreboard instead of the pre-decoded
  /// fast path. Both must report identical LaunchStats::core() - including
  /// cycles - and identical memory contents; the differential tests
  /// exercise this flag. The fast path serves its decoded program from the
  /// process-wide decode cache (progcache.hpp) and issues one instruction
  /// per scheduling decision, like the reference, with the scoreboard read
  /// set pre-flattened and each warp's probe result cached between picks.
  bool reference = false;
  /// Per-static-PC stall attribution output (null = off). When set on the
  /// fast path, the run fills the table with issue cycles, stall cycles by
  /// StallReason and memory traffic per decoded PC; the per-PC sums
  /// reconcile exactly with the returned LaunchStats (see
  /// attribution.hpp::reconciles). Collection is cycle-identical - it
  /// observes scheduling decisions the executor already makes - and
  /// bit-identical at any thread count.
  /// Reference-interpreter runs leave the table with collected = false.
  Attribution* attribution = nullptr;
  /// Host threads stepping SMs (0 counts as 1). Every run steps the SMs
  /// through conservative cycle buckets and merges DRAM-partition traffic
  /// deterministically between them; more threads shard each bucket's SMs
  /// across workers. LaunchStats::core() - including cycles - memory
  /// contents and the sink event stream are bit-identical at every thread
  /// count (docs/performance.md, "Multi-threaded timing").
  std::uint32_t threads = 1;
};

/// Run the grid under the timing model. The program must be
/// register-allocated (occupancy needs the physical register count).
LaunchStats run_timed(const Program& prog, const DeviceSpec& spec,
                      GlobalMemory& gmem, const LaunchConfig& cfg,
                      std::span<const std::uint32_t> params,
                      const TimingOptions& opt = {});

}  // namespace vgpu
