#include "vgpu/executor.hpp"

#include <array>
#include <optional>

#include "vgpu/check.hpp"
#include "vgpu/coalesce.hpp"
#include "vgpu/decode.hpp"
#include "vgpu/memo.hpp"
#include "vgpu/opclass.hpp"
#include "vgpu/progcache.hpp"

namespace vgpu {

void count_global_step(const StepResult& res, const DeviceSpec& spec,
                       DriverModel driver, LaunchStats& stats,
                       CoalesceResult& scratch, CoalesceMemo* memo) {
  const std::uint32_t half = spec.half_warp;
  std::array<std::uint32_t, 16> addrs{};
  for (std::uint32_t h = 0; h < spec.warp_size / half; ++h) {
    std::uint32_t active = 0;
    for (std::uint32_t k = 0; k < half; ++k) {
      const std::uint32_t lane = h * half + k;
      addrs[k] = res.lane_addrs[lane];
      if (res.mem_mask & (1u << lane)) active |= 1u << k;
    }
    if (active == 0) continue;
    MemRequest req{std::span<const std::uint32_t>(addrs.data(), half), active,
                   res.width, res.is_store};
    if (memo != nullptr) {
      memo->lookup(req, scratch);
    } else {
      coalesce(req, driver, scratch);
    }
    ++stats.global_requests;
    if (scratch.coalesced) {
      ++stats.coalesced_requests;
    } else {
      ++stats.uncoalesced_requests;
    }
    stats.global_transactions += scratch.transactions.size();
    stats.global_bytes += scratch.total_bytes();
  }
}

LaunchStats run_functional(const Program& prog, const DeviceSpec& spec,
                           GlobalMemory& gmem, const LaunchConfig& cfg,
                           std::span<const std::uint32_t> params,
                           const FunctionalOptions& opt) {
  VGPU_EXPECTS_MSG(params.size() == prog.num_params, "parameter count mismatch");
  VGPU_EXPECTS(cfg.grid_blocks >= 1);

  LaunchStats stats;
  stats.blocks_total = cfg.grid_blocks;
  stats.blocks_simulated = cfg.grid_blocks;
  CoalesceResult scratch;
  scratch.transactions.reserve(32);

  std::shared_ptr<const CompiledKernel> ck;
  std::optional<CoalesceMemo> memo;
  std::optional<ConflictMemo> cmemo;
  if (!opt.reference) {
    bool cache_hit = false;
    ck = acquire_compiled(prog, /*use_cache=*/true, &cache_hit);
    ++(cache_hit ? stats.decode_cache_hits : stats.decode_cache_misses);
    memo.emplace(opt.driver);
    cmemo.emplace(spec.warp_size, spec.half_warp, spec.shared_mem_banks);
  }
  CoalesceMemo* const memop = memo ? &*memo : nullptr;

  // Per-step accounting, shared between the single-step dispatch and the
  // fused boundary step (both see the same StepResult the step would have
  // produced, so the stats cannot differ between the two paths).
  auto account_step = [&](const StepResult& res) {
    ++stats.warp_instructions;
    ++stats.region_instructions[static_cast<std::size_t>(res.region)];
    ++stats.instr_class_counts[static_cast<std::size_t>(instr_class(res.op))];
    if (res.divergent_branch) ++stats.divergent_branches;
    switch (res.kind) {
      case StepResult::Kind::kGlobal:
        count_global_step(res, spec, opt.driver, stats, scratch, memop);
        break;
      case StepResult::Kind::kShared:
        count_shared_step(res, stats);
        break;
      case StepResult::Kind::kLocal:
        ++stats.local_requests;
        break;
      case StepResult::Kind::kConst:
        ++stats.const_requests;
        break;
      case StepResult::Kind::kTex:
        ++stats.tex_requests;
        break;
      case StepResult::Kind::kBarrier:
        ++stats.barriers;
        break;
      default:
        break;
    }
  };
  // Reused across fused boundary steps; exec_boundary rewrites every field
  // the accounting below reads.
  StepResult fres;

  // Fast path: one BlockExec reused across the grid (reset() per block);
  // reference path: a fresh BlockExec per block, as the original executor
  // allocated.
  std::optional<BlockExec> exec;
  for (std::uint32_t b = 0; b < cfg.grid_blocks; ++b) {
    BlockParams bp{b, cfg, params, 0, opt.cmem};
    if (!exec || opt.reference) {
      exec.emplace(prog, spec, gmem, bp, ck ? &ck->decoded() : nullptr);
      if (ck) {
        exec->set_conflict_memo(&*cmemo);
        exec->set_run_programs(ck->threaded(), ck->traces(),
                               &stats.traces_entered);
      }
    } else {
      exec->reset(bp);
    }
    while (!exec->all_done()) {
      bool progressed = false;
      for (std::uint32_t w = 0; w < exec->num_warps(); ++w) {
        WarpState& ws = exec->warp(w);
        while (!ws.done && !ws.at_barrier) {
          // Issue a whole converged straight-line run in one dispatch and
          // fold in its pre-aggregated accounting. A maximal run is always
          // followed by a non-batchable instruction: a fusable memory
          // terminator executes inside the same dispatch (fused boundary
          // step); otherwise fall through to the single-step dispatch for
          // it directly. The reference path installs no run programs, so
          // step_run declines and every instruction single-steps.
          bool fdone = false;
          if (const DecodedRun* run = exec->step_run(w, fres, fdone)) {
            progressed = true;
            stats.warp_instructions += run->len;
            stats.region_instructions[static_cast<std::size_t>(run->region)] +=
                run->len;
            for (std::size_t c = 0; c < run->class_counts.size(); ++c) {
              stats.instr_class_counts[c] += run->class_counts[c];
            }
            if (fdone) {
              account_step(fres);
              ++stats.fused_boundary_ops;
              continue;
            }
          }
          const StepResult res = exec->step(w, ws.issued * 4);
          progressed = true;
          account_step(res);
        }
      }
      if (exec->barrier_releasable()) {
        exec->release_barrier();
        progressed = true;
      }
      VGPU_ENSURES_MSG(progressed || exec->all_done(),
                       "functional executor deadlock (barrier mismatch?)");
    }
  }
  if (memo) {
    stats.coalesce_memo_hits = memo->hits();
    stats.coalesce_memo_misses = memo->misses();
  }
  if (cmemo) {
    stats.conflict_memo_hits = cmemo->hits();
    stats.conflict_memo_misses = cmemo->misses();
  }
  return stats;
}

}  // namespace vgpu
