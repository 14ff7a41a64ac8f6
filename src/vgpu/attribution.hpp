// attribution.hpp - stall-attribution taxonomy and per-static-PC tables.
//
// The timing executor knows, at every scheduling decision, why a warp
// cannot issue: a scoreboard wait on a global/shared/local/tex load, a
// barrier, the issue pipeline, or DRAM channel queueing behind earlier
// traffic. This header defines the taxonomy of those causes and the
// per-static-PC table the executor fills when TimingOptions::attribution
// is set (fast path only; the reference interpreter leaves it
// uncollected).
//
// The invariants mirror LaunchStats' own discipline:
//   * zero-cost when off - no allocation, no classification work;
//   * cycle-identical when on - attribution observes, never perturbs;
//   * exact reconciliation - the per-PC sums equal the end-of-run
//     LaunchStats aggregates (sm_issue_cycles, sm_idle_cycles,
//     global_transactions, ...), bit-identical at any thread count.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "vgpu/ir.hpp"
#include "vgpu/launch.hpp"

namespace vgpu {

/// Why a stalled SM could not issue. Every idle cycle is charged to
/// exactly one reason at exactly one static PC (the instruction whose
/// unmet dependency gated the earliest wake-up - the consumer, as in
/// hardware stall sampling).
///
/// The enum order is a tie-break priority: when several contributors of a
/// stalled instruction become ready on the same cycle, the smallest value
/// wins. The recorded tables and event streams depend on this order, so
/// it must not change.
enum class StallReason : std::uint8_t {
  kPipeline = 0,  ///< ALU/const result latency
  kIssuePort,     ///< SM front end busy (warp's own issue slot or
                  ///< block start-up after a dispatch)
  kBarrier,       ///< waiting out the barrier release latency
  kShared,        ///< shared-memory load result (bank serialization
                  ///< itself shows up as issue cycles at the shared op)
  kConst,         ///< constant-cache load result
  kLocal,         ///< local-spill load result
  kTex,           ///< texture fetch result
  kGlobal,        ///< global-load result (DRAM channel was free)
  kDramBusy,      ///< load queued behind earlier DRAM channel traffic
};

inline constexpr std::size_t kStallReasonCount = 9;

[[nodiscard]] inline const char* to_string(StallReason r) {
  switch (r) {
    case StallReason::kPipeline: return "pipeline-latency";
    case StallReason::kIssuePort: return "issue-port-busy";
    case StallReason::kBarrier: return "barrier";
    case StallReason::kShared: return "shared-mem-dep";
    case StallReason::kConst: return "const-mem-dep";
    case StallReason::kLocal: return "local-spill-dep";
    case StallReason::kTex: return "tex-dep";
    case StallReason::kGlobal: return "global-load-dep";
    case StallReason::kDramBusy: return "dram-channel-busy";
  }
  return "?";
}

/// True for reasons that mean "waiting for off-chip (DRAM-path) data" -
/// the numerator of the memory-bound fraction.
[[nodiscard]] inline bool is_memory_stall(StallReason r) {
  return r == StallReason::kGlobal || r == StallReason::kDramBusy ||
         r == StallReason::kLocal || r == StallReason::kTex;
}

/// Everything the run attributed to one static instruction (one index in
/// the decoded stream; `block`/`ip` locate it in the Program). Counters
/// are raw simulated values, unextrapolated, exactly like LaunchStats.
struct PcAttribution {
  std::uint32_t block = 0;
  std::uint32_t ip = 0;
  Region region = Region::kOther;

  std::uint64_t issues = 0;        ///< warp-instructions issued at this PC
  std::uint64_t issue_cycles = 0;  ///< issue-port occupancy charged here
  std::array<std::uint64_t, kStallReasonCount> stall_cycles{};

  std::uint64_t global_requests = 0;  ///< half-warp global requests
  std::uint64_t coalesced_requests = 0;
  std::uint64_t uncoalesced_requests = 0;
  std::uint64_t global_transactions = 0;
  /// DRAM bytes moved on behalf of this PC: global transactions plus
  /// local-spill and texture-line fills, so the column sums to
  /// LaunchStats::global_bytes.
  std::uint64_t dram_bytes = 0;
  std::uint64_t shared_requests = 0;
  std::uint64_t shared_conflict_extra = 0;

  /// Global address window touched by this PC ([lo, hi) byte addresses),
  /// identifying which buffer the accesses land in. Valid only when
  /// global_requests > 0.
  std::uint64_t addr_lo = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t addr_hi = 0;

  [[nodiscard]] std::uint64_t stall_total() const {
    std::uint64_t sum = 0;
    for (const std::uint64_t v : stall_cycles) sum += v;
    return sum;
  }

  /// Element-wise accumulation used by the deterministic per-worker
  /// reduction: integer sums plus min/max of the address window, all
  /// order-independent.
  void merge_from(const PcAttribution& o) {
    issues += o.issues;
    issue_cycles += o.issue_cycles;
    for (std::size_t r = 0; r < kStallReasonCount; ++r) {
      stall_cycles[r] += o.stall_cycles[r];
    }
    global_requests += o.global_requests;
    coalesced_requests += o.coalesced_requests;
    uncoalesced_requests += o.uncoalesced_requests;
    global_transactions += o.global_transactions;
    dram_bytes += o.dram_bytes;
    shared_requests += o.shared_requests;
    shared_conflict_extra += o.shared_conflict_extra;
    addr_lo = addr_lo < o.addr_lo ? addr_lo : o.addr_lo;
    addr_hi = addr_hi > o.addr_hi ? addr_hi : o.addr_hi;
  }

  [[nodiscard]] bool operator==(const PcAttribution&) const = default;
};

/// Output of one attributed timed launch: the per-PC table plus its
/// precomputed totals. `collected` stays false when the run could not
/// attribute (reference-interpreter runs).
struct Attribution {
  bool collected = false;
  std::vector<PcAttribution> pcs;  ///< indexed by decoded-stream PC

  // Totals over pcs, filled by finalize_totals().
  std::uint64_t total_issues = 0;
  std::uint64_t total_issue_cycles = 0;
  std::uint64_t total_stall_cycles = 0;
  std::array<std::uint64_t, kStallReasonCount> stall_by_reason{};

  void finalize_totals() {
    total_issues = total_issue_cycles = total_stall_cycles = 0;
    stall_by_reason = {};
    for (const PcAttribution& a : pcs) {
      total_issues += a.issues;
      total_issue_cycles += a.issue_cycles;
      for (std::size_t r = 0; r < kStallReasonCount; ++r) {
        stall_by_reason[r] += a.stall_cycles[r];
      }
    }
    for (const std::uint64_t v : stall_by_reason) total_stall_cycles += v;
  }

  [[nodiscard]] std::uint64_t memory_stall_cycles() const {
    std::uint64_t sum = 0;
    for (std::size_t r = 0; r < kStallReasonCount; ++r) {
      if (is_memory_stall(static_cast<StallReason>(r))) {
        sum += stall_by_reason[r];
      }
    }
    return sum;
  }

  /// Share of all accounted SM cycles (issue + stall) spent waiting on
  /// off-chip data. 0 when nothing was accounted.
  [[nodiscard]] double memory_bound_fraction() const {
    const std::uint64_t denom = total_issue_cycles + total_stall_cycles;
    if (denom == 0) return 0.0;
    return static_cast<double>(memory_stall_cycles()) /
           static_cast<double>(denom);
  }

  [[nodiscard]] StallReason top_stall_reason() const {
    std::size_t best = 0;
    for (std::size_t r = 1; r < kStallReasonCount; ++r) {
      if (stall_by_reason[r] > stall_by_reason[best]) best = r;
    }
    return static_cast<StallReason>(best);
  }

  [[nodiscard]] bool operator==(const Attribution&) const = default;
};

/// Exact reconciliation against the run's LaunchStats: every aggregate the
/// attribution claims to decompose must sum back to the corresponding
/// stats field. Both sides are raw (unextrapolated) counters.
[[nodiscard]] inline bool reconciles(const Attribution& a,
                                     const LaunchStats& s) {
  if (!a.collected) return false;
  std::uint64_t requests = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t uncoalesced = 0;
  std::uint64_t transactions = 0;
  std::uint64_t bytes = 0;
  std::uint64_t shared = 0;
  std::uint64_t conflict_extra = 0;
  for (const PcAttribution& p : a.pcs) {
    requests += p.global_requests;
    coalesced += p.coalesced_requests;
    uncoalesced += p.uncoalesced_requests;
    transactions += p.global_transactions;
    bytes += p.dram_bytes;
    shared += p.shared_requests;
    conflict_extra += p.shared_conflict_extra;
  }
  return a.total_issues == s.warp_instructions &&
         a.total_issue_cycles == s.sm_issue_cycles &&
         a.total_stall_cycles == s.sm_idle_cycles &&
         requests == s.global_requests &&
         coalesced == s.coalesced_requests &&
         uncoalesced == s.uncoalesced_requests &&
         transactions == s.global_transactions && bytes == s.global_bytes &&
         shared == s.shared_requests &&
         conflict_extra == s.shared_conflict_extra;
}

}  // namespace vgpu
