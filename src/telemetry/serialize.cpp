#include "telemetry/serialize.hpp"

namespace telemetry {

JsonValue to_json(const vgpu::LaunchStats& s) {
  JsonValue v = JsonValue::object();
  v["cycles"] = s.cycles;
  v["occupancy"] = s.occupancy;
  v["blocks_per_sm"] = s.blocks_per_sm;
  v["warp_instructions"] = s.warp_instructions;
  JsonValue& regions = v["region_instructions"];
  regions["setup"] = s.region(vgpu::Region::kSetup);
  regions["block_fetch"] = s.region(vgpu::Region::kBlockFetch);
  regions["inner"] = s.region(vgpu::Region::kInner);
  regions["other"] = s.region(vgpu::Region::kOther);
  JsonValue& mix = v["instr_class_counts"];
  for (std::size_t c = 0; c < s.instr_class_counts.size(); ++c) {
    mix[vgpu::to_string(static_cast<vgpu::InstrClass>(c))] =
        s.instr_class_counts[c];
  }
  v["divergent_branches"] = s.divergent_branches;
  v["sm_idle_cycles"] = s.sm_idle_cycles;
  v["sm_issue_cycles"] = s.sm_issue_cycles;
  v["global_requests"] = s.global_requests;
  v["global_transactions"] = s.global_transactions;
  v["global_bytes"] = s.global_bytes;
  v["coalesced_requests"] = s.coalesced_requests;
  v["uncoalesced_requests"] = s.uncoalesced_requests;
  v["coalesce_memo_hits"] = s.coalesce_memo_hits;
  v["coalesce_memo_misses"] = s.coalesce_memo_misses;
  v["shared_requests"] = s.shared_requests;
  v["shared_conflict_extra"] = s.shared_conflict_extra;
  v["conflict_memo_hits"] = s.conflict_memo_hits;
  v["conflict_memo_misses"] = s.conflict_memo_misses;
  v["decode_cache_hits"] = s.decode_cache_hits;
  v["decode_cache_misses"] = s.decode_cache_misses;
  v["traces_entered"] = s.traces_entered;
  v["fused_boundary_ops"] = s.fused_boundary_ops;
  v["local_requests"] = s.local_requests;
  v["const_requests"] = s.const_requests;
  v["tex_requests"] = s.tex_requests;
  v["tex_hits"] = s.tex_hits;
  v["tex_misses"] = s.tex_misses;
  v["barriers"] = s.barriers;
  v["blocks_total"] = s.blocks_total;
  v["blocks_simulated"] = s.blocks_simulated;
  v["extrapolation_factor"] = s.extrapolation_factor;
  return v;
}

JsonValue to_json(const vgpu::OccupancyResult& o) {
  JsonValue v = JsonValue::object();
  v["blocks_per_sm"] = o.blocks_per_sm;
  v["warps_per_sm"] = o.warps_per_sm;
  v["threads_per_sm"] = o.threads_per_sm;
  v["occupancy"] = o.occupancy;
  v["limiter"] = vgpu::to_string(o.limiter);
  return v;
}

JsonValue to_json(const vgpu::KernelProfile& p) {
  JsonValue v = JsonValue::object();
  v["kernel"] = p.kernel_name;
  v["regs_per_thread"] = p.regs_per_thread;
  v["shared_bytes"] = p.shared_bytes;
  v["block_threads"] = p.block_threads;
  v["limiter"] = vgpu::to_string(p.limiter);
  v["ipc"] = p.ipc;
  v["issue_utilization"] = p.issue_utilization;
  v["coalesced_fraction"] = p.coalesced_fraction;
  v["achieved_gbps"] = p.achieved_gbps;
  v["avg_txn_per_request"] = p.avg_txn_per_request;
  v["divergence_rate"] = p.divergence_rate;
  v["stats"] = to_json(p.stats);
  v["attribution"] = to_json(p.attribution);
  return v;
}

JsonValue to_json(const vgpu::Attribution& a) {
  JsonValue v = JsonValue::object();
  v["collected"] = a.collected;
  if (!a.collected) return v;
  v["total_issues"] = a.total_issues;
  v["total_issue_cycles"] = a.total_issue_cycles;
  v["total_stall_cycles"] = a.total_stall_cycles;
  v["top_stall_reason"] = vgpu::to_string(a.top_stall_reason());
  v["memory_bound_fraction"] = a.memory_bound_fraction();
  JsonValue& by_reason = v["stall_by_reason"];
  for (std::size_t r = 0; r < vgpu::kStallReasonCount; ++r) {
    by_reason[vgpu::to_string(static_cast<vgpu::StallReason>(r))] =
        a.stall_by_reason[r];
  }
  JsonValue& rows = v["pcs"];
  rows = JsonValue::array();
  for (std::size_t pc = 0; pc < a.pcs.size(); ++pc) {
    const vgpu::PcAttribution& c = a.pcs[pc];
    if (c.issues == 0 && c.stall_total() == 0) continue;
    JsonValue row = JsonValue::object();
    row["pc"] = static_cast<std::uint64_t>(pc);
    row["block"] = c.block;
    row["ip"] = c.ip;
    row["region"] = vgpu::to_string(c.region);
    row["issues"] = c.issues;
    row["issue_cycles"] = c.issue_cycles;
    JsonValue& stall = row["stall_cycles"];
    for (std::size_t r = 0; r < vgpu::kStallReasonCount; ++r) {
      if (c.stall_cycles[r] == 0) continue;
      stall[vgpu::to_string(static_cast<vgpu::StallReason>(r))] =
          c.stall_cycles[r];
    }
    if (c.global_requests > 0) {
      row["global_requests"] = c.global_requests;
      row["coalesced_requests"] = c.coalesced_requests;
      row["uncoalesced_requests"] = c.uncoalesced_requests;
      row["global_transactions"] = c.global_transactions;
      row["addr_lo"] = c.addr_lo;
      row["addr_hi"] = c.addr_hi;
    }
    if (c.dram_bytes > 0) row["dram_bytes"] = c.dram_bytes;
    if (c.shared_requests > 0) {
      row["shared_requests"] = c.shared_requests;
      row["shared_conflict_extra"] = c.shared_conflict_extra;
    }
    rows.push_back(std::move(row));
  }
  return v;
}

}  // namespace telemetry
