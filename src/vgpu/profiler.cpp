#include "vgpu/profiler.hpp"

#include <algorithm>
#include <array>
#include <sstream>
#include <vector>

#include "vgpu/check.hpp"
#include "vgpu/occupancy.hpp"

namespace vgpu {

KernelProfile profile_kernel(const Program& prog, Device& dev,
                             const LaunchConfig& cfg,
                             std::span<const std::uint32_t> params,
                             const TimingOptions& opt) {
  VGPU_EXPECTS_MSG(prog.allocated, "profile requires an allocated program");
  KernelProfile p;
  p.kernel_name = prog.name;
  p.regs_per_thread = prog.num_phys_regs;
  p.shared_bytes = prog.shared_bytes;
  p.block_threads = cfg.block_threads;

  const OccupancyResult occ = compute_occupancy(
      dev.spec(), cfg.block_threads, prog.num_phys_regs, prog.shared_bytes);
  p.limiter = occ.limiter;

  // Always attribute: collection is cycle-identical, and every report
  // (hotspots, JSON export) can then rely on the table being present. A
  // caller-supplied table still receives its copy.
  TimingOptions topt = opt;
  topt.attribution = &p.attribution;
  p.stats = run_timed(prog, dev.spec(), dev.gmem(), cfg, params, topt);
  if (opt.attribution != nullptr) *opt.attribution = p.attribution;
  const LaunchStats& s = p.stats;

  const std::uint32_t n_sms = opt.sim_sms == 0 ? dev.spec().sm_count
                                               : std::min(opt.sim_sms, dev.spec().sm_count);
  const double sm_cycles = static_cast<double>(s.cycles) * n_sms;
  if (s.cycles > 0) {
    p.ipc = static_cast<double>(s.warp_instructions) / sm_cycles;
    p.issue_utilization = static_cast<double>(s.sm_issue_cycles) / sm_cycles;
    // bytes / cycles -> bytes/cycle; * clock(kHz) * 1000 -> bytes/s
    const double bytes_per_cycle =
        static_cast<double>(s.global_bytes) / static_cast<double>(s.cycles);
    p.achieved_gbps = bytes_per_cycle * dev.spec().core_clock_khz * 1000.0 / 1e9;
  }
  if (s.global_requests > 0) {
    p.coalesced_fraction = static_cast<double>(s.coalesced_requests) /
                           static_cast<double>(s.global_requests);
    p.avg_txn_per_request = static_cast<double>(s.global_transactions) /
                            static_cast<double>(s.global_requests);
  }
  const std::uint64_t control =
      s.instr_class_counts[static_cast<std::size_t>(InstrClass::kControl)];
  if (control > 0) {
    p.divergence_rate =
        static_cast<double>(s.divergent_branches) / static_cast<double>(control);
  }
  return p;
}

std::string format_profile(const KernelProfile& p, const DeviceSpec& spec) {
  const LaunchStats& s = p.stats;
  std::ostringstream os;
  char buf[160];
  auto line = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof(buf), fmt, args...);
    os << buf << "\n";
  };
  os << "=== vgpu profile: " << p.kernel_name << " ===\n";
  line("launch         : %u blocks x %u threads  (%u simulated, x%.2f)",
       s.blocks_total, p.block_threads, s.blocks_simulated,
       s.extrapolation_factor);
  line("resources      : %u regs/thread, %u B shared/block", p.regs_per_thread,
       p.shared_bytes);
  line("occupancy      : %.0f%% (%u blocks/SM, limited by %s)",
       100.0 * s.occupancy, s.blocks_per_sm, to_string(p.limiter));
  line("cycles         : %llu  (%.3f ms at %.2f GHz)",
       static_cast<unsigned long long>(s.cycles), spec.cycles_to_ms(
           static_cast<double>(s.cycles)),
       spec.core_clock_khz / 1e6);
  line("warp instrs    : %llu  (IPC/SM %.3f, issue util %.0f%%)",
       static_cast<unsigned long long>(s.warp_instructions), p.ipc,
       100.0 * p.issue_utilization);
  if (s.decode_cache_hits + s.decode_cache_misses > 0) {
    line("decode cache   : %llu hits / %llu misses (%.1f%% hit rate)",
         static_cast<unsigned long long>(s.decode_cache_hits),
         static_cast<unsigned long long>(s.decode_cache_misses),
         100.0 * static_cast<double>(s.decode_cache_hits) /
             static_cast<double>(s.decode_cache_hits + s.decode_cache_misses));
  }
  os << "instruction mix:";
  const std::uint64_t total = s.warp_instructions > 0 ? s.warp_instructions : 1;
  for (std::size_t c = 0; c < s.instr_class_counts.size(); ++c) {
    if (s.instr_class_counts[c] == 0) continue;
    line("  %-12s %6.1f%%  (%llu)", to_string(static_cast<InstrClass>(c)),
         100.0 * static_cast<double>(s.instr_class_counts[c]) /
             static_cast<double>(total),
         static_cast<unsigned long long>(s.instr_class_counts[c]));
  }
  line("S/B/P regions  : S %llu, B %llu, P %llu, other %llu (warp instrs)",
       static_cast<unsigned long long>(s.region(Region::kSetup)),
       static_cast<unsigned long long>(s.region(Region::kBlockFetch)),
       static_cast<unsigned long long>(s.region(Region::kInner)),
       static_cast<unsigned long long>(s.region(Region::kOther)));
  line("global memory  : %llu requests, %.1f txn/request, %.0f%% coalesced",
       static_cast<unsigned long long>(s.global_requests),
       p.avg_txn_per_request, 100.0 * p.coalesced_fraction);
  if (s.coalesce_memo_hits + s.coalesce_memo_misses > 0) {
    line("coalesce memo  : %llu hits / %llu misses (%.1f%% hit rate)",
         static_cast<unsigned long long>(s.coalesce_memo_hits),
         static_cast<unsigned long long>(s.coalesce_memo_misses),
         100.0 * static_cast<double>(s.coalesce_memo_hits) /
             static_cast<double>(s.coalesce_memo_hits + s.coalesce_memo_misses));
  }
  line("dram traffic   : %llu B (%.2f GB/s achieved, %.1f GB/s peak)",
       static_cast<unsigned long long>(s.global_bytes), p.achieved_gbps,
       static_cast<double>(spec.timing.dram_bytes_per_cycle) *
           spec.core_clock_khz * 1000.0 / 1e9);
  line("shared memory  : %llu requests, %llu conflict serializations",
       static_cast<unsigned long long>(s.shared_requests),
       static_cast<unsigned long long>(s.shared_conflict_extra));
  if (s.conflict_memo_hits + s.conflict_memo_misses > 0) {
    line("conflict memo  : %llu hits / %llu misses (%.1f%% hit rate)",
         static_cast<unsigned long long>(s.conflict_memo_hits),
         static_cast<unsigned long long>(s.conflict_memo_misses),
         100.0 * static_cast<double>(s.conflict_memo_hits) /
             static_cast<double>(s.conflict_memo_hits + s.conflict_memo_misses));
  }
  line("other memory   : %llu local (spill), %llu const, %llu tex (%llu hit / %llu miss)",
       static_cast<unsigned long long>(s.local_requests),
       static_cast<unsigned long long>(s.const_requests),
       static_cast<unsigned long long>(s.tex_requests),
       static_cast<unsigned long long>(s.tex_hits),
       static_cast<unsigned long long>(s.tex_misses));
  line("control        : %llu barriers, %llu divergent branches (%.2f%% of control)",
       static_cast<unsigned long long>(s.barriers),
       static_cast<unsigned long long>(s.divergent_branches),
       100.0 * p.divergence_rate);
  return std::move(os).str();
}

std::string format_hotspots(const KernelProfile& p, const Program& prog,
                            const DeviceSpec& spec, std::uint32_t top_n) {
  std::ostringstream os;
  char buf[200];
  auto line = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof(buf), fmt, args...);
    os << buf << "\n";
  };
  os << "=== vgpu hotspots: " << p.kernel_name << " ===\n";
  const Attribution& a = p.attribution;
  if (!a.collected) {
    os << "(no attribution: reference-interpreter run)\n";
    return std::move(os).str();
  }

  // Roofline-style verdict: where did the accounted SM cycles go, and how
  // close did the DRAM traffic come to the machine's peak bandwidth?
  const double peak_gbps =
      static_cast<double>(spec.timing.dram_bytes_per_cycle) *
      spec.core_clock_khz * 1000.0 / 1e9;
  const double mem_frac = a.memory_bound_fraction();
  const std::uint64_t accounted = a.total_issue_cycles + a.total_stall_cycles;
  const char* verdict = mem_frac >= 0.5 ? "MEMORY-BOUND" : "ISSUE-BOUND";
  line("verdict        : %s  (%.0f%% of SM cycles waiting on DRAM-path data)",
       verdict, 100.0 * mem_frac);
  line("dram bandwidth : %.2f GB/s achieved of %.1f GB/s peak (%.0f%%)",
       p.achieved_gbps, peak_gbps,
       peak_gbps > 0 ? 100.0 * p.achieved_gbps / peak_gbps : 0.0);
  line("accounted      : %llu SM cycles  (%llu issue + %llu stall)",
       static_cast<unsigned long long>(accounted),
       static_cast<unsigned long long>(a.total_issue_cycles),
       static_cast<unsigned long long>(a.total_stall_cycles));

  // Stall breakdown, largest reason first.
  os << "stall breakdown:\n";
  std::array<std::size_t, kStallReasonCount> order{};
  for (std::size_t r = 0; r < kStallReasonCount; ++r) order[r] = r;
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    if (a.stall_by_reason[x] != a.stall_by_reason[y]) {
      return a.stall_by_reason[x] > a.stall_by_reason[y];
    }
    return x < y;
  });
  for (const std::size_t r : order) {
    if (a.stall_by_reason[r] == 0) continue;
    line("  %-18s %12llu cycles  (%5.1f%%)",
         to_string(static_cast<StallReason>(r)),
         static_cast<unsigned long long>(a.stall_by_reason[r]),
         a.total_stall_cycles > 0
             ? 100.0 * static_cast<double>(a.stall_by_reason[r]) /
                   static_cast<double>(a.total_stall_cycles)
             : 0.0);
  }

  // Top-N PCs by accounted cycles (issue + stall), with disassembly.
  std::vector<std::uint32_t> pcs(a.pcs.size());
  const auto npcs = static_cast<std::uint32_t>(pcs.size());
  for (std::uint32_t i = 0; i < npcs; ++i) pcs[i] = i;
  std::sort(pcs.begin(), pcs.end(), [&](std::uint32_t x, std::uint32_t y) {
    const std::uint64_t cx = a.pcs[x].issue_cycles + a.pcs[x].stall_total();
    const std::uint64_t cy = a.pcs[y].issue_cycles + a.pcs[y].stall_total();
    if (cx != cy) return cx > cy;
    return x < y;
  });
  const std::uint32_t shown =
      std::min<std::uint32_t>(top_n, static_cast<std::uint32_t>(pcs.size()));
  line("top %u PCs by accounted cycles:", shown);
  for (std::uint32_t i = 0; i < shown; ++i) {
    const std::uint32_t pc = pcs[i];
    const PcAttribution& c = a.pcs[pc];
    const std::uint64_t cost = c.issue_cycles + c.stall_total();
    if (cost == 0) break;
    StallReason top = StallReason::kPipeline;
    for (std::size_t r = 1; r < kStallReasonCount; ++r) {
      if (c.stall_cycles[r] >
          c.stall_cycles[static_cast<std::size_t>(top)]) {
        top = static_cast<StallReason>(r);
      }
    }
    const Instruction& in = prog.blocks[c.block].instrs[c.ip];
    line("  #%-2u pc %-4u b%u.%-3u [%-11s] %10llu cyc (%llu issue + %llu "
         "stall, top: %s)",
         i + 1, pc, c.block, c.ip, to_string(c.region),
         static_cast<unsigned long long>(cost),
         static_cast<unsigned long long>(c.issue_cycles),
         static_cast<unsigned long long>(c.stall_total()),
         c.stall_total() > 0 ? to_string(top) : "-");
    os << "        " << disassemble(in) << "\n";
    if (c.global_requests > 0) {
      line("        %llu reqs (%.0f%% coalesced), %llu txns, %llu B, addr "
           "[0x%llx, 0x%llx)",
           static_cast<unsigned long long>(c.global_requests),
           100.0 * static_cast<double>(c.coalesced_requests) /
               static_cast<double>(c.global_requests),
           static_cast<unsigned long long>(c.global_transactions),
           static_cast<unsigned long long>(c.dram_bytes),
           static_cast<unsigned long long>(c.addr_lo),
           static_cast<unsigned long long>(c.addr_hi));
    }
  }

  // Per-region coalescing: the paper's S/B/P split, by memory behaviour.
  os << "per-region coalescing:\n";
  for (std::size_t reg = 0; reg < kRegionCount; ++reg) {
    std::uint64_t req = 0;
    std::uint64_t coal = 0;
    std::uint64_t txn = 0;
    std::uint64_t bytes = 0;
    for (const PcAttribution& c : a.pcs) {
      if (static_cast<std::size_t>(c.region) != reg) continue;
      req += c.global_requests;
      coal += c.coalesced_requests;
      txn += c.global_transactions;
      bytes += c.dram_bytes;
    }
    if (req == 0 && bytes == 0) continue;
    line("  %-12s %10llu reqs  %5.1f%% coalesced  %10llu txns  %12llu B",
         to_string(static_cast<Region>(reg)),
         static_cast<unsigned long long>(req),
         req > 0 ? 100.0 * static_cast<double>(coal) /
                       static_cast<double>(req)
                 : 0.0,
         static_cast<unsigned long long>(txn),
         static_cast<unsigned long long>(bytes));
  }

  // Per-buffer heatmap: cluster the PC address windows into disjoint
  // buffers (windows that overlap touch the same allocation) and show
  // where the coalesced and uncoalesced traffic lands.
  struct Window {
    std::uint64_t lo, hi;
    std::uint64_t req, coal, txn, bytes;
  };
  std::vector<Window> win;
  for (const PcAttribution& c : a.pcs) {
    if (c.global_requests == 0) continue;
    win.push_back(Window{c.addr_lo, c.addr_hi, c.global_requests,
                         c.coalesced_requests, c.global_transactions,
                         c.dram_bytes});
  }
  std::sort(win.begin(), win.end(),
            [](const Window& x, const Window& y) { return x.lo < y.lo; });
  std::vector<Window> buffers;
  for (const Window& w : win) {
    if (!buffers.empty() && w.lo < buffers.back().hi) {
      Window& b = buffers.back();
      b.hi = std::max(b.hi, w.hi);
      b.req += w.req;
      b.coal += w.coal;
      b.txn += w.txn;
      b.bytes += w.bytes;
    } else {
      buffers.push_back(w);
    }
  }
  if (!buffers.empty()) {
    os << "per-buffer heatmap (global address windows):\n";
    for (const Window& b : buffers) {
      line("  [0x%08llx, 0x%08llx) %10llu reqs  %5.1f%% coalesced  %12llu B",
           static_cast<unsigned long long>(b.lo),
           static_cast<unsigned long long>(b.hi),
           static_cast<unsigned long long>(b.req),
           100.0 * static_cast<double>(b.coal) / static_cast<double>(b.req),
           static_cast<unsigned long long>(b.bytes));
    }
  }
  return std::move(os).str();
}

}  // namespace vgpu
