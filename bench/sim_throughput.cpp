// sim_throughput - host-side throughput of the simulator itself.
//
// Unlike the fig*/ablation benches, the subject here is not the modeled
// GPU but the machine running the model: simulated warp instructions per
// second of host wall time, and wall ms per launch, for the pre-decoded
// fast path vs the reference interpreter (FunctionalOptions/TimingOptions
// `reference` flag). Workloads are real kernels from the reproduction -
// far-field variants (rolled SoAoaS, rolled AoS, unrolled+icm) and the
// Sec. III strip-down read kernel - under both executors.
//
// The fast path must be *cycle-identical*: the speedup table checks that
// fast and reference runs report identical LaunchStats::core() (including
// cycles) within this process, and the binary exits non-zero if they ever
// differ; tools/bench_compare enforces the same across exported records.
//
// A second axis is the multi-threaded timing executor
// (TimingOptions::threads): the thread-scaling table runs the far-field
// rolled-SoAoaS workload at 1, 2, ... threads and demands bit-identical
// LaunchStats::core() - cycles included - at every thread count; any
// divergence makes the binary exit non-zero. Wall-time speedup is reported
// (it depends on the host's core count; cycle results never do).
//
// A third axis is stall attribution (TimingOptions::attribution): the
// attribution table runs the far-field rolled-SoAoaS workload once plain
// and once with the per-PC stall-attribution table enabled, and demands
// (a) bit-identical LaunchStats::core() - cycles included - between the
// two, and (b) exact reconciliation of the attribution table against the
// attributed run's LaunchStats (every issue, stall cycle, request and
// byte accounted). The stall-reason breakdown is printed and the headline
// verdict (top stall reason, memory-bound fraction) is exported in the
// record's `summary` object for the json_check ctest gate, together with
// the trace entries and fused boundary ops of the functional fast path on
// the far-field rolled-SoAoaS workload.
//
// Flags: --n=<particles> (default 4096, rounded up to a tile multiple)
// scales the workload; --threads=<k> (default 4) is the maximum thread
// count the scaling table sweeps to; --json=<path> exports the tables
// (bench_util). Any other flag that is not the benchmark library's own is
// rejected.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "gravit/kernels.hpp"
#include "gravit/spawn.hpp"
#include "layout/microbench.hpp"
#include "layout/transform.hpp"
#include "vgpu/attribution.hpp"
#include "vgpu/device.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using bench::fmt;

struct Workload {
  std::string label;
  vgpu::Program prog;
  vgpu::LaunchConfig cfg{1, 128};
  std::vector<std::uint32_t> params;
  std::unique_ptr<vgpu::Device> dev;
};

Workload make_farfield(const gravit::KernelOptions& kopt, std::uint32_t n) {
  Workload w;
  gravit::BuiltKernel built = gravit::make_farfield_kernel(kopt);
  w.label = "farfield-" + gravit::kernel_label(kopt);
  w.dev = std::make_unique<vgpu::Device>(vgpu::g80_spec(), 64u * 1024 * 1024);

  const std::uint32_t n_pad = (n + kopt.block - 1) / kopt.block * kopt.block;
  gravit::ParticleSet set = gravit::spawn_uniform_cube(n, 1.0f, 3);
  set.pad_to(n_pad);
  const std::vector<float> flat = set.flatten();
  const std::vector<std::byte> image = layout::pack(built.phys, flat, n_pad);
  vgpu::Buffer img = w.dev->malloc(image.size());
  w.dev->memcpy_h2d(img, image);
  vgpu::Buffer accel = w.dev->malloc(static_cast<std::size_t>(n_pad) * 12);
  for (const std::uint64_t base : built.phys.group_bases(n_pad)) {
    w.params.push_back(img.addr + static_cast<std::uint32_t>(base));
  }
  w.params.push_back(accel.addr);
  w.params.push_back(n_pad / kopt.block);
  w.cfg = vgpu::LaunchConfig{n_pad / kopt.block, kopt.block};
  w.prog = std::move(built.prog);
  return w;
}

Workload make_read(std::uint32_t n) {
  constexpr std::uint32_t kBlock = 128;
  Workload w;
  const std::uint32_t n_pad = (n + kBlock - 1) / kBlock * kBlock;
  const layout::PhysicalLayout phys =
      layout::plan_layout(layout::gravit_record(), layout::SchemeKind::kSoAoaS);
  w.prog = layout::make_read_kernel(phys);
  w.label = "read-SoAoaS";
  w.dev = std::make_unique<vgpu::Device>(vgpu::g80_spec(), 64u * 1024 * 1024);

  std::vector<float> data(static_cast<std::size_t>(n_pad) * 7);
  for (std::size_t k = 0; k < data.size(); ++k) {
    data[k] = static_cast<float>(k % 101) * 0.01f;
  }
  const std::vector<std::byte> image = layout::pack(phys, data, n_pad);
  vgpu::Buffer img = w.dev->malloc(image.size());
  w.dev->memcpy_h2d(img, image);
  vgpu::Buffer out = w.dev->malloc(static_cast<std::size_t>(n_pad) * 8);
  for (const std::uint64_t base : phys.group_bases(n_pad)) {
    w.params.push_back(img.addr + static_cast<std::uint32_t>(base));
  }
  w.params.push_back(out.addr);
  w.cfg = vgpu::LaunchConfig{n_pad / kBlock, kBlock};
  return w;
}

struct RunResult {
  vgpu::LaunchStats stats;
  double wall_ms = 0.0;

  [[nodiscard]] double minstr_per_s() const {
    if (wall_ms <= 0.0) return 0.0;
    return static_cast<double>(stats.warp_instructions) / wall_ms / 1000.0;
  }
};

RunResult run_one(Workload& w, bool timed, bool reference,
                  std::uint32_t threads = 1) {
  RunResult r;
  const Clock::time_point t0 = Clock::now();
  if (timed) {
    vgpu::TimingOptions topt;
    topt.reference = reference;
    topt.threads = threads;
    r.stats = vgpu::run_timed(w.prog, w.dev->spec(), w.dev->gmem(), w.cfg,
                              w.params, topt);
  } else {
    vgpu::FunctionalOptions fopt;
    fopt.reference = reference;
    r.stats = vgpu::run_functional(w.prog, w.dev->spec(), w.dev->gmem(), w.cfg,
                                   w.params, fopt);
  }
  r.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  return r;
}

std::string memo_rate(const vgpu::LaunchStats& s) {
  const std::uint64_t total = s.coalesce_memo_hits + s.coalesce_memo_misses;
  if (total == 0) return "-";
  return fmt(100.0 * static_cast<double>(s.coalesce_memo_hits) /
                 static_cast<double>(total),
             1);
}

std::string cmemo_rate(const vgpu::LaunchStats& s) {
  const std::uint64_t total = s.conflict_memo_hits + s.conflict_memo_misses;
  if (total == 0) return "-";
  return fmt(100.0 * static_cast<double>(s.conflict_memo_hits) /
                 static_cast<double>(total),
             1);
}

std::string dcache_state(const vgpu::LaunchStats& s) {
  if (s.decode_cache_hits + s.decode_cache_misses == 0) return "-";
  return s.decode_cache_hits > 0 ? "hit" : "miss";
}

struct Summary {
  double fast_timing_minstr = 0.0;
  double ref_timing_minstr = 0.0;
  double thread_speedup = 0.0;  ///< best threads vs 1 thread, timed fast path
  bool all_identical = true;
};
Summary g_summary;

// Thread-scaling sweep on the far-field rolled-SoAoaS workload: every
// thread count must reproduce the single-threaded LaunchStats::core()
// bit-for-bit (cycles included); wall time and speedup are informational
// and host-dependent.
void run_thread_scaling(std::uint32_t n, std::uint32_t max_threads) {
  Workload w = make_farfield(gravit::KernelOptions{}, n);
  bench::Table scaling({"threads", "wall ms", "Minstr/s", "cycles",
                        "speedup vs 1", "stats identical"});
  RunResult base;
  for (std::uint32_t threads = 1; threads <= max_threads; threads *= 2) {
    const RunResult r = run_one(w, /*timed=*/true, /*reference=*/false, threads);
    if (threads == 1) base = r;
    const bool identical = r.stats.core() == base.stats.core();
    g_summary.all_identical = g_summary.all_identical && identical;
    const double speedup = r.wall_ms > 0.0 ? base.wall_ms / r.wall_ms : 0.0;
    if (threads > 1) {
      g_summary.thread_speedup = std::max(g_summary.thread_speedup, speedup);
    }
    scaling.add_row({std::to_string(threads), fmt(r.wall_ms, 1),
                     fmt(r.minstr_per_s(), 2),
                     std::to_string(r.stats.cycles), fmt(speedup, 2),
                     identical ? "yes" : "NO"});
  }
  scaling.print(
      "timing executor thread scaling",
      "farfield-SoAoaS n=" + std::to_string(n) +
          "; every row must report the 1-thread cycles exactly (speedup "
          "depends on host cores; simulated results never do)");
}

// Stall-attribution differential on the far-field rolled-SoAoaS workload:
// the attributed run must reproduce the plain run's LaunchStats::core()
// bit-for-bit (attribution never perturbs the model) and the per-PC table
// must reconcile exactly with the run's own LaunchStats. The breakdown of
// stall cycles by reason is printed, and the headline verdict lands in the
// exported record's `summary` object.
void run_attribution(std::uint32_t n) {
  Workload w = make_farfield(gravit::KernelOptions{}, n);
  const RunResult plain = run_one(w, /*timed=*/true, /*reference=*/false);

  vgpu::Attribution attr;
  RunResult attributed;
  {
    const Clock::time_point t0 = Clock::now();
    vgpu::TimingOptions topt;
    topt.attribution = &attr;
    attributed.stats = vgpu::run_timed(w.prog, w.dev->spec(), w.dev->gmem(),
                                       w.cfg, w.params, topt);
    attributed.wall_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  }

  const bool identical = attributed.stats.core() == plain.stats.core();
  const bool reconciled =
      attr.collected && vgpu::reconciles(attr, attributed.stats);
  g_summary.all_identical =
      g_summary.all_identical && identical && reconciled;

  bench::Table cost({"run", "wall ms", "Minstr/s", "cycles",
                     "stats identical", "reconciles"});
  cost.add_row({"plain", fmt(plain.wall_ms, 1), fmt(plain.minstr_per_s(), 2),
                std::to_string(plain.stats.cycles), "yes", "-"});
  cost.add_row({"attributed", fmt(attributed.wall_ms, 1),
                fmt(attributed.minstr_per_s(), 2),
                std::to_string(attributed.stats.cycles),
                identical ? "yes" : "NO", reconciled ? "yes" : "NO"});
  cost.print("stall attribution overhead",
             "farfield-SoAoaS n=" + std::to_string(n) +
                 "; the attributed run must report the plain run's cycles "
                 "exactly and its per-PC table must reconcile with "
                 "LaunchStats to the cycle/byte");

  bench::Table stall({"stall reason", "cycles", "% of stall"});
  std::array<std::size_t, vgpu::kStallReasonCount> order{};
  for (std::size_t r = 0; r < order.size(); ++r) order[r] = r;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (attr.stall_by_reason[a] != attr.stall_by_reason[b]) {
      return attr.stall_by_reason[a] > attr.stall_by_reason[b];
    }
    return a < b;
  });
  for (const std::size_t r : order) {
    const std::uint64_t cycles = attr.stall_by_reason[r];
    if (cycles == 0) continue;
    stall.add_row({vgpu::to_string(static_cast<vgpu::StallReason>(r)),
                   std::to_string(cycles),
                   fmt(attr.total_stall_cycles > 0
                           ? 100.0 * static_cast<double>(cycles) /
                                 static_cast<double>(attr.total_stall_cycles)
                           : 0.0,
                       1)});
  }
  stall.print("stall attribution - why every no-issue cycle was spent",
              "top reason: " + std::string(vgpu::to_string(
                                   attr.top_stall_reason())) +
                  "; memory-bound fraction " +
                  fmt(attr.memory_bound_fraction(), 3));

  bench::add_summary("top_stall_reason",
                     vgpu::to_string(attr.top_stall_reason()));
  bench::add_summary("memory_bound_fraction", attr.memory_bound_fraction());
  bench::add_summary("attribution_reconciles", identical && reconciled);
  bench::add_summary("total_stall_cycles", attr.total_stall_cycles);
  bench::add_summary("cycles", attributed.stats.cycles);
}

void run_all(std::uint32_t n) {
  std::vector<Workload> workloads;
  {
    gravit::KernelOptions rolled;  // SoAoaS, block 128, no unroll
    workloads.push_back(make_farfield(rolled, n));
    gravit::KernelOptions aos;
    aos.scheme = layout::SchemeKind::kAoS;
    workloads.push_back(make_farfield(aos, n));
    gravit::KernelOptions unrolled;
    unrolled.unroll = 32;
    unrolled.icm = true;
    workloads.push_back(make_farfield(unrolled, n));
    workloads.push_back(make_read(n));
  }

  bench::Table runs({"run", "dcache", "warp instrs", "wall ms", "Minstr/s",
                     "cycles", "memo hit %", "cmemo hit %"});
  bench::Table speed({"workload", "executor", "ref wall ms", "fast wall ms",
                      "speedup", "stats identical"});
  for (Workload& w : workloads) {
    for (const bool timed : {false, true}) {
      const char* exec_name = timed ? "timing" : "functional";
      const RunResult ref = run_one(w, timed, /*reference=*/true);
      const RunResult fast = run_one(w, timed, /*reference=*/false);
      auto add_run = [&](const char* path, const RunResult& r) {
        runs.add_row({w.label + "/" + exec_name + "/" + path,
                      dcache_state(r.stats),
                      std::to_string(r.stats.warp_instructions),
                      fmt(r.wall_ms, 1), fmt(r.minstr_per_s(), 2),
                      std::to_string(r.stats.cycles), memo_rate(r.stats),
                      cmemo_rate(r.stats)});
      };
      add_run("reference", ref);
      add_run("fast", fast);

      // The invariant the whole fast path is built around: identical
      // LaunchStats::core() - cycles included - from both paths.
      const bool identical = fast.stats.core() == ref.stats.core();
      g_summary.all_identical = g_summary.all_identical && identical;
      speed.add_row({w.label, exec_name, fmt(ref.wall_ms, 1),
                     fmt(fast.wall_ms, 1),
                     fmt(fast.wall_ms > 0.0 ? ref.wall_ms / fast.wall_ms : 0.0,
                         2),
                     identical ? "yes" : "NO"});
      if (w.label == "farfield-SoAoaS") {
        if (timed) {
          g_summary.fast_timing_minstr = fast.minstr_per_s();
          g_summary.ref_timing_minstr = ref.minstr_per_s();
        } else {
          // The functional fast path dispatches runs through superblock
          // traces and fuses their memory terminators; the ctest gate
          // checks both actually happen on the reference workload.
          bench::add_summary("traces_entered", fast.stats.traces_entered);
          bench::add_summary("fused_boundary_ops",
                             fast.stats.fused_boundary_ops);
        }
      }
    }
  }
  runs.print("sim_throughput - host-side simulator throughput",
             "n=" + std::to_string(n) +
                 " particles; Minstr/s = simulated warp instructions per "
                 "second of host wall time");
  speed.print("fast path vs reference",
              "speedup = reference wall / fast wall; 'stats identical' "
              "compares LaunchStats::core() incl. cycles");
}

void bm_sim_throughput(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(g_summary);
    state.counters["fast_timing_minstr_s"] = g_summary.fast_timing_minstr;
    state.counters["ref_timing_minstr_s"] = g_summary.ref_timing_minstr;
    state.counters["speedup"] =
        g_summary.ref_timing_minstr > 0.0
            ? g_summary.fast_timing_minstr / g_summary.ref_timing_minstr
            : 0.0;
    state.counters["thread_speedup"] = g_summary.thread_speedup;
  }
}
BENCHMARK(bm_sim_throughput)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  std::uint32_t n = 4096;
  std::uint32_t max_threads = 4;
  int out = 1;  // keep argv[0]
  for (int a = 1; a < argc; ++a) {
    if (std::strncmp(argv[a], "--n=", 4) == 0) {
      n = bench::parse_u32("sim_throughput", "--n", argv[a] + 4, 128,
                           1u << 22);
    } else if (std::strncmp(argv[a], "--threads=", 10) == 0) {
      max_threads =
          bench::parse_u32("sim_throughput", "--threads", argv[a] + 10, 1, 64);
    } else {
      argv[out++] = argv[a];
    }
  }
  argc = out;

  run_all(n);
  run_thread_scaling(n, max_threads);
  run_attribution(n);
  const int rc = bench::bench_main(
      argc, argv,
      {"sim_throughput", "far-field + read kernels", "host Minstr/s"});
  if (!g_summary.all_identical) {
    std::fprintf(stderr,
                 "sim_throughput: fast path diverged from reference stats\n");
    return 1;
  }
  return rc;
}
