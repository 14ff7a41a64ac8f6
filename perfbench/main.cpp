// perfbench - the repository benchmark's program (run it through run.py).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>] [--source <id>]
//   perfbench --self-test [--seed <n>]
//
// One process, one caller, closed loop: the workload is set up several
// times (setup_s is the median), then operations run back to back for
// --seconds (and at least kMinOps of them), each checked against its oracle
// outside the timed region. --trace 0 sets up and runs the user entry
// points and prints the end-to-end metrics. --trace 1 sets up the composed
// path under spans, alternates untraced entry-point operations with traced
// composed ones, holds each pair to the same output, prints the per-layer
// metrics, the self-time table and the tracing overhead, and writes the
// spans as a Chrome trace. The last stdout line is always the result object
// {"correct", "attempted", "failed", "metrics"}; the full record, with the
// environment stamp, goes to <out>/.
#include <sched.h>
#include <sys/utsname.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "spans.hpp"
#include "vgpu/arch.hpp"
#include "vgpu/progcache.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Clock;
using perfbench::Path;
using perfbench::Tracer;
using telemetry::JsonValue;

constexpr const char* kProg = "perfbench";
/// Set-up is repeated at least kMinSetupReps times and until kMinSetupSeconds
/// of it have run, so even a sub-millisecond set-up gives a median over
/// thousands of repetitions.
constexpr std::size_t kMinSetupReps = 5;
constexpr double kMinSetupSeconds = 1.0;
/// A set-up under kCheapSetupShare of an operation (fig12-timed-1t's takes
/// 0.1-0.3 ms) is also repeated between operations, on a
/// second instance of the workload, for kInterleavedSetupShare of each
/// operation's time. The host's speed moves in phases of a few seconds, so
/// repetitions from the first second alone sample one phase, while the
/// operations sample the whole run. A set-up that provisions a device costs
/// about as much as an operation and is repeated only at the start.
constexpr double kCheapSetupShare = 0.01;
constexpr double kInterleavedSetupShare = 0.05;
/// op_ms_tail is the highest percentile with at least ten samples beyond
/// it; a run measures at least kMinOps operations so that it exists.
constexpr std::size_t kTailBeyond = 10;
/// The gated time is the fastest operation; the median and op_ms_tail are
/// printed and recorded beside it. On a shared VM the host's speed switches
/// between levels in phases of seconds to minutes (a gravit-functional
/// step takes about 105 ms, 150 ms or 280 ms). A run's median lands on
/// whichever level held more than half of its operations, and its tail on
/// the slowest level it met, so from run to run both jump by up to 2x.
/// Interference only adds time, so the fastest operation gives the fast
/// level in every run that reaches it even briefly.
constexpr std::size_t kMinOps = kTailBeyond + 1;
/// The measured phase ends kOverrunSeconds after --seconds even short of
/// kMinOps, so a slow build reports its times instead of being killed (run.py
/// allows --seconds plus its own margin, which covers this one).
constexpr double kOverrunSeconds = 100.0;
/// Kept out of every run made while developing a change; a claim is
/// confirmed on it (README.md, "Claiming a gain").
constexpr std::uint64_t kHeldOutSeed = 9973;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint32_t seconds = 10;
  bool trace = false;
  bool self_test = false;
  std::string out;
  std::string source = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload <gravit-functional|fig12-timed-1t|"
               "fig10-sweep-2t> --seed <n> --seconds <1-600> --trace <0|1> "
               "[--out <dir>] [--source <id>]\n       %s --self-test [--seed <n>]\n",
               kProg, why, kProg, kProg);
  std::exit(bench::kUsageExit);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = bench::parse_u64(kProg, "--seed", v, 0, UINT64_MAX);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = bench::parse_u32(kProg, "--seconds", v, 1, 600);
      have_seconds = true;
    } else if (flag == "--trace") {
      a.trace = bench::parse_u32(kProg, "--trace", v, 0, 1) == 1;
      have_trace = true;
    } else if (flag == "--out") {
      a.out = v;
    } else if (flag == "--source") {
      a.source = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.self_test) {
    if (have_workload || have_seconds || have_trace) {
      usage("--self-test takes only --seed");
    }
    return a;
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  if (std::find(perfbench::kWorkloads.begin(), perfbench::kWorkloads.end(),
                a.workload) == perfbench::kWorkloads.end()) {
    usage(("unknown workload '" + a.workload + "'").c_str());
  }
  return a;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Peak resident set (VmHWM) in MiB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the field is in kB
    }
  }
  return 0.0;
}

std::string cpu_model() {
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Confines the process, and every thread it creates from here on, to one
/// CPU: the highest-numbered one it may run on. Returns that CPU, or -1
/// when the affinity cannot be set. On a shared VM a wake-up sent to
/// another vCPU waits for the host to schedule that vCPU, which made the
/// two-thread sweep's operations swing between 30 and 70 ms with other
/// tenants' load; on one CPU the simulator's threads hand over locally.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  for (std::size_t cpu = CPU_SETSIZE; cpu-- > 0;) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0 ? static_cast<int>(cpu) : -1;
  }
  return -1;
}

JsonValue stamp(const Args& a, const perfbench::Workload& w, int cpu) {
  JsonValue s = JsonValue::object();
  s["nproc"] = std::thread::hardware_concurrency();
  s["cpu_model"] = cpu_model();
  utsname u{};
  s["kernel"] = uname(&u) == 0 ? std::string(u.sysname) + " " + u.release
                               : std::string("unknown");
  s["compiler"] = PERFBENCH_COMPILER;
  s["flags"] = PERFBENCH_FLAGS;
  s["build_type"] = PERFBENCH_BUILD_TYPE;
  s["source"] = a.source;
  s["sim_threads"] = w.sim_threads();
  s["pinned_cpu"] = cpu;
  s["workload"] = a.workload;
  s["seed"] = a.seed;
  s["held_out_seed"] = kHeldOutSeed;
  s["seconds"] = a.seconds;
  s["trace"] = a.trace;
  return s;
}

// ---- per-layer figures from the spans ----

/// Median over units of a per-unit sum. A figure is per operation when the
/// operations produce it and per setup repetition otherwise (e.g. layout
/// packing runs in every fig12-timed-1t operation but only at setup in the
/// other two workloads); units without it are skipped.
class UnitMedians {
 public:
  explicit UnitMedians(const Tracer& t) : t_(t), self_(t.self_ns()) {}

  /// Host ms in spans accepted by `pred` (self time; the layer calls are
  /// leaves, so it equals their duration).
  [[nodiscard]] double ms(const std::function<bool(const perfbench::Span&)>& pred) const {
    std::vector<double> per_unit(t_.units().size(), 0.0);
    std::vector<bool> seen(per_unit.size(), false);
    for (std::size_t k = 0; k < t_.spans().size(); ++k) {
      const perfbench::Span& s = t_.spans()[k];
      if (!pred(s)) continue;
      const auto u = static_cast<std::size_t>(s.unit);
      per_unit[u] += static_cast<double>(self_[k]) / 1e6;
      seen[u] = true;
    }
    return pick(per_unit, seen);
  }
  [[nodiscard]] double call_ms(const std::string& name) const {
    return ms([&](const perfbench::Span& s) { return s.name == name; });
  }
  [[nodiscard]] double layer_ms(const std::string& layer) const {
    return ms([&](const perfbench::Span& s) { return s.layer == layer; });
  }

  [[nodiscard]] double count(const std::string& key) const {
    std::vector<double> per_unit(t_.units().size(), 0.0);
    std::vector<bool> seen(per_unit.size(), false);
    for (std::size_t u = 0; u < per_unit.size(); ++u) {
      const auto& counts = t_.units()[u].counts;
      const auto it = counts.find(key);
      if (it == counts.end()) continue;
      per_unit[u] = it->second;
      seen[u] = true;
    }
    return pick(per_unit, seen);
  }

  [[nodiscard]] double ratio(const std::string& num, const std::string& den) const {
    const double d = count(den);
    return d > 0.0 ? count(num) / d : 0.0;
  }

  /// Median over operations (or setup repetitions) of one layer's self time,
  /// zeros included, for the self-time table.
  [[nodiscard]] double layer_self_ms(const std::string& layer, bool ops) const {
    std::vector<double> per_unit(t_.units().size(), 0.0);
    for (std::size_t k = 0; k < t_.spans().size(); ++k) {
      const perfbench::Span& s = t_.spans()[k];
      if (s.layer == layer) {
        per_unit[static_cast<std::size_t>(s.unit)] += static_cast<double>(self_[k]) / 1e6;
      }
    }
    std::vector<double> sel;
    for (std::size_t u = 0; u < per_unit.size(); ++u) {
      if (t_.units()[u].is_op == ops) sel.push_back(per_unit[u]);
    }
    return median(sel);
  }

 private:
  [[nodiscard]] double pick(const std::vector<double>& per_unit,
                            const std::vector<bool>& seen) const {
    std::vector<double> ops, setups;
    for (std::size_t u = 0; u < per_unit.size(); ++u) {
      if (!seen[u]) continue;
      (t_.units()[u].is_op ? ops : setups).push_back(per_unit[u]);
    }
    return median(ops.empty() ? setups : ops);
  }

  const Tracer& t_;
  std::vector<std::int64_t> self_;
};

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

constexpr std::array<const char*, 7> kLayers = {
    "bench", "gravit.kernels", "vgpu.progcache", "vgpu.device",
    "layout", "vgpu.executor", "vgpu.timing"};

std::vector<Metric> per_layer_metrics(const UnitMedians& m, std::uint32_t regs,
                                      double traced_p50, double untraced_p50) {
  const double sms = vgpu::g80_spec().sm_count;
  const double launch_ms =
      m.call_ms("vgpu::Device::launch_functional") + m.call_ms("vgpu::Device::launch_timed");
  const double launch_warp =
      m.count("vgpu.executor.warp_instructions") + m.count("vgpu.timing.warp_instructions");
  const double cycles = m.count("vgpu.timing.cycles");
  const double runs = m.count("vgpu.timing.timed_runs_issued");
  const double fallbacks = m.count("vgpu.timing.timed_run_fallbacks");
  return {
      {"gravit.kernels.build_ms", "ms", m.layer_ms("gravit.kernels")},
      {"gravit.kernels.regs_per_thread", "regs", static_cast<double>(regs)},
      {"vgpu.progcache.compile_ms", "ms", m.layer_ms("vgpu.progcache")},
      {"vgpu.progcache.lookups", "count", m.count("vgpu.progcache.lookups")},
      {"vgpu.progcache.hit_ratio", "fraction",
       m.ratio("vgpu.progcache.hits", "vgpu.progcache.lookups")},
      {"vgpu.device.provision_ms", "ms", m.call_ms("vgpu::Device::Device")},
      {"vgpu.device.h2d_ms", "ms", m.call_ms("vgpu::Device::memcpy_h2d")},
      {"vgpu.device.d2h_ms", "ms", m.call_ms("vgpu::Device::memcpy_d2h")},
      {"vgpu.device.bytes_copied", "bytes", m.count("vgpu.device.bytes_copied")},
      {"vgpu.device.copy_sim_ms", "sim_ms", m.count("vgpu.device.copy_sim_ms")},
      {"layout.pack_ms", "ms", m.call_ms("layout::pack")},
      {"layout.bytes_packed", "bytes", m.count("layout.bytes_packed")},
      {"vgpu.launch_ms", "ms", launch_ms},
      {"vgpu.ns_per_warp_instr", "ns", launch_warp > 0 ? launch_ms * 1e6 / launch_warp : 0.0},
      {"vgpu.executor.launches", "count", m.count("vgpu.executor.launches")},
      {"vgpu.executor.warp_instructions", "count", m.count("vgpu.executor.warp_instructions")},
      {"vgpu.executor.traces_entered", "count", m.count("vgpu.executor.traces_entered")},
      {"vgpu.executor.fused_boundary_ops", "count",
       m.count("vgpu.executor.fused_boundary_ops")},
      {"vgpu.executor.conflict_memo_lookups", "count",
       m.count("vgpu.executor.conflict_memo_lookups")},
      {"vgpu.executor.conflict_memo_hit_ratio", "fraction",
       m.ratio("vgpu.executor.conflict_memo_hits", "vgpu.executor.conflict_memo_lookups")},
      {"vgpu.executor.coalesce_memo_lookups", "count",
       m.count("vgpu.executor.coalesce_memo_lookups")},
      {"vgpu.executor.coalesce_memo_hit_ratio", "fraction",
       m.ratio("vgpu.executor.coalesce_memo_hits", "vgpu.executor.coalesce_memo_lookups")},
      {"vgpu.timing.launches", "count", m.count("vgpu.timing.launches")},
      {"vgpu.timing.warp_instructions", "count", m.count("vgpu.timing.warp_instructions")},
      {"vgpu.timing.cycles", "cycles", cycles},
      {"vgpu.timing.issue_fraction", "fraction",
       cycles > 0 ? m.count("vgpu.timing.sm_issue_cycles") / (cycles * sms) : 0.0},
      {"vgpu.timing.pick_heap_pops", "count", m.count("vgpu.timing.pick_heap_pops")},
      {"vgpu.timing.timed_runs_issued", "count", runs},
      {"vgpu.timing.run_attempts", "count", runs + fallbacks},
      {"vgpu.timing.run_fallback_ratio", "fraction",
       runs + fallbacks > 0 ? fallbacks / (runs + fallbacks) : 0.0},
      {"vgpu.timing.global_requests", "count", m.count("vgpu.timing.global_requests")},
      {"vgpu.timing.coalesced_fraction", "fraction",
       m.ratio("vgpu.timing.coalesced_requests", "vgpu.timing.global_requests")},
      {"vgpu.timing.global_transactions", "count",
       m.count("vgpu.timing.global_transactions")},
      {"vgpu.timing.global_bytes", "bytes", m.count("vgpu.timing.global_bytes")},
      {"vgpu.timing.coalesce_memo_lookups", "count",
       m.count("vgpu.timing.coalesce_memo_lookups")},
      {"vgpu.timing.coalesce_memo_hit_ratio", "fraction",
       m.ratio("vgpu.timing.coalesce_memo_hits", "vgpu.timing.coalesce_memo_lookups")},
      {"bench.op_self_ms", "ms", m.layer_self_ms("bench", true)},
      {"trace.traced_op_ms_p50", "ms", traced_p50},
      {"trace.untraced_op_ms_p50", "ms", untraced_p50},
      {"trace.overhead_ms", "ms", traced_p50 - untraced_p50},
  };
}

JsonValue metrics_json(const std::vector<Metric>& metrics) {
  JsonValue out = JsonValue::object();
  for (const Metric& m : metrics) {
    JsonValue v = JsonValue::object();
    v["value"] = m.value;
    v["unit"] = m.unit;
    out[m.name] = std::move(v);
  }
  return out;
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-40s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

bool write_file(const std::string& path, const JsonValue& doc) {
  std::ofstream f(path);
  doc.write(f, 1);
  f << '\n';
  return static_cast<bool>(f);
}

int run(const Args& a) {
  const int cpu = pin_to_one_cpu();
  std::unique_ptr<perfbench::Workload> w = perfbench::make_workload(a.workload, a.seed);
  Tracer tracer(a.trace);
  // Untraced operations run the user entry point; traced ones run the
  // composed path, whose layer calls the spans time.
  const Path untraced = w->has_entry_path() ? Path::kEntry : Path::kComposed;

  std::vector<double> setup_s;
  // One set-up repetition, from nothing; clearing the process-wide decode
  // cache makes it compile, as a fresh process does.
  const auto set_up = [&](perfbench::Workload& target, Path p) {
    target.release();
    vgpu::decode_cache_clear();
    const Clock::time_point t0 = Clock::now();
    tracer.begin_unit("setup#" + std::to_string(setup_s.size()), false);
    target.setup(p, tracer);
    tracer.end_unit();
    setup_s.push_back(seconds_since(t0));
    return setup_s.back();
  };
  double setup_total = 0.0;
  while (setup_s.size() < kMinSetupReps || setup_total < kMinSetupSeconds) {
    setup_total += set_up(*w, a.trace ? Path::kComposed : untraced);
  }
  const std::size_t setup_reps_first = setup_s.size();
  std::unique_ptr<perfbench::Workload> setup_probe;
  const bool compare = a.trace && untraced == Path::kEntry;
  if (compare) {
    tracer.set_enabled(false);
    w->setup(Path::kEntry, tracer);
  }

  std::vector<double> op_ms, traced_ms, sim_ms, minstr_per_s;
  std::uint64_t attempted = 0, failed = 0;
  std::string first_failure;
  const std::size_t min_ops = a.trace ? 4 : kMinOps;
  const Clock::time_point start = Clock::now();
  bool overran = false;
  while (seconds_since(start) < a.seconds || attempted < min_ops) {
    if (seconds_since(start) >= a.seconds + kOverrunSeconds) {
      overran = true;
      break;
    }
    const bool trace_op = a.trace && attempted % 2 == 1;
    const std::string label = "op#" + std::to_string(attempted);
    ++attempted;
    tracer.set_enabled(trace_op);
    std::string why;
    try {
      tracer.begin_unit(label, true);
      const Clock::time_point t0 = Clock::now();
      const perfbench::OpResult r = w->op(trace_op ? Path::kComposed : untraced, tracer);
      const double secs = seconds_since(t0);
      tracer.end_unit();
      (trace_op ? traced_ms : op_ms).push_back(secs * 1e3);
      if (!trace_op) {
        minstr_per_s.push_back(static_cast<double>(r.warp_instructions) / secs / 1e6);
        sim_ms.push_back(r.sim_ms);
      }
      why = w->check(trace_op ? Path::kComposed : untraced);
      if (why.empty() && trace_op && compare) why = w->compare_paths();
      if (!a.trace && attempted == 1 && median(setup_s) < kCheapSetupShare * secs) {
        setup_probe = perfbench::make_workload(a.workload, a.seed);
      }
      for (double spent = 0.0; setup_probe && spent < kInterleavedSetupShare * secs;) {
        spent += set_up(*setup_probe, untraced);
      }
    } catch (const std::exception& e) {
      tracer.end_unit();
      why = std::string("threw: ") + e.what();
    }
    if (!why.empty()) {
      ++failed;
      if (first_failure.empty()) first_failure = label + ": " + why;
    }
  }
  tracer.set_enabled(false);
  const double rss_mb = peak_rss_mb();
  if (op_ms.empty()) {
    std::fprintf(stderr, "%s: no operation completed (%s)\n", kProg,
                 first_failure.c_str());
    return 1;
  }

  // fig10_err_pct is a property of the timing model: the Fig. 10 workload
  // measures it in every operation, the others run one untimed sweep now.
  const std::uint32_t regs = a.trace ? w->regs_per_thread() : 0;
  std::optional<double> fig10_err = w->fig10_err_pct();
  std::string post_failure;
  if (!fig10_err) {
    w->release();  // one 512 MiB device at a time
    auto sweep = perfbench::make_workload("fig10-sweep-2t", a.seed);
    Tracer off(false);
    sweep->setup(Path::kComposed, off);
    (void)sweep->op(Path::kComposed, off);
    post_failure = sweep->check(Path::kComposed);
    fig10_err = sweep->fig10_err_pct();
  }

  std::vector<double> sorted = op_ms;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t tail_idx =
      sorted.size() > kTailBeyond ? sorted.size() - kTailBeyond - 1 : 0;
  const double tail_pct =
      100.0 * static_cast<double>(tail_idx + 1) / static_cast<double>(sorted.size());

  // The rate of the fastest operation: an operation's warp instructions are
  // the same in every operation, so this is their count over op_ms_min.
  const std::vector<Metric> e2e = {
      {"op_ms_min", "ms", sorted.front()},
      {"sim_minstr_per_s", "Minstr/s",
       *std::max_element(minstr_per_s.begin(), minstr_per_s.end())},
      {"setup_s", "s", median(setup_s)},
      {"peak_rss_mb", "MiB", rss_mb},
      {"sim_ms_per_op", "sim_ms", median(sim_ms)},
      {"fig10_err_pct", "%", *fig10_err},
  };

  JsonValue record = JsonValue::object();
  record["stamp"] = stamp(a, *w, cpu);
  record["attempted"] = attempted;
  record["failed"] = failed;
  record["op_error_rate"] =
      static_cast<double>(failed) / static_cast<double>(attempted);
  record["first_failure"] = first_failure;
  record["fig10_post_sweep_failure"] = post_failure;
  record["untraced_ops"] = static_cast<std::uint64_t>(op_ms.size());
  record["op_ms_p50"] = median(op_ms);
  record["op_ms_tail"] = sorted[tail_idx];
  record["op_ms_tail_percentile"] = tail_pct;
  record["op_ms_tail_samples_beyond"] =
      static_cast<std::uint64_t>(sorted.size() - tail_idx - 1);
  record["setup_repetitions"] = static_cast<std::uint64_t>(setup_s.size());
  record["setup_repetitions_between_ops"] =
      static_cast<std::uint64_t>(setup_s.size() - setup_reps_first);
  record["phase_cut_short_of_min_ops"] = overran;
  JsonValue ops_json = JsonValue::array();
  for (const double ms : op_ms) ops_json.push_back(ms);
  record["untraced_op_ms"] = std::move(ops_json);
  record["end_to_end"] = metrics_json(e2e);

  std::printf("perfbench %s seed=%llu seconds=%u trace=%d sim_threads=%u cpu=%d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
              a.trace ? 1 : 0, w->sim_threads(), cpu);
  std::printf("host: %u vCPU, %s; %s, %s %s\n", std::thread::hardware_concurrency(),
              cpu_model().c_str(), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
              PERFBENCH_FLAGS);
  std::printf("operations: %llu attempted, %llu failed (op_error_rate %.6f)%s%s\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<double>(failed) / static_cast<double>(attempted),
              first_failure.empty() ? "" : "; first: ", first_failure.c_str());
  if (!post_failure.empty()) {
    std::printf("post-phase Fig. 10 sweep failed its oracle: %s\n", post_failure.c_str());
  }
  std::printf("not gated: op_ms_p50 = %.6f ms, op_ms_tail = %.6f ms (p%.1f of %zu untraced"
              " operations, %zu samples beyond it)\n",
              median(op_ms), sorted[tail_idx], tail_pct, sorted.size(),
              sorted.size() - tail_idx - 1);
  if (overran) {
    std::printf("the measured phase reached --seconds + %.0f s before %zu operations\n",
                kOverrunSeconds, min_ops);
  }
  print_metrics("end-to-end", e2e);

  std::vector<Metric> layer;
  if (a.trace) {
    const UnitMedians m(tracer);
    layer = per_layer_metrics(m, regs, median(traced_ms), median(op_ms));
    print_metrics("per-layer (per operation, or per setup repetition for "
                  "layers the operations do not call)",
                  layer);
    record["per_layer"] = metrics_json(layer);

    JsonValue self = JsonValue::array();
    const double op_p50 = median(traced_ms);
    std::printf("self time by layer (median ms; spans around the benchmark's calls)\n");
    std::printf("  %-16s %14s %10s %16s\n", "layer", "per operation", "share",
                "per setup");
    for (const char* l : kLayers) {
      const double per_op = m.layer_self_ms(l, true);
      const double per_setup = m.layer_self_ms(l, false);
      std::printf("  %-16s %14.4f %9.1f%% %16.4f\n", l, per_op,
                  op_p50 > 0 ? 100.0 * per_op / op_p50 : 0.0, per_setup);
      JsonValue row = JsonValue::object();
      row["layer"] = l;
      row["op_ms"] = per_op;
      row["setup_ms"] = per_setup;
      self.push_back(std::move(row));
    }
    std::printf("tracing overhead: traced composed op p50 %.4f ms - untraced %s op p50"
                " %.4f ms = %.4f ms\n",
                op_p50, compare ? "entry-point" : "composed", median(op_ms),
                op_p50 - median(op_ms));
    record["self_time"] = std::move(self);
  }

  if (!a.out.empty()) {
    const std::string base = a.out + "/" + a.workload + "-seed" + std::to_string(a.seed) +
                             "-trace" + (a.trace ? "1" : "0");
    if (!write_file(base + ".json", record)) {
      std::fprintf(stderr, "%s: cannot write %s.json\n", kProg, base.c_str());
      return 1;
    }
    std::printf("record: %s.json\n", base.c_str());
    if (a.trace) {
      if (!write_file(base + ".chrome.json", tracer.chrome_trace())) {
        std::fprintf(stderr, "%s: cannot write %s.chrome.json\n", kProg, base.c_str());
        return 1;
      }
      std::printf("spans: %s.chrome.json\n", base.c_str());
    }
  }

  JsonValue result = JsonValue::object();
  result["correct"] = failed == 0 && post_failure.empty();
  result["attempted"] = attempted;
  result["failed"] = failed;
  result["metrics"] = metrics_json(a.trace ? layer : e2e);
  std::cout << result.dump() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  try {
    if (a.self_test) {
      const int failures = perfbench::self_test(a.seed);
      std::printf("self-test: %d failure(s)\n", failures);
      return failures == 0 ? 0 : 1;
    }
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", kProg, e.what());
    return 1;
  }
}
