#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <span>
#include <vector>

#include "bench_util.hpp"
#include "gravit/forces_cpu.hpp"
#include "gravit/gpu_kernels2.hpp"
#include "gravit/gpu_runner.hpp"
#include "gravit/gpu_simulation.hpp"
#include "gravit/kernels.hpp"
#include "gravit/spawn.hpp"
#include "layout/microbench.hpp"
#include "layout/record.hpp"
#include "layout/transform.hpp"
#include "vgpu/device.hpp"
#include "vgpu/progcache.hpp"

namespace perfbench {

namespace {

using gravit::ParticleSet;
using gravit::Vec3;
using vgpu::Buffer;
using vgpu::Device;
using vgpu::DriverModel;
using vgpu::LaunchConfig;
using vgpu::LaunchStats;

/// The paper's problem size, used by all three workloads.
constexpr std::uint32_t kPaperN = 4096;
/// Threads per block = far-field tile size K (the kernels' default).
constexpr std::uint32_t kBlock = 128;
/// Accelerations agree with the tiled CPU reference to this absolute
/// tolerance (the bound tests/gravit/gpu_farfield_test.cpp uses).
constexpr float kAccelTol = 2e-5f;

// ---- inputs ----

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Independent 32-bit generator seed for input stream `stream` of `seed`.
std::uint32_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t s = seed ^ (stream * 0xD1B54A32D192ED03ull);
  return static_cast<std::uint32_t>(splitmix64(s) >> 32);
}

// ---- traced calls into the layers ----

void compile(Tracer& t, const vgpu::Program& prog) {
  (void)traced(t, "vgpu.progcache", "vgpu::acquire_compiled",
               [&] { return vgpu::acquire_compiled(prog, true); });
}

void provision(Tracer& t, std::optional<Device>& dev, std::size_t bytes) {
  traced(t, "vgpu.device", "vgpu::Device::Device",
         [&] { dev.emplace(vgpu::g80_spec(), bytes); });
}

void unprovision(Tracer& t, std::optional<Device>& dev) {
  traced(t, "vgpu.device", "vgpu::Device::~Device", [&] { dev.reset(); });
}

std::vector<std::byte> pack(Tracer& t, const layout::PhysicalLayout& phys,
                            std::span<const float> flat, std::uint64_t n) {
  std::vector<std::byte> image = traced(
      t, "layout", "layout::pack", [&] { return layout::pack(phys, flat, n); });
  t.count("layout.bytes_packed", static_cast<double>(image.size()));
  return image;
}

void count_copy(Tracer& t, const Device& dev, std::size_t bytes) {
  t.count("vgpu.device.bytes_copied", static_cast<double>(bytes));
  t.count("vgpu.device.copy_sim_ms", dev.copy_ms(bytes));
}

void h2d(Tracer& t, Device& dev, Buffer dst, std::span<const std::byte> src) {
  traced(t, "vgpu.device", "vgpu::Device::memcpy_h2d",
         [&] { dev.memcpy_h2d(dst, src); });
  count_copy(t, dev, src.size());
}

void d2h(Tracer& t, Device& dev, std::span<std::byte> dst, Buffer src) {
  traced(t, "vgpu.device", "vgpu::Device::memcpy_d2h",
         [&] { dev.memcpy_d2h(dst, src); });
  count_copy(t, dev, dst.size());
}

/// Adds one launch's statistics to the open unit under `layer`.
void count_launch(Tracer& t, const std::string& layer, const LaunchStats& s) {
  if (!t.enabled()) return;
  const auto c = [&](const char* key, std::uint64_t v) {
    t.count(layer + "." + key, static_cast<double>(v));
  };
  c("launches", 1);
  c("warp_instructions", s.warp_instructions);
  c("cycles", s.cycles);
  c("sm_issue_cycles", s.sm_issue_cycles);
  c("traces_entered", s.traces_entered);
  c("fused_boundary_ops", s.fused_boundary_ops);
  c("pick_heap_pops", s.pick_heap_pops);
  c("timed_runs_issued", s.timed_runs_issued);
  c("timed_run_fallbacks", s.timed_run_fallbacks);
  c("global_requests", s.global_requests);
  c("coalesced_requests", s.coalesced_requests);
  c("global_transactions", s.global_transactions);
  c("global_bytes", s.global_bytes);
  c("coalesce_memo_hits", s.coalesce_memo_hits);
  c("coalesce_memo_lookups", s.coalesce_memo_hits + s.coalesce_memo_misses);
  c("conflict_memo_hits", s.conflict_memo_hits);
  c("conflict_memo_lookups", s.conflict_memo_hits + s.conflict_memo_misses);
  t.count("vgpu.progcache.hits", static_cast<double>(s.decode_cache_hits));
  t.count("vgpu.progcache.lookups",
          static_cast<double>(s.decode_cache_hits + s.decode_cache_misses));
}

LaunchStats launch_functional(Tracer& t, Device& dev, const vgpu::Program& prog,
                              const LaunchConfig& cfg,
                              std::span<const std::uint32_t> params) {
  const LaunchStats s =
      traced(t, "vgpu.executor", "vgpu::Device::launch_functional",
             [&] { return dev.launch_functional(prog, cfg, params); });
  count_launch(t, "vgpu.executor", s);
  return s;
}

LaunchStats launch_timed(Tracer& t, Device& dev, const vgpu::Program& prog,
                         const LaunchConfig& cfg,
                         std::span<const std::uint32_t> params,
                         const vgpu::TimingOptions& opt) {
  const LaunchStats s =
      traced(t, "vgpu.timing", "vgpu::Device::launch_timed",
             [&] { return dev.launch_timed(prog, cfg, params, opt); });
  count_launch(t, "vgpu.timing", s);
  return s;
}

// ---- oracle helpers ----

/// The kernel's output layout: three float arrays ax, ay, az of n_pad each.
std::vector<Vec3> accel_from_raw(std::span<const float> raw, std::uint32_t n_pad,
                                 std::size_t n) {
  std::vector<Vec3> accel(n);
  for (std::size_t k = 0; k < n; ++k) {
    accel[k] = Vec3{raw[k], raw[n_pad + k], raw[2ull * n_pad + k]};
  }
  return accel;
}

std::string compare_accel(std::span<const Vec3> got, std::span<const Vec3> ref) {
  if (got.size() != ref.size()) return "acceleration count differs";
  for (std::size_t k = 0; k < ref.size(); ++k) {
    const float d = std::max({std::fabs(got[k].x - ref[k].x),
                              std::fabs(got[k].y - ref[k].y),
                              std::fabs(got[k].z - ref[k].z)});
    if (!(d <= kAccelTol)) {
      return "acceleration " + std::to_string(k) + " off the CPU reference by " +
             std::to_string(d);
    }
  }
  return {};
}

bool all_finite(const ParticleSet& s) {
  for (std::size_t k = 0; k < s.size(); ++k) {
    const Vec3 p = s.pos()[k];
    const Vec3 v = s.vel()[k];
    if (!std::isfinite(p.x + p.y + p.z + v.x + v.y + v.z + s.mass()[k])) {
      return false;
    }
  }
  return true;
}

std::uint32_t round_up(std::size_t n, std::uint32_t block) {
  return static_cast<std::uint32_t>((n + block - 1) / block * block);
}

std::uint32_t bits(float f) { return std::bit_cast<std::uint32_t>(f); }

bool bit_equal(std::span<const Vec3> a, std::span<const Vec3> b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](const Vec3& x, const Vec3& y) {
           return bits(x.x) == bits(y.x) && bits(x.y) == bits(y.y) && bits(x.z) == bits(y.z);
         });
}

bool bit_equal(const ParticleSet& a, const ParticleSet& b) {
  const std::vector<float> fa = a.flatten();
  const std::vector<float> fb = b.flatten();
  return fa.size() == fb.size() &&
         std::equal(fa.begin(), fa.end(), fb.begin(),
                    [](float x, float y) { return bits(x) == bits(y); });
}

std::size_t index(Path p) { return static_cast<std::size_t>(p); }

// ---- gravit-functional ----

/// The step-1 oracle on the particle state. The integrate kernel applies
/// v += a*dt, then p += v*dt, each as one fused multiply-add. Accelerations
/// within kAccelTol of the reference therefore leave v within kAccelTol*dt
/// of the reference step and p within that times dt, plus one float
/// rounding of each result (the FLT_EPSILON terms, with a factor two to
/// spare). Masses are not written.
std::string check_first_step(const ParticleSet& before, const ParticleSet& after,
                             std::span<const Vec3> accel, float dt) {
  if (after.size() != before.size()) return "particle count changed";
  const double eps = FLT_EPSILON;
  const double h = dt;
  const auto axis_ok = [&](double a, double v0, double p0, double v1, double p1) {
    const double v = v0 + a * h;
    const double p = p0 + v * h;
    const double tol_v = kAccelTol * h + eps * (std::fabs(v) + std::fabs(a * h));
    const double tol_p = tol_v * h + eps * (std::fabs(p) + std::fabs(v * h));
    return std::fabs(v1 - v) <= tol_v && std::fabs(p1 - p) <= tol_p;
  };
  for (std::size_t k = 0; k < before.size(); ++k) {
    const Vec3 a = accel[k];
    const Vec3 v0 = before.vel()[k], p0 = before.pos()[k];
    const Vec3 v1 = after.vel()[k], p1 = after.pos()[k];
    if (!axis_ok(a.x, v0.x, p0.x, v1.x, p1.x) || !axis_ok(a.y, v0.y, p0.y, v1.y, p1.y) ||
        !axis_ok(a.z, v0.z, p0.z, v1.z, p1.z)) {
      return "particle " + std::to_string(k) +
             " moved as accelerations off the CPU reference by more than " +
             std::to_string(kAccelTol) + " would move it";
    }
    if (bits(after.mass()[k]) != bits(before.mass()[k])) {
      return "mass of particle " + std::to_string(k) + " changed";
    }
  }
  return {};
}

/// One step of the device-resident leapfrog loop (rolled SoAoaS far-field
/// kernel, then the integrate kernel, on the functional executor), followed
/// by the state download gravit_cli makes after each sampled step. The
/// entry path calls gravit::GpuSimulation::step and download(); the
/// composed path makes their calls itself. The functional executor models
/// no time, so the download's D2H leg is the operation's simulated time.
class GravitFunctional final : public Workload {
 public:
  GravitFunctional(std::uint64_t seed, std::uint32_t n)
      : initial_(gravit::spawn_plummer(n, 1.0f, derive_seed(seed, 1))),
        ref_accel_(gravit::farfield_direct_tiled(initial_, kBlock)) {}

  void release() override {
    sim_.reset();
    st_.reset();
    out_ = {};
  }

  void setup(Path p, Tracer& t) override {
    if (p == Path::kEntry) {
      sim_.emplace(initial_, options_);
      // GpuSimulation compiles at its first step; compiling here keeps that
      // out of the operations. The cache is keyed by program content, so
      // the steps find both kernels.
      (void)vgpu::acquire_compiled(sim_->force_kernel().prog, true);
      (void)vgpu::acquire_compiled(
          gravit::make_integrate_kernel(sim_->force_kernel().phys, kBlock), true);
      return;
    }
    State& s = st_.emplace();
    s.force = traced(t, "gravit.kernels", "gravit::make_farfield_kernel",
                     [&] { return gravit::make_farfield_kernel(options_.kernel); });
    s.integrate =
        traced(t, "gravit.kernels", "gravit::make_integrate_kernel",
               [&] { return gravit::make_integrate_kernel(s.force.phys, kBlock); });
    compile(t, s.force.prog);
    compile(t, s.integrate);
    provision(t, s.dev, options_.device_memory);

    const std::uint32_t n = static_cast<std::uint32_t>(initial_.size());
    s.n_pad = round_up(n, kBlock);
    ParticleSet padded = initial_;
    padded.pad_to(s.n_pad);
    const std::vector<std::byte> img =
        pack(t, s.force.phys, padded.flatten(), s.n_pad);
    s.image = s.dev->malloc(img.size());
    h2d(t, *s.dev, s.image, img);
    s.accel = s.dev->malloc(static_cast<std::size_t>(s.force.output_bytes(s.n_pad)));

    for (const std::uint64_t base : s.force.phys.group_bases(s.n_pad)) {
      s.force_params.push_back(s.image.addr + static_cast<std::uint32_t>(base));
      s.integrate_params.push_back(s.image.addr +
                                   static_cast<std::uint32_t>(base));
    }
    s.force_params.push_back(s.accel.addr);
    s.force_params.push_back(s.n_pad / kBlock);
    s.integrate_params.push_back(s.accel.addr);
    s.integrate_params.push_back(s.n_pad);
    s.integrate_params.push_back(std::bit_cast<std::uint32_t>(options_.dt));
    s.host_image.resize(img.size());
    s.host_flat.resize(static_cast<std::size_t>(s.n_pad) * 7);
    regs_ = std::max(s.force.prog.num_phys_regs, s.integrate.num_phys_regs);
  }

  /// Both paths count the far-field launch's warp instructions, the ones
  /// GpuSimulation reports (last_force_stats); the integrate kernel adds
  /// 0.05% more.
  OpResult op(Path p, Tracer& t) override {
    Outcome& o = out_[index(p)];
    ++o.steps;
    if (p == Path::kEntry) {
      const double t0 = sim_->device_ms();
      sim_->step();
      o.state = sim_->download();
      o.force = sim_->last_force_stats();
      return {sim_->device_ms() - t0, o.force.warp_instructions};
    }
    State& s = *st_;
    Device& dev = *s.dev;
    const double t0 = dev.timeline_ms();
    const LaunchConfig cfg{s.n_pad / kBlock, kBlock};
    o.force = launch_functional(t, dev, s.force.prog, cfg, s.force_params);
    (void)launch_functional(t, dev, s.integrate, cfg, s.integrate_params);

    d2h(t, dev, s.host_image, s.image);
    traced(t, "layout", "layout::unpack", [&] {
      layout::unpack(s.force.phys, s.host_image, s.host_flat, s.n_pad);
    });
    const ParticleSet padded = ParticleSet::unflatten(s.host_flat);
    o.state = ParticleSet();
    for (std::size_t k = 0; k < initial_.size(); ++k) {
      o.state.push_back(padded.pos()[k], padded.vel()[k], padded.mass()[k]);
    }
    return {dev.timeline_ms() - t0, o.force.warp_instructions};
  }

  std::string check(Path p) override {
    Outcome& o = out_[index(p)];
    if (!all_finite(o.state)) return "non-finite particle state";
    if (o.steps == 1) {
      o.first_force = o.force.core();
      return check_first_step(initial_, o.state, ref_accel_, options_.dt);
    }
    if (o.force.core() != o.first_force) {
      return "far-field LaunchStats::core() changed between steps";
    }
    return {};
  }

  [[nodiscard]] std::string compare_paths() const override {
    const Outcome& entry = out_[index(Path::kEntry)];
    const Outcome& composed = out_[index(Path::kComposed)];
    if (entry.steps != composed.steps) return "the paths are at different steps";
    if (entry.force.core() != composed.force.core()) {
      return "far-field LaunchStats::core() differs from GpuSimulation's";
    }
    if (!bit_equal(entry.state, composed.state)) {
      return "particle state differs from GpuSimulation's";
    }
    return {};
  }

  [[nodiscard]] std::uint32_t sim_threads() const override { return 1; }
  [[nodiscard]] std::uint32_t regs_per_thread() const override { return regs_; }

 private:
  struct State {
    gravit::BuiltKernel force;
    vgpu::Program integrate;
    std::optional<Device> dev;
    Buffer image, accel;
    std::uint32_t n_pad = 0;
    std::vector<std::uint32_t> force_params, integrate_params;
    std::vector<std::byte> host_image;
    std::vector<float> host_flat;
  };
  /// What one path's last step produced.
  struct Outcome {
    ParticleSet state;
    LaunchStats force, first_force;
    std::uint64_t steps = 0;
  };

  const gravit::GpuSimulationOptions options_;
  ParticleSet initial_;
  std::vector<Vec3> ref_accel_;
  std::optional<gravit::GpuSimulation> sim_;
  std::optional<State> st_;
  std::array<Outcome, 2> out_;
  std::uint32_t regs_ = 0;
};

// ---- fig12-timed-1t ----

/// The pinned core() of the far-field SoAoaS launch at n = 4096 (any seed).
constexpr std::uint64_t kFig12Cycles = 2805777;
constexpr std::uint64_t kFig12WarpInstructions = 11074048;
constexpr std::uint64_t kFig12GlobalTransactions = 17664;

gravit::FarfieldGpuOptions unsampled_options() {
  gravit::FarfieldGpuOptions o;
  o.sample_tiles = 0;
  o.max_waves = 0;
  o.sim_threads = 1;
  return o;
}

/// One Fig. 12 measurement as gravit::FarfieldGpu::run_timed performs it
/// with sampling off (sample_tiles = 0, max_waves = 0, one host thread):
/// provision a fresh device, pack, H2D, timed launch, D2H. The entry path
/// calls run_timed; the composed path makes its calls itself.
class Fig12Timed final : public Workload {
 public:
  Fig12Timed(std::uint64_t seed, std::uint32_t n)
      : set_(gravit::spawn_uniform_cube(n, 1.0f, derive_seed(seed, 2))),
        ref_accel_(gravit::farfield_direct_tiled(set_, kBlock)) {}

  void release() override {
    gpu_.reset();
    kernel_.reset();
    out_ = {};
  }

  void setup(Path p, Tracer& t) override {
    if (p == Path::kEntry) {
      gpu_.emplace(options_);
      (void)vgpu::acquire_compiled(gpu_->kernel().prog, true);
      return;
    }
    kernel_ = traced(t, "gravit.kernels", "gravit::make_farfield_kernel",
                     [&] { return gravit::make_farfield_kernel(options_.kernel); });
    compile(t, kernel_->prog);
  }

  OpResult op(Path p, Tracer& t) override {
    Outcome& o = out_[index(p)];
    ++o.ops;
    if (p == Path::kEntry) {
      gravit::FarfieldGpuResult res = gpu_->run_timed(set_);
      o.stats = res.stats;
      o.end_to_end_ms = res.end_to_end_ms;
      o.accel = std::move(res.accel);
      return {o.end_to_end_ms, o.stats.warp_instructions};
    }
    std::optional<Device> dev;
    provision(t, dev, options_.device_memory);
    dev->reset_timeline();

    const std::uint32_t n_pad = round_up(set_.size(), kBlock);
    ParticleSet padded = set_;
    padded.pad_to(n_pad);
    const std::vector<std::byte> img =
        pack(t, kernel_->phys, padded.flatten(), n_pad);
    const Buffer image = dev->malloc(img.size());
    h2d(t, *dev, image, img);
    const Buffer out =
        dev->malloc(static_cast<std::size_t>(kernel_->output_bytes(n_pad)));
    std::vector<std::uint32_t> params;
    for (const std::uint64_t base : kernel_->phys.group_bases(n_pad)) {
      params.push_back(image.addr + static_cast<std::uint32_t>(base));
    }
    params.push_back(out.addr);
    params.push_back(n_pad / kBlock);

    vgpu::TimingOptions topt;
    topt.driver = options_.driver;
    topt.threads = options_.sim_threads;
    o.stats = launch_timed(t, *dev, kernel_->prog, LaunchConfig{n_pad / kBlock, kBlock},
                           params, topt);

    std::vector<float> raw(static_cast<std::size_t>(n_pad) *
                           gravit::BuiltKernel::kOutputFloatsPerElement);
    d2h(t, *dev, std::as_writable_bytes(std::span<float>(raw)), out);
    o.accel = accel_from_raw(raw, n_pad, set_.size());
    o.end_to_end_ms = dev->timeline_ms();
    unprovision(t, dev);
    return {o.end_to_end_ms, o.stats.warp_instructions};
  }

  std::string check(Path p) override {
    Outcome& o = out_[index(p)];
    if (o.ops == 1) o.first = o.stats.core();
    if (o.stats.core() != o.first) return "LaunchStats::core() changed between ops";
    if (set_.size() == kPaperN &&
        (o.stats.cycles != kFig12Cycles ||
         o.stats.warp_instructions != kFig12WarpInstructions ||
         o.stats.global_transactions != kFig12GlobalTransactions)) {
      return "core() differs from the pinned record: cycles " +
             std::to_string(o.stats.cycles) + ", warp instructions " +
             std::to_string(o.stats.warp_instructions) + ", global transactions " +
             std::to_string(o.stats.global_transactions);
    }
    return compare_accel(o.accel, ref_accel_);
  }

  [[nodiscard]] std::string compare_paths() const override {
    const Outcome& entry = out_[index(Path::kEntry)];
    const Outcome& composed = out_[index(Path::kComposed)];
    if (entry.stats.core() != composed.stats.core()) {
      return "LaunchStats::core() differs from run_timed's";
    }
    if (entry.end_to_end_ms != composed.end_to_end_ms) {
      return "end_to_end_ms differs from run_timed's";
    }
    if (!bit_equal(entry.accel, composed.accel)) {
      return "accelerations differ from run_timed's";
    }
    return {};
  }

  [[nodiscard]] std::uint32_t sim_threads() const override {
    return options_.sim_threads;
  }
  [[nodiscard]] std::uint32_t regs_per_thread() const override {
    return kernel_->prog.num_phys_regs;
  }

 private:
  /// What one path's last operation produced.
  struct Outcome {
    LaunchStats stats, first;
    double end_to_end_ms = 0.0;
    std::vector<Vec3> accel;
    std::uint64_t ops = 0;
  };

  const gravit::FarfieldGpuOptions options_ = unsampled_options();
  ParticleSet set_;
  std::vector<Vec3> ref_accel_;
  std::optional<gravit::FarfieldGpu> gpu_;
  std::optional<gravit::BuiltKernel> kernel_;
  std::array<Outcome, 2> out_;
};

// ---- fig10-sweep-2t ----

constexpr std::array<DriverModel, 3> kFig10Drivers = {
    DriverModel::kCuda10, DriverModel::kCuda11, DriverModel::kCuda22};

/// Fig. 10's columns as bench/fig10_read_cycles measures them: `unopt` is
/// the AoS kernel at n = 4096 + 128, the others run at the paper's n.
struct Fig10Column {
  layout::SchemeKind scheme;
  std::uint32_t n;
};
constexpr std::array<Fig10Column, 5> kFig10Columns = {{
    {layout::SchemeKind::kAoS, kPaperN + 128},
    {layout::SchemeKind::kAoS, kPaperN},
    {layout::SchemeKind::kSoA, kPaperN},
    {layout::SchemeKind::kAoaS, kPaperN},
    {layout::SchemeKind::kSoAoaS, kPaperN},
}};
constexpr std::size_t kFig10Points = kFig10Drivers.size() * kFig10Columns.size();
constexpr std::uint32_t kFig10MaxN = kPaperN + 128;
constexpr std::uint32_t kFields = 7;

/// Average cycles per 4-byte read, rows CUDA 1.0 / 1.1 / 2.2, columns
/// unopt / AoS / SoA / AoaS / SoAoaS; they do not depend on the data.
constexpr std::array<double, kFig10Points> kFig10Pinned = {
    552.2554112554113, 549.703125, 490.14732142857144, 370.9185267857143, 348.94642857142856,
    356.37770562770567, 362.74888392857144, 360.1138392857143, 349.4955357142857, 347.92410714285717,
    453.8041125541126, 449.9174107142857, 373.3169642857143, 374.5658482142857, 348.46763392857144,
};

double paper_value(const bench::Fig10Reference& r, std::size_t column) {
  const std::array<double, 5> v = {r.unopt, r.aos, r.soa, r.aoas, r.soaoas};
  return v[column];
}

/// One Fig. 10 sweep: the strip-down read kernel for the five columns under
/// the three driver generations, 15 timed launches on two host threads. Each
/// launch repeats bench::run_read_benchmark's device protocol (image at the
/// first allocation, results right after it, H2D, launch, D2H) on one device
/// provisioned at setup, so the buffer addresses - and with them the cycles -
/// match the bench's fresh device exactly. No entry point runs the sweep on
/// one device (run_read_benchmark provisions one per launch), so both paths
/// run this composed sweep.
class Fig10Sweep final : public Workload {
 public:
  explicit Fig10Sweep(std::uint64_t seed) {
    std::uint64_t state = derive_seed(seed, 3);
    data_.resize(static_cast<std::size_t>(kFig10MaxN) * kFields);
    for (float& v : data_) {
      v = static_cast<float>(splitmix64(state) >> 40) * 0x1p-24f;
    }
    for (std::size_t c = 0; c < kFig10Columns.size(); ++c) {
      expected_sums_[c] = host_sums(kFig10Columns[c]);
    }
  }

  void release() override {
    dev_.reset();
    images_ = {};
  }

  void setup(Path /*p*/, Tracer& t) override {
    const layout::RecordDesc record = layout::gravit_record();
    for (std::size_t c = 0; c < kFig10Columns.size(); ++c) {
      phys_[c] = layout::plan_layout(record, kFig10Columns[c].scheme);
    }
    for (std::size_t c = 1; c < kFig10Columns.size(); ++c) {
      kernels_[c] = traced(t, "gravit.kernels", "layout::make_read_kernel",
                           [&] { return layout::make_read_kernel(phys_[c]); });
      compile(t, kernels_[c]);
    }
    kernels_[0] = kernels_[1];  // unopt runs the AoS kernel
    // a default device, as run_read_benchmark provisions
    traced(t, "vgpu.device", "vgpu::Device::Device", [&] { dev_.emplace(); });
    for (std::size_t c = 0; c < kFig10Columns.size(); ++c) {
      const std::uint32_t n = kFig10Columns[c].n;
      images_[c] = pack(t, phys_[c],
                        std::span<const float>(data_).first(std::size_t{n} * kFields),
                        n);
    }
  }

  OpResult op(Path /*p*/, Tracer& t) override {
    Device& dev = *dev_;
    const double t0 = dev.timeline_ms();
    OpResult r;
    for (std::size_t d = 0; d < kFig10Drivers.size(); ++d) {
      vgpu::TimingOptions topt;
      topt.driver = kFig10Drivers[d];
      topt.threads = sim_threads();
      for (std::size_t c = 0; c < kFig10Columns.size(); ++c) {
        const std::uint32_t n = kFig10Columns[c].n;
        dev.reset_memory();
        const Buffer img = dev.malloc(images_[c].size());
        h2d(t, dev, img, images_[c]);
        const Buffer out = dev.malloc(std::size_t{n} * 8);
        std::vector<std::uint32_t> params;
        for (const std::uint64_t base : phys_[c].group_bases(n)) {
          params.push_back(img.addr + static_cast<std::uint32_t>(base));
        }
        params.push_back(out.addr);
        const std::size_t point = d * kFig10Columns.size() + c;
        r.warp_instructions +=
            launch_timed(t, dev, kernels_[c], LaunchConfig{n / kBlock, kBlock},
                         params, topt)
                .warp_instructions;
        std::vector<std::uint32_t>& raw = raw_[point];
        raw.resize(std::size_t{n} * 2);
        d2h(t, dev, std::as_writable_bytes(std::span<std::uint32_t>(raw)), out);
        double total = 0.0;
        for (std::uint32_t k = 0; k < n; ++k) total += raw[n + k];
        values_[point] = total / n / kFields;
      }
    }
    r.sim_ms = dev.timeline_ms() - t0;
    return r;
  }

  std::string check(Path /*p*/) override {
    for (std::size_t p = 0; p < kFig10Points; ++p) {
      const std::size_t c = p % kFig10Columns.size();
      const std::vector<float>& want = expected_sums_[c];
      for (std::size_t k = 0; k < want.size(); ++k) {
        if (raw_[p][k] != std::bit_cast<std::uint32_t>(want[k])) {
          return "point " + std::to_string(p) + ": thread " + std::to_string(k) +
                 " summed its fields to a value the host does not";
        }
      }
      if (values_[p] != kFig10Pinned[p]) {
        char buf[96];
        std::snprintf(buf, sizeof buf, "point %zu: %.17g cycles per read, pinned %.17g",
                      p, values_[p], kFig10Pinned[p]);
        return buf;
      }
    }
    return {};
  }

  [[nodiscard]] bool has_entry_path() const override { return false; }
  [[nodiscard]] std::uint32_t sim_threads() const override { return 2; }
  [[nodiscard]] std::uint32_t regs_per_thread() const override {
    std::uint32_t regs = 0;
    for (const vgpu::Program& k : kernels_) regs = std::max(regs, k.num_phys_regs);
    return regs;
  }

  [[nodiscard]] std::optional<double> fig10_err_pct() const override {
    double sum = 0.0;
    for (std::size_t p = 0; p < kFig10Points; ++p) {
      const double paper = paper_value(
          bench::fig10_reference(kFig10Drivers[p / kFig10Columns.size()]),
          p % kFig10Columns.size());
      sum += std::fabs(values_[p] - paper) / paper;
    }
    return 100.0 * sum / static_cast<double>(kFig10Points);
  }

  [[nodiscard]] const std::array<double, kFig10Points>& values() const {
    return values_;
  }

 private:
  /// Each thread's sum of its record's seven fields, added in the order the
  /// read kernel loads them (its load plan), so the comparison is exact.
  [[nodiscard]] std::vector<float> host_sums(const Fig10Column& col) const {
    const layout::PhysicalLayout phys =
        layout::plan_layout(layout::gravit_record(), col.scheme);
    std::vector<std::int64_t> order;  // field per loaded word, -1 = padding
    for (const layout::LoadStep& step : phys.load_plan) {
      const auto& ids = phys.groups[step.group].field_ids;
      for (std::uint32_t w = 0; w < vgpu::width_words(step.width); ++w) {
        const std::size_t slot = step.offset / 4 + w;
        order.push_back(slot < ids.size() ? std::int64_t{ids[slot]} : -1);
      }
    }
    std::vector<float> sums(col.n);
    for (std::size_t i = 0; i < col.n; ++i) {
      float acc = 0.0f;
      for (const std::int64_t f : order) {
        acc += f < 0 ? 0.0f : data_[i * kFields + static_cast<std::size_t>(f)];
      }
      sums[i] = acc;
    }
    return sums;
  }

  std::vector<float> data_;
  std::array<std::vector<float>, kFig10Columns.size()> expected_sums_;
  std::array<layout::PhysicalLayout, kFig10Columns.size()> phys_;
  std::array<vgpu::Program, kFig10Columns.size()> kernels_;
  std::array<std::vector<std::byte>, kFig10Columns.size()> images_;
  std::optional<Device> dev_;
  std::array<std::vector<std::uint32_t>, kFig10Points> raw_;
  std::array<double, kFig10Points> values_{};
};

// ---- self-test helpers ----

int report(const char* what, bool ok, const std::string& detail = {}) {
  std::printf("self-test %-58s %s%s%s\n", what, ok ? "ok" : "FAILED",
              detail.empty() ? "" : ": ", detail.c_str());
  return ok ? 0 : 1;
}

/// Runs `ops` operations on each path, alternating, checking each against
/// the oracle and, after each pair, the paths against each other.
int parity(const char* what, Workload& w, std::uint32_t ops) {
  Tracer off(false);
  w.setup(Path::kEntry, off);
  w.setup(Path::kComposed, off);
  std::string why;
  for (std::uint32_t k = 0; k < ops && why.empty(); ++k) {
    for (const Path p : {Path::kEntry, Path::kComposed}) {
      (void)w.op(p, off);
      if (why.empty()) why = w.check(p);
    }
    if (why.empty()) why = w.compare_paths();
  }
  w.release();
  return report(what, why.empty(), why);
}

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == kWorkloads[0]) return std::make_unique<GravitFunctional>(seed, kPaperN);
  if (name == kWorkloads[1]) return std::make_unique<Fig12Timed>(seed, kPaperN);
  if (name == kWorkloads[2]) return std::make_unique<Fig10Sweep>(seed);
  return nullptr;
}

int self_test(std::uint64_t seed) {
  int failures = 0;
  {
    GravitFunctional w(seed, 300);
    failures += parity("gravit-functional: 3 composed steps == GpuSimulation (n=300)", w, 3);
  }
  {
    Fig12Timed w(seed, 512);
    failures += parity("fig12-timed-1t: 2 composed ops == run_timed unsampled (n=512)", w, 2);
  }
  {  // the sweep == the values bench/fig10_read_cycles computes
    Tracer off(false);
    Fig10Sweep w(seed);
    w.setup(Path::kComposed, off);
    (void)w.op(Path::kComposed, off);
    const std::string why = w.check(Path::kComposed);
    w.release();  // one 512 MiB device at a time
    std::string mismatch;
    for (std::size_t p = 0; p < kFig10Points && mismatch.empty(); ++p) {
      const Fig10Column col = kFig10Columns[p % kFig10Columns.size()];
      const double want =
          bench::run_read_benchmark(col.scheme, kFig10Drivers[p / kFig10Columns.size()],
                                    col.n)
              .avg_cycles_per_element;
      std::printf("self-test fig10 point %2zu: sweep %.17g, bench %.17g\n", p,
                  w.values()[p], want);
      if (w.values()[p] != want) mismatch = "point " + std::to_string(p);
    }
    failures += report("fig10-sweep-2t oracle", why.empty(), why);
    failures += report("fig10-sweep-2t == fig10_read_cycles", mismatch.empty(),
                       mismatch);
  }
  return failures;
}

}  // namespace perfbench
