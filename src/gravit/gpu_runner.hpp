// gpu_runner.hpp - host-side orchestration of the far-field GPU kernel.
//
// Reproduces the paper's measurement protocol for Fig. 12: "we ran the
// application and measured the overall runtime from copying the data to the
// device, through the kernel invocation till after copying the results
// back". run_timed() reports that window in milliseconds; run_functional()
// returns exact accelerations for physics use and validation.
//
// Large problems are timed with tile sampling (DESIGN.md section 2): the
// kernel's outer loop is perfectly periodic, so cycles are measured at two
// reduced tile counts on a bounded number of block waves and extrapolated
// affinely - validated against full simulation at small n in
// tests/gravit/gpu_farfield_test.cpp.
#pragma once

#include <optional>
#include <vector>

#include "gravit/kernels.hpp"
#include "gravit/particle.hpp"
#include "vgpu/device.hpp"

namespace gravit {

struct FarfieldGpuOptions {
  KernelOptions kernel;
  vgpu::DriverModel driver = vgpu::DriverModel::kCuda10;
  /// Tile sampling for timed runs: simulate t/2 and t tiles and extrapolate
  /// when the real tile count exceeds `sample_tiles`; 0 disables sampling.
  std::uint32_t sample_tiles = 16;
  /// Cap on simulated block waves for timed runs (0 = simulate all blocks).
  std::uint32_t max_waves = 2;
  /// Host threads for the timing executor (forwarded to
  /// TimingOptions::threads; results are bit-identical for any value).
  /// Extra threads only pay off with spare host cores.
  std::uint32_t sim_threads = 1;
  /// SMs to simulate (forwarded to TimingOptions::sim_sms; 0 = all). DRAM
  /// bandwidth scales proportionally, so per-SM behaviour matches.
  std::uint32_t sim_sms = 0;
  /// Device memory to provision.
  std::size_t device_memory = 512u * 1024 * 1024;
};

struct FarfieldGpuResult {
  std::vector<Vec3> accel;  ///< filled by functional runs only
  vgpu::LaunchStats stats;  ///< last (largest) launch
  double cycles = 0.0;      ///< estimated full-kernel cycles
  double kernel_ms = 0.0;
  double end_to_end_ms = 0.0;  ///< H2D copy + kernel + D2H copy (Fig. 12)
  bool sampled = false;
  std::uint32_t regs_per_thread = 0;
  double occupancy = 0.0;

  /// Raw tile-sampling points (sampled runs only): cycles at t1 and t2
  /// tiles over `stats.blocks_simulated` blocks. Benches reuse these to
  /// derive other problem sizes without re-simulating (the samples do not
  /// depend on n).
  double sample_t1 = 0, sample_c1 = 0, sample_t2 = 0, sample_c2 = 0;
};

/// A multi-step run of the Fig. 12 protocol (upload inputs, kernel,
/// download results - every step), timed either strictly serially or as a
/// double-buffered pipeline over the device's async streams: the upload of
/// step i+1's inputs and the download of step i-1's results hide under
/// step i's kernel (one DMA engine, event-ordered buffer reuse).
struct PipelineResult {
  double total_ms = 0.0;   ///< critical path of all steps (timeline delta)
  double h2d_ms = 0.0;     ///< modeled per-step upload leg
  double kernel_ms = 0.0;  ///< per-step kernel leg (excl. launch overhead)
  double d2h_ms = 0.0;     ///< modeled per-step download leg
  std::uint64_t kernel_cycles = 0;  ///< per-step cycles (same every step)
  /// Resolved stream spans of the last sync (overlap mode only).
  std::vector<vgpu::AsyncSpan> spans;
};

class FarfieldGpu {
 public:
  explicit FarfieldGpu(FarfieldGpuOptions options);

  /// Exact accelerations (functional execution; no timing).
  [[nodiscard]] FarfieldGpuResult run_functional(const ParticleSet& set);

  /// Timed execution with the paper's end-to-end window. Accelerations are
  /// only returned when no sampling was needed.
  [[nodiscard]] FarfieldGpuResult run_timed(const ParticleSet& set);

  /// Timed multi-step protocol, fully simulated (no sampling, so keep the
  /// problem small). `overlap` switches between the serial protocol and the
  /// double-buffered async pipeline; kernel cycles are bit-identical
  /// either way. `h2d_chunks` splits each upload into that many chunked
  /// async copies (transfer staging granularity; 1 = whole image).
  [[nodiscard]] PipelineResult run_timed_steps(const ParticleSet& set,
                                               std::uint32_t steps,
                                               bool overlap,
                                               std::uint32_t h2d_chunks = 1);

  [[nodiscard]] const BuiltKernel& kernel() const { return kernel_; }
  [[nodiscard]] const FarfieldGpuOptions& options() const { return options_; }

 private:
  struct Uploaded {
    vgpu::Buffer image;
    vgpu::Buffer accel_out;
    std::vector<std::uint32_t> params;
    std::uint32_t n_pad = 0;
    std::uint32_t n_tiles = 0;
  };
  Uploaded upload(const ParticleSet& set, vgpu::Device& dev) const;

  FarfieldGpuOptions options_;
  BuiltKernel kernel_;
};

}  // namespace gravit
