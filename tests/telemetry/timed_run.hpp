// timed_run.hpp - shared fixture helpers for the telemetry tests: run the
// Fig. 10 strip-down read kernel (a real multi-block, memory-bound launch)
// or the far-field force kernel (issue-bound, almost all straight-line
// register ALU runs) under the timing model with an optional TimelineSink
// and an optional stall-attribution table attached.
#pragma once

#include <cstddef>
#include <vector>

#include "gravit/kernels.hpp"
#include "gravit/spawn.hpp"
#include "layout/microbench.hpp"
#include "layout/plan.hpp"
#include "layout/transform.hpp"
#include "vgpu/attribution.hpp"
#include "vgpu/device.hpp"
#include "vgpu/timeline.hpp"

namespace telemetry::test {

inline vgpu::LaunchStats run_read_kernel(vgpu::TimelineSink* sink,
                                         std::uint32_t n = 4096,
                                         std::uint32_t block = 128,
                                         std::uint32_t threads = 1,
                                         vgpu::Attribution* attr = nullptr) {
  const layout::PhysicalLayout phys =
      layout::plan_layout(layout::gravit_record(), layout::SchemeKind::kSoAoaS);
  const vgpu::Program prog = layout::make_read_kernel(phys);

  std::vector<float> data(static_cast<std::size_t>(n) * 7);
  for (std::size_t k = 0; k < data.size(); ++k) {
    data[k] = static_cast<float>(k % 101) * 0.01f;
  }
  const std::vector<std::byte> image = layout::pack(phys, data, n);

  vgpu::Device dev;
  vgpu::Buffer img = dev.malloc(image.size());
  dev.memcpy_h2d(img, image);
  vgpu::Buffer out = dev.malloc(static_cast<std::size_t>(n) * 8);
  std::vector<std::uint32_t> params;
  for (const std::uint64_t base : phys.group_bases(n)) {
    params.push_back(img.addr + static_cast<std::uint32_t>(base));
  }
  params.push_back(out.addr);

  vgpu::TimingOptions topt;
  topt.sink = sink;
  topt.threads = threads;
  topt.attribution = attr;
  return dev.launch_timed(prog, vgpu::LaunchConfig{n / block, block}, params,
                          topt);
}

/// The far-field force kernel (SoAoaS, block = 128) on 512 uniform-cube
/// particles on the G80 spec: four warps on each of four SMs.
inline vgpu::LaunchStats run_farfield_kernel(vgpu::TimelineSink* sink,
                                             std::uint32_t threads,
                                             bool reference) {
  const std::uint32_t n = 512;
  const gravit::KernelOptions kopt;
  const gravit::BuiltKernel built = gravit::make_farfield_kernel(kopt);
  gravit::ParticleSet set = gravit::spawn_uniform_cube(n, 1.0f, 3);
  const std::uint32_t n_pad = (n + kopt.block - 1) / kopt.block * kopt.block;
  set.pad_to(n_pad);
  const std::vector<std::byte> image =
      layout::pack(built.phys, set.flatten(), n_pad);

  vgpu::Device dev(vgpu::g80_spec(), 16u * 1024 * 1024);
  vgpu::Buffer img = dev.malloc(image.size());
  dev.memcpy_h2d(img, image);
  vgpu::Buffer accel = dev.malloc(static_cast<std::size_t>(n_pad) * 12);
  std::vector<std::uint32_t> params;
  for (const std::uint64_t base : built.phys.group_bases(n_pad)) {
    params.push_back(img.addr + static_cast<std::uint32_t>(base));
  }
  params.push_back(accel.addr);
  params.push_back(n_pad / kopt.block);

  vgpu::TimingOptions topt;
  topt.sink = sink;
  topt.threads = threads;
  topt.reference = reference;
  return dev.launch_timed(built.prog,
                          vgpu::LaunchConfig{n_pad / kopt.block, kopt.block},
                          params, topt);
}

}  // namespace telemetry::test
