// workloads.hpp - the three closed-loop workloads of the repository
// benchmark (see README.md beside this file for why each exists).
//
// A workload is driven by one caller: setup() builds everything the
// operations need, then op() runs one operation and check() compares its
// output with an oracle. An operation runs on one of two paths. The entry
// path calls the user entry point itself (gravit::GpuSimulation::step,
// gravit::FarfieldGpu::run_timed), so a change to that entry point shows in
// the end-to-end metrics, which come from this path. The composed path
// repeats the entry point call for call, so that each call into a layer's
// public functions runs inside a span of the Tracer it is handed; the
// per-layer metrics come from it. compare_paths() holds the two to the
// same output. The oracle's reference values are computed in the
// constructor, outside every timed region.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "spans.hpp"

namespace perfbench {

/// What one operation produced, besides its host time.
struct OpResult {
  double sim_ms = 0.0;  ///< change of vgpu::Device::timeline_ms() over the op
  std::uint64_t warp_instructions = 0;
};

enum class Path : std::uint8_t {
  kEntry,     ///< the user entry point, untraced
  kComposed,  ///< the entry point's calls made one by one, each in a span
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Drops what setup() built on both paths (called outside every timed
  /// region, so each setup repetition starts from nothing).
  virtual void release() = 0;
  virtual void setup(Path p, Tracer& t) = 0;
  virtual OpResult op(Path p, Tracer& t) = 0;
  /// Oracle on the output of the last op() on path `p`: empty when it
  /// passes, otherwise what mismatched.
  [[nodiscard]] virtual std::string check(Path p) = 0;

  /// False when the workload has no single entry point that runs its
  /// operation; both paths are then the composed one.
  [[nodiscard]] virtual bool has_entry_path() const { return true; }
  /// Called after the same number of ops on both paths: empty when their
  /// outputs are bit-equal, otherwise what differs.
  [[nodiscard]] virtual std::string compare_paths() const { return {}; }

  /// Host threads the simulator runs this workload's launches on.
  [[nodiscard]] virtual std::uint32_t sim_threads() const = 0;
  /// Largest per-thread register count over the workload's kernels.
  [[nodiscard]] virtual std::uint32_t regs_per_thread() const = 0;
  /// Mean |simulated - paper| / paper over the Fig. 10 points, in percent;
  /// only the Fig. 10 sweep has one.
  [[nodiscard]] virtual std::optional<double> fig10_err_pct() const {
    return std::nullopt;
  }
};

inline constexpr std::array<const char*, 3> kWorkloads = {
    "gravit-functional", "fig12-timed-1t", "fig10-sweep-2t"};

/// The workload called `name` (one of kWorkloads) with inputs drawn from
/// `seed`; nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

/// Parity of the composed operations with the user entry points at small
/// n: the entry path's GpuSimulation::step and FarfieldGpu::run_timed, and
/// the values bench/fig10_read_cycles prints. Prints one line per check;
/// returns the number of failed checks.
[[nodiscard]] int self_test(std::uint64_t seed);

}  // namespace perfbench
