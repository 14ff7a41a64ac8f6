// bench_util.hpp - shared helpers for the reproduction benches.
//
// Each bench binary regenerates one of the paper's figures (or reported
// numbers): it prints the paper-style table to stdout and registers a
// google-benchmark timer (single deterministic iteration) so the standard
// `for b in build/bench/*; do $b; done` loop produces both the reproduced
// data and harness timings.
#pragma once

#include <benchmark/benchmark.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "layout/plan.hpp"
#include "telemetry/json.hpp"
#include "vgpu/arch.hpp"
#include "vgpu/launch.hpp"

namespace bench {

/// Column-aligned table printer. Cells are sanitized (control characters
/// replaced) and rows wider than the header row get their own columns, so
/// long layout names and ragged rows cannot corrupt the output. Every
/// printed table is also registered with the process-wide report so
/// `--json=<path>` can export it (see bench_main).
class Table {
 public:
  explicit Table(std::vector<std::string> headers);
  void add_row(std::vector<std::string> cells);
  void print(const std::string& title, const std::string& note = "") const;

  /// {"title", "note", "headers", "rows"} - raw table form.
  [[nodiscard]] telemetry::JsonValue to_json(const std::string& title,
                                             const std::string& note) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Identity of one bench binary for the machine-readable record.
struct BenchInfo {
  std::string name;    ///< bench binary name, e.g. "fig10_read_cycles"
  std::string kernel;  ///< kernel under measurement
  std::string metric;  ///< the figure's metric, e.g. "avg cycles per 4B read"
};

/// Shared tail of every bench main(): strips `--json=<path>` from argv and
/// hands the remaining flags to google-benchmark; any flag the library
/// does not recognise is reported and the call returns 2 without writing a
/// record. Otherwise it writes the BENCH_<name> record of all tables
/// printed so far to that path (if given) and runs the registered
/// benchmarks. The record carries `host_wall_ms`, the host wall-clock from
/// process start to export, so regressions in simulator speed itself are
/// visible in the machine-readable output. Returns the process exit code.
int bench_main(int argc, char** argv, const BenchInfo& info);

/// Registers one key of the record's top-level `summary` object (written
/// by bench_main when at least one key was added). Tables serialize as
/// arrays, which dotted-path validators like tools/json_check cannot
/// reach; scalar headline results (top stall reason, memory-bound
/// fraction, ...) go here so the ctest gate can assert on them directly.
/// Re-adding a key overwrites the previous value.
void add_summary(const std::string& key, telemetry::JsonValue value);

[[nodiscard]] std::string fmt(double v, int precision = 2);

// ---- strict flag parsing (ported from examples/example_util.hpp) ----
//
// std::strtoul turns garbage into 0 without any diagnostic, so
// `sim_throughput --n=banana` used to silently measure n=0 (clamped to the
// default). These helpers accept only whole decimal tokens within the
// caller's bounds; anything else exits with a usage message and the
// conventional usage-error code 2. Every bench binary that takes numeric
// flags parses them through here (WILL_FAIL rejection smokes in
// tools/CMakeLists.txt keep it that way).

inline constexpr int kUsageExit = 2;

[[noreturn]] inline void die_usage(const char* prog, const char* what,
                                   const char* value,
                                   const std::string& expect) {
  std::fprintf(stderr, "%s: invalid %s '%s' (expected %s)\n", prog, what,
               value, expect.c_str());
  std::exit(kUsageExit);
}

/// True when the token is one or more decimal digits and nothing else
/// (no sign, no whitespace, no trailing junk).
inline bool all_digits(const char* s) {
  if (*s == '\0') return false;
  for (; *s != '\0'; ++s) {
    if (*s < '0' || *s > '9') return false;
  }
  return true;
}

/// Strict unsigned decimal parse: the whole token must be digits and the
/// value must lie in [min, max]; anything else exits with a usage message.
inline std::uint64_t parse_u64(const char* prog, const char* what,
                               const char* value, std::uint64_t min,
                               std::uint64_t max) {
  const std::string expect = "integer in [" + std::to_string(min) + ", " +
                             std::to_string(max) + "]";
  if (!all_digits(value)) die_usage(prog, what, value, expect);
  errno = 0;
  const unsigned long long v = std::strtoull(value, nullptr, 10);
  if (errno == ERANGE || v < min || v > max) {
    die_usage(prog, what, value, expect);
  }
  return v;
}

inline std::uint32_t parse_u32(const char* prog, const char* what,
                               const char* value, std::uint32_t min,
                               std::uint32_t max) {
  return static_cast<std::uint32_t>(parse_u64(prog, what, value, min, max));
}

/// Strict float parse: the whole token must be a number (strtof grammar,
/// no trailing junk) and finite-representable; exits with usage otherwise.
inline float parse_float(const char* prog, const char* what,
                         const char* value) {
  errno = 0;
  char* end = nullptr;
  const float v = std::strtof(value, &end);
  if (end == value || *end != '\0' || errno == ERANGE) {
    die_usage(prog, what, value, "a number");
  }
  return v;
}

/// Runs the Sec. III strip-down read benchmark for one layout/driver:
/// returns the average per-thread clock() cycles per 4-byte element
/// (Fig. 10's metric) plus the launch stats.
struct ReadBenchResult {
  double avg_cycles_per_element = 0.0;
  vgpu::LaunchStats stats;
};

[[nodiscard]] ReadBenchResult run_read_benchmark(layout::SchemeKind scheme,
                                                 vgpu::DriverModel driver,
                                                 std::uint32_t n = 4096,
                                                 std::uint32_t block = 128);

/// Paper reference values for Fig. 10 (estimated from the published plot;
/// used in the printed comparison columns, not for calibration).
struct Fig10Reference {
  double unopt, aos, soa, aoas, soaoas;
};
[[nodiscard]] Fig10Reference fig10_reference(vgpu::DriverModel driver);

}  // namespace bench
