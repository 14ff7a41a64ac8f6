// serial_golden.hpp - recorded results of the retired single-threaded
// (serial) timing driver, and the digests the differential suites compare
// against them.
//
// The timing executor once ran one thread through a serial loop that always
// stepped the minimum-cycle SM; the bucketed driver now runs at every
// thread count. serial_golden.inc keeps what the serial loop produced -
// per launch its cycles and digests of LaunchStats::core() and device
// memory, and one sink event stream's length and digest - so the suites
// still check every thread count and both executors against an
// independent record. A second stream record, of an issue-bound launch,
// was taken later from the bucketed driver.
#pragma once

#include <bit>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "vgpu/arch.hpp"
#include "vgpu/launch.hpp"
#include "vgpu/memory.hpp"

namespace vgpu::golden {

/// 64-bit FNV-1a of `n` bytes, continuing from `h`.
inline std::uint64_t fnv1a(const void* p, std::size_t n,
                           std::uint64_t h = 14695981039346656037ull) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t k = 0; k < n; ++k) h = (h ^ b[k]) * 1099511628211ull;
  return h;
}

/// Digest of every simulated field of `s.core()`, each widened to 64 bits
/// (raw struct bytes would include indeterminate padding); the
/// host-mechanism counters core() zeroes are left out.
inline std::uint64_t core_digest(const LaunchStats& s) {
  std::vector<std::uint64_t> v = {s.cycles,
                                  std::bit_cast<std::uint64_t>(s.occupancy),
                                  s.blocks_per_sm, s.warp_instructions};
  v.insert(v.end(), s.region_instructions.begin(), s.region_instructions.end());
  v.insert(v.end(), s.instr_class_counts.begin(), s.instr_class_counts.end());
  v.insert(v.end(),
           {s.divergent_branches, s.sm_idle_cycles, s.sm_issue_cycles,
            s.global_requests, s.global_transactions, s.global_bytes,
            s.coalesced_requests, s.uncoalesced_requests, s.shared_requests,
            s.shared_conflict_extra, s.local_requests, s.const_requests,
            s.tex_requests, s.tex_hits, s.tex_misses, s.barriers,
            s.blocks_total, s.blocks_simulated,
            std::bit_cast<std::uint64_t>(s.extrapolation_factor)});
  return fnv1a(v.data(), v.size() * sizeof(std::uint64_t));
}

/// Digest of every allocated byte of device memory.
inline std::uint64_t memory_digest(const GlobalMemory& g) {
  std::vector<std::byte> image(g.allocated());
  g.read(0, image);
  return fnv1a(image.data(), image.size());
}

/// What one timed launch left behind.
struct Digests {
  std::uint64_t cycles = 0;
  std::uint64_t core = 0;
  std::uint64_t memory = 0;
  friend bool operator==(const Digests&, const Digests&) = default;
};

inline Digests digests(const LaunchStats& s, const GlobalMemory& g) {
  return Digests{s.cycles, core_digest(s), memory_digest(g)};
}

/// Prints in serial_golden.inc's initializer syntax.
inline std::ostream& operator<<(std::ostream& os, const Digests& d) {
  return os << "{" << d.cycles << "u, 0x" << std::hex << d.core << "ull, 0x"
            << d.memory << "ull}" << std::dec;
}

/// A sink event stream: one log line per callback.
struct Stream {
  std::size_t events = 0;
  std::uint64_t digest = 0;
  friend bool operator==(const Stream&, const Stream&) = default;
};

inline Stream stream_digest(const std::vector<std::string>& log) {
  std::string text;
  for (const std::string& line : log) text += line + '\n';
  return Stream{log.size(), fnv1a(text.data(), text.size())};
}

inline std::ostream& operator<<(std::ostream& os, const Stream& s) {
  return os << "{" << s.events << "u, 0x" << std::hex << s.digest << "ull}"
            << std::dec;
}

struct FuzzRecord {
  std::uint32_t seed;
  DriverModel driver;
  Digests want;
};

struct LaunchRecord {
  const char* name;
  Digests want;
};

#include "serial_golden.inc"

/// The serial record of fuzz seed `seed` under `driver`, or null.
inline const Digests* fuzz_record(std::uint32_t seed, DriverModel driver) {
  for (const FuzzRecord& r : kFuzzRecords) {
    if (r.seed == seed && r.driver == driver) return &r.want;
  }
  return nullptr;
}

/// The serial record of the named launch, or null.
inline const Digests* launch_record(const std::string& name) {
  for (const LaunchRecord& r : kLaunchRecords) {
    if (name == r.name) return &r.want;
  }
  return nullptr;
}

}  // namespace vgpu::golden
