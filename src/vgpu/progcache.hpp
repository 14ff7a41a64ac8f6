// progcache.hpp - process-wide decode/compile cache for launched kernels.
//
// Every launch used to re-run decode() even when the same Program object
// was launched hundreds of times in a sweep - bench loops, the figure
// drivers and the fuzz suites all relaunch identical kernels. The cache
// compiles a Program once into a CompiledKernel - the DecodedProgram plus
// its compiled handlers (threaded.hpp) and superblock traces (traces.hpp)
// - and hands out shared ownership, so repeat launches skip the whole
// decode + compile step.
//
// Keying: entries are found by an FNV-1a content hash over every
// decode-relevant Program field, then verified with full structural
// equality (Program::operator==), so a hash collision degrades to a miss,
// never to a wrong program. Entries are immutable after insertion.
//
// The cache is bounded: when it would exceed kDecodeCacheCapacity distinct
// programs it is cleared wholesale (launch sweeps cycle through a handful
// of kernels; an LRU would be dead weight). Shared_ptr ownership keeps
// in-flight launches safe across a concurrent clear.
#pragma once

#include <cstdint>
#include <memory>

#include "vgpu/arch.hpp"
#include "vgpu/decode.hpp"
#include "vgpu/ir.hpp"
#include "vgpu/threaded.hpp"
#include "vgpu/traces.hpp"

namespace vgpu {

/// Everything derivable from one Program, compiled once and shared by every
/// launch of it. `key` is a full copy of the source program (the cache must
/// verify candidate hits against something the caller can mutate freely).
class CompiledKernel {
 public:
  explicit CompiledKernel(const Program& prog);

  CompiledKernel(const CompiledKernel&) = delete;
  CompiledKernel& operator=(const CompiledKernel&) = delete;

  [[nodiscard]] const Program& key() const { return key_; }
  [[nodiscard]] const DecodedProgram& decoded() const { return dec_; }
  [[nodiscard]] const ThreadedProgram& threaded() const { return threaded_; }
  /// Superblock traces compiled from the threaded program (traces.hpp);
  /// a fast-path BlockExec runs every whole run through one of them.
  [[nodiscard]] const TraceProgram& traces() const { return traces_; }

 private:
  Program key_;
  DecodedProgram dec_;
  ThreadedProgram threaded_;
  TraceProgram traces_;
};

/// Wholesale-clear bound of the process-wide cache, in distinct programs.
inline constexpr std::size_t kDecodeCacheCapacity = 256;

/// Fetch (or compile and insert) the CompiledKernel for `prog`.
/// `use_cache == false` compiles privately without touching the cache
/// (the executors always use the cache; tests use this to isolate a
/// compile). `hit`, when non-null, reports
/// whether the result came out of the cache.
[[nodiscard]] std::shared_ptr<const CompiledKernel> acquire_compiled(
    const Program& prog, bool use_cache, bool* hit = nullptr);

/// Test hooks: empty the process-wide cache / count resident entries.
void decode_cache_clear();
[[nodiscard]] std::size_t decode_cache_size();

/// The cache's FNV-1a content hash over every decode-relevant Program
/// field. Equal programs hash equal (consistent with Program::operator==);
/// exposed so other caches - notably the tuning cache (src/tune) - can key
/// on kernel content the same way.
[[nodiscard]] std::uint64_t program_content_hash(const Program& prog);

}  // namespace vgpu
