// memory.hpp - simulated device memory spaces.
//
// GlobalMemory models the board's DRAM: a flat byte space with a bump
// allocator (CUDA 1.x kernels cannot allocate dynamically, so a linear
// allocator mirrors cudaMalloc well enough) and bounds-checked accessors.
// Its storage is demand-zero: a fresh device reads zero everywhere, but
// the host commits only the pages a run touches.
// SharedMemory models one block's on-chip scratchpad including the
// 16-bank organisation that determines access serialization.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "vgpu/check.hpp"

namespace vgpu {

/// Byte address inside the simulated global memory space.
using GAddr = std::uint32_t;

/// A device allocation handle.
struct Buffer {
  GAddr addr = 0;
  std::uint32_t size = 0;
  [[nodiscard]] bool valid() const { return size != 0; }
};

class GlobalMemory {
 public:
  /// calloc hands a large block out as a fresh anonymous mapping, whose
  /// pages the kernel zero-fills on first touch - so provisioning a 512 MiB
  /// device costs nothing until the run writes to it.
  explicit GlobalMemory(std::size_t bytes)
      : data_(static_cast<std::byte*>(std::calloc(bytes, 1))), size_(bytes) {
    if (data_ == nullptr && bytes != 0) throw std::bad_alloc();
  }

  [[nodiscard]] std::size_t capacity() const { return size_; }
  [[nodiscard]] std::size_t allocated() const { return cursor_; }

  /// cudaMalloc analogue; 256-byte aligned like the real allocator, which is
  /// what makes the alignment-based layout optimizations meaningful.
  [[nodiscard]] Buffer alloc(std::size_t bytes);

  /// Release everything (no per-buffer free; simulation runs are scoped).
  void reset() { cursor_ = 0; }

  [[nodiscard]] std::uint32_t load_u32(GAddr addr) const {
    VGPU_EXPECTS_MSG(static_cast<std::size_t>(addr) + 4 <= size_,
                     "global load out of bounds");
    std::uint32_t v;
    std::memcpy(&v, data_.get() + addr, 4);
    return v;
  }

  void store_u32(GAddr addr, std::uint32_t v) {
    VGPU_EXPECTS_MSG(static_cast<std::size_t>(addr) + 4 <= size_,
                     "global store out of bounds");
    std::memcpy(data_.get() + addr, &v, 4);
  }

  /// Host-side bulk access (cudaMemcpy analogue).
  void write(GAddr addr, std::span<const std::byte> src);
  void read(GAddr addr, std::span<std::byte> dst) const;

 private:
  struct Free {
    void operator()(std::byte* p) const { std::free(p); }
  };
  std::unique_ptr<std::byte[], Free> data_;
  std::size_t size_ = 0;
  std::size_t cursor_ = 0;
};

/// The 64 KiB read-only constant space (cudaMemcpyToSymbol analogue). Reads
/// broadcast through the per-SM constant cache: uniform addresses across a
/// half-warp cost like a register read, divergent ones serialize.
class ConstantMemory {
 public:
  static constexpr std::size_t kBytes = 64 * 1024;

  ConstantMemory() : data_(kBytes) {}

  void write(std::uint32_t addr, std::span<const std::byte> src) {
    VGPU_EXPECTS_MSG(static_cast<std::size_t>(addr) + src.size() <= data_.size(),
                     "constant upload out of bounds");
    std::copy(src.begin(), src.end(), data_.begin() + addr);
  }

  [[nodiscard]] std::uint32_t load_u32(std::uint32_t addr) const {
    VGPU_EXPECTS_MSG(static_cast<std::size_t>(addr) + 4 <= data_.size(),
                     "constant load out of bounds");
    std::uint32_t v;
    std::memcpy(&v, data_.data() + addr, 4);
    return v;
  }

 private:
  std::vector<std::byte> data_;
};

class SharedMemory {
 public:
  SharedMemory(std::uint32_t bytes, std::uint32_t banks)
      : data_((bytes + 3) / 4, 0), banks_(banks) {
    VGPU_EXPECTS(banks > 0);
  }

  [[nodiscard]] std::uint32_t size_bytes() const {
    return static_cast<std::uint32_t>(data_.size() * 4);
  }

  [[nodiscard]] std::uint32_t load_u32(std::uint32_t addr) const {
    VGPU_EXPECTS_MSG(addr / 4 < data_.size(), "shared load out of bounds");
    VGPU_EXPECTS_MSG(addr % 4 == 0, "shared access must be word aligned");
    return data_[addr / 4];
  }

  void store_u32(std::uint32_t addr, std::uint32_t v) {
    VGPU_EXPECTS_MSG(addr / 4 < data_.size(), "shared store out of bounds");
    VGPU_EXPECTS_MSG(addr % 4 == 0, "shared access must be word aligned");
    data_[addr / 4] = v;
  }

  void clear() { std::fill(data_.begin(), data_.end(), 0u); }

  /// Raw word storage for bulk warp accesses whose alignment and bounds the
  /// caller has already checked in aggregate (BlockExec's converged-warp
  /// shared path); word w is byte address 4*w.
  [[nodiscard]] std::uint32_t* words() { return data_.data(); }
  [[nodiscard]] const std::uint32_t* words() const { return data_.data(); }

  /// Bank index of a byte address (one 32-bit word per bank, round robin).
  [[nodiscard]] std::uint32_t bank_of(std::uint32_t addr) const {
    return (addr / 4) % banks_;
  }

 private:
  std::vector<std::uint32_t> data_;
  std::uint32_t banks_;
};

/// Maximum serialization degree of a set of simultaneous shared-memory word
/// accesses from one half-warp: the largest number of *distinct* word
/// addresses that map to the same bank. All lanes reading the same word is a
/// broadcast and counts as one access (G80 broadcast rule).
[[nodiscard]] std::uint32_t bank_conflict_degree(
    std::span<const std::uint32_t> addrs, std::uint32_t banks);

/// Warp-level serialization degree of one shared-memory access: the max of
/// bank_conflict_degree() over the warp's half-warps, where every active lane
/// issues `words` consecutive word accesses starting at its byte address.
/// `lane_addrs` holds one address per lane (warp_size entries); inactive
/// lanes are ignored. This is the single definition both the reference
/// interpreter and the fast path report.
[[nodiscard]] std::uint32_t warp_bank_conflict_degree(
    std::span<const std::uint32_t> lane_addrs, std::uint32_t active_mask,
    std::uint32_t words, std::uint32_t half_warp, std::uint32_t banks);

}  // namespace vgpu
