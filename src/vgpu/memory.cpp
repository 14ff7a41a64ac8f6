#include "vgpu/memory.hpp"

#include <algorithm>
#include <array>

namespace vgpu {

Buffer GlobalMemory::alloc(std::size_t bytes) {
  VGPU_EXPECTS_MSG(bytes > 0, "zero-size allocation");
  cursor_ = (cursor_ + 255u) & ~static_cast<std::size_t>(255u);
  VGPU_EXPECTS_MSG(cursor_ + bytes <= size_, "device out of memory");
  Buffer b{static_cast<GAddr>(cursor_), static_cast<std::uint32_t>(bytes)};
  cursor_ += bytes;
  return b;
}

void GlobalMemory::write(GAddr addr, std::span<const std::byte> src) {
  VGPU_EXPECTS_MSG(static_cast<std::size_t>(addr) + src.size() <= size_,
                   "host->device copy out of bounds");
  std::copy(src.begin(), src.end(), data_.get() + addr);
}

void GlobalMemory::read(GAddr addr, std::span<std::byte> dst) const {
  VGPU_EXPECTS_MSG(static_cast<std::size_t>(addr) + dst.size() <= size_,
                   "device->host copy out of bounds");
  std::copy(data_.get() + addr, data_.get() + addr + dst.size(), dst.begin());
}

std::uint32_t bank_conflict_degree(std::span<const std::uint32_t> addrs,
                                   std::uint32_t banks) {
  VGPU_EXPECTS(banks > 0 && banks <= 32);
  if (addrs.empty()) return 0;
  // Serialization degree = max over banks of the number of *distinct* words
  // requested in that bank; all lanes hitting the same word broadcast, and
  // different banks serve their words in parallel (so a 128-bit broadcast
  // read occupying four adjacent banks is conflict-free). Up to 64 word
  // accesses: a half-warp of 128-bit accesses.
  std::array<std::uint32_t, 32> counts{};
  std::array<std::uint32_t, 64> distinct_words{};
  std::size_t num_distinct = 0;
  for (std::uint32_t a : addrs) {
    const std::uint32_t word = a / 4;
    bool seen = false;
    for (std::size_t i = 0; i < num_distinct; ++i) {
      if (distinct_words[i] == word) {
        seen = true;
        break;
      }
    }
    if (seen) continue;
    VGPU_EXPECTS_MSG(num_distinct < distinct_words.size(),
                     "too many distinct words for one access");
    distinct_words[num_distinct++] = word;
    ++counts[word % banks];
  }
  std::uint32_t degree = 1;
  for (std::uint32_t c : counts) degree = std::max(degree, c);
  return degree;
}

std::uint32_t warp_bank_conflict_degree(
    std::span<const std::uint32_t> lane_addrs, std::uint32_t active_mask,
    std::uint32_t words, std::uint32_t half_warp, std::uint32_t banks) {
  VGPU_EXPECTS(half_warp > 0);
  const auto warp_size = static_cast<std::uint32_t>(lane_addrs.size());
  std::uint32_t degree = 0;
  std::array<std::uint32_t, 64> addrs{};
  for (std::uint32_t h = 0; h < warp_size / half_warp; ++h) {
    std::size_t n = 0;
    for (std::uint32_t k = 0; k < half_warp; ++k) {
      const std::uint32_t lane = h * half_warp + k;
      if (!(active_mask & (1u << lane))) continue;
      for (std::uint32_t c = 0; c < words; ++c) {
        addrs[n++] = lane_addrs[lane] + 4u * c;
      }
    }
    degree = std::max(
        degree, bank_conflict_degree(
                    std::span<const std::uint32_t>(addrs.data(), n), banks));
  }
  return degree;
}

}  // namespace vgpu
