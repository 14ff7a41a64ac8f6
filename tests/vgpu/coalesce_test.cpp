// Unit and property tests of the three coalescing models. The layouts of
// the paper map to specific transaction shapes (Figs. 3/5/7/9); the
// property sweeps check the rule invariants on randomized patterns.
#include <gtest/gtest.h>

#include <array>
#include <random>
#include <type_traits>
#include <vector>

#include "vgpu/coalesce.hpp"

namespace vgpu {
namespace {

constexpr std::uint32_t kHalf = 16;

std::array<std::uint32_t, kHalf> strided(std::uint32_t base, std::uint32_t stride) {
  std::array<std::uint32_t, kHalf> a{};
  for (std::uint32_t k = 0; k < kHalf; ++k) a[k] = base + k * stride;
  return a;
}

MemRequest req_of(const std::array<std::uint32_t, kHalf>& addrs, MemWidth w,
                  std::uint32_t active = 0xFFFFu) {
  return MemRequest{std::span<const std::uint32_t>(addrs.data(), addrs.size()),
                    active, w, false};
}

// ---- strict CUDA 1.0 rules -------------------------------------------------

TEST(Cuda10, SequentialWordAccessesCoalesceTo64B) {
  auto addrs = strided(0, 4);
  auto res = coalesce(req_of(addrs, MemWidth::kW32), DriverModel::kCuda10);
  EXPECT_TRUE(res.coalesced);
  ASSERT_EQ(res.transactions.size(), 1u);
  EXPECT_EQ(res.transactions[0].base, 0u);
  EXPECT_EQ(res.transactions[0].bytes, 64u);
}

TEST(Cuda10, Sequential128BitAccessesCoalesceToTwo128B) {
  auto addrs = strided(256, 16);
  auto res = coalesce(req_of(addrs, MemWidth::kW128), DriverModel::kCuda10);
  EXPECT_TRUE(res.coalesced);
  ASSERT_EQ(res.transactions.size(), 2u);
  EXPECT_EQ(res.transactions[0].bytes, 128u);
  EXPECT_EQ(res.transactions[1].base, 256u + 128u);
}

TEST(Cuda10, MisalignedBaseBreaksCoalescing) {
  auto addrs = strided(4, 4);  // shifted by one word
  auto res = coalesce(req_of(addrs, MemWidth::kW32), DriverModel::kCuda10);
  EXPECT_FALSE(res.coalesced);
  EXPECT_EQ(res.transactions.size(), kHalf);
}

TEST(Cuda10, AoSStride28IssuesOnePerLane) {
  // The paper's original particle layout: 7 floats = 28-byte stride.
  auto addrs = strided(0, 28);
  auto res = coalesce(req_of(addrs, MemWidth::kW32), DriverModel::kCuda10);
  EXPECT_FALSE(res.coalesced);
  EXPECT_EQ(res.transactions.size(), kHalf);
  for (const Transaction& t : res.transactions) EXPECT_EQ(t.bytes, 4u);
}

TEST(Cuda10, AoaSStride32Vec4IssuesOnePerLane) {
  // Fig. 7: aligned 32-byte structs read as float4 - fewer reads per thread
  // but still not coalesced.
  auto addrs = strided(0, 32);
  auto res = coalesce(req_of(addrs, MemWidth::kW128), DriverModel::kCuda10);
  EXPECT_FALSE(res.coalesced);
  EXPECT_EQ(res.transactions.size(), kHalf);
  for (const Transaction& t : res.transactions) EXPECT_EQ(t.bytes, 16u);
}

TEST(Cuda10, InactiveLanesDoNotBreakCoalescing) {
  auto addrs = strided(128, 4);
  auto res =
      coalesce(req_of(addrs, MemWidth::kW32, 0xA5A5u), DriverModel::kCuda10);
  EXPECT_TRUE(res.coalesced);
  ASSERT_EQ(res.transactions.size(), 1u);
  EXPECT_EQ(res.transactions[0].base, 128u);
}

TEST(Cuda10, PermutedLanesBreakStrictCoalescing) {
  auto addrs = strided(0, 4);
  std::swap(addrs[0], addrs[1]);  // same footprint, wrong lane order
  auto res = coalesce(req_of(addrs, MemWidth::kW32), DriverModel::kCuda10);
  EXPECT_FALSE(res.coalesced);
  EXPECT_EQ(res.transactions.size(), kHalf);
}

// ---- CUDA 2.2 segment rules ---------------------------------------------------

TEST(Cuda22, PermutedLanesStillOneSegment) {
  auto addrs = strided(0, 4);
  std::swap(addrs[3], addrs[9]);
  auto res = coalesce(req_of(addrs, MemWidth::kW32), DriverModel::kCuda22);
  ASSERT_EQ(res.transactions.size(), 1u);
  EXPECT_EQ(res.transactions[0].bytes, 64u);  // shrunk from 128B
}

TEST(Cuda22, MisalignedAccessSpansTwoSegments) {
  auto addrs = strided(96, 4);  // crosses the 128B boundary at 128
  auto res = coalesce(req_of(addrs, MemWidth::kW32), DriverModel::kCuda22);
  ASSERT_EQ(res.transactions.size(), 2u);
  // first segment holds bytes 96..127 -> shrinks to the top 32B
  EXPECT_EQ(res.transactions[0].base, 96u);
  EXPECT_EQ(res.transactions[0].bytes, 32u);
  // second holds bytes 128..159 -> bottom 32B of its segment
  EXPECT_EQ(res.transactions[1].base, 128u);
  EXPECT_EQ(res.transactions[1].bytes, 32u);
}

TEST(Cuda22, AoSStride28TouchesFourSegments) {
  // 16 lanes x 28B stride = 448B footprint -> 4 segments of 128B.
  auto addrs = strided(0, 28);
  auto res = coalesce(req_of(addrs, MemWidth::kW32), DriverModel::kCuda22);
  EXPECT_EQ(res.transactions.size(), 4u);
}

TEST(Cuda22, SingleLaneShrinksTo32B) {
  auto addrs = strided(500 * 4, 0);
  auto res =
      coalesce(req_of(addrs, MemWidth::kW32, 0x1u), DriverModel::kCuda22);
  ASSERT_EQ(res.transactions.size(), 1u);
  EXPECT_EQ(res.transactions[0].bytes, 32u);
}

// ---- CUDA 1.1 driver model -------------------------------------------------------

TEST(Cuda11, StrictFastPathPreserved) {
  auto addrs = strided(64, 4);
  auto res = coalesce(req_of(addrs, MemWidth::kW32), DriverModel::kCuda11);
  EXPECT_TRUE(res.coalesced);
  EXPECT_EQ(res.transactions.size(), 1u);
}

TEST(Cuda11, UncoalescedMergesIntoWholeSegments) {
  auto addrs = strided(0, 28);
  auto res = coalesce(req_of(addrs, MemWidth::kW32), DriverModel::kCuda11);
  EXPECT_FALSE(res.coalesced);
  EXPECT_EQ(res.transactions.size(), 4u);  // 448B footprint
  for (const Transaction& t : res.transactions) EXPECT_EQ(t.bytes, 128u);
}

// ---- property sweeps -----------------------------------------------------------

// CTest names each case after the raw bytes of its parameter, so
// SweepParam must have no padding: padding bytes are indeterminate and
// would give the cases different names from build to build. Hence the
// width is held in 32 bits too.
struct SweepParam {
  std::uint32_t stride;
  std::uint32_t width;  // MemWidth
};
static_assert(std::has_unique_object_representations_v<SweepParam>,
              "SweepParam must have no padding bytes");

constexpr SweepParam sweep(std::uint32_t stride, MemWidth width) {
  return SweepParam{stride, static_cast<std::uint32_t>(width)};
}

class CoalesceSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(CoalesceSweep, TransactionsCoverEveryActiveAddress) {
  const std::uint32_t stride = GetParam().stride;
  const auto width = static_cast<MemWidth>(GetParam().width);
  const std::uint32_t wbytes = width_bytes(width);
  // stride must keep accesses aligned
  const std::uint32_t eff_stride = (stride / wbytes) * wbytes;
  auto addrs = strided(1024, eff_stride);
  for (DriverModel m : {DriverModel::kCuda10, DriverModel::kCuda11,
                        DriverModel::kCuda22}) {
    auto res = coalesce(req_of(addrs, width), m);
    for (std::uint32_t k = 0; k < kHalf; ++k) {
      for (std::uint32_t b = addrs[k]; b < addrs[k] + wbytes; b += 4) {
        bool covered = false;
        for (const Transaction& t : res.transactions) {
          if (b >= t.base && b < t.base + t.bytes) {
            covered = true;
            break;
          }
        }
        EXPECT_TRUE(covered) << "model=" << to_string(m) << " lane=" << k
                             << " byte=" << b;
      }
    }
  }
}

TEST_P(CoalesceSweep, SegmentModelsNeverExceedLaneCount) {
  const std::uint32_t stride = GetParam().stride;
  const auto width = static_cast<MemWidth>(GetParam().width);
  const std::uint32_t wbytes = width_bytes(width);
  const std::uint32_t eff_stride = (stride / wbytes) * wbytes;
  auto addrs = strided(2048, eff_stride);
  for (DriverModel m : {DriverModel::kCuda11, DriverModel::kCuda22}) {
    auto res = coalesce(req_of(addrs, width), m);
    EXPECT_LE(res.transactions.size(), kHalf) << to_string(m);
    // segment transactions are aligned to their own size
    for (const Transaction& t : res.transactions) {
      EXPECT_EQ(t.base % t.bytes, 0u) << to_string(m);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strides, CoalesceSweep,
    ::testing::Values(sweep(4, MemWidth::kW32), sweep(8, MemWidth::kW32),
                      sweep(12, MemWidth::kW32), sweep(28, MemWidth::kW32),
                      sweep(64, MemWidth::kW32), sweep(8, MemWidth::kW64),
                      sweep(16, MemWidth::kW64), sweep(16, MemWidth::kW128),
                      sweep(32, MemWidth::kW128), sweep(48, MemWidth::kW128)));

TEST(CoalesceProperty, RandomPatternsAreDeterministicAndCovered) {
  std::mt19937 rng(7);
  std::array<std::uint32_t, kHalf> addrs{};
  for (int iter = 0; iter < 200; ++iter) {
    for (auto& a : addrs) {
      a = (rng() % 4096u) * 4u;
    }
    const std::uint32_t active = rng() & 0xFFFFu;
    if (active == 0) continue;
    MemRequest req{std::span<const std::uint32_t>(addrs.data(), addrs.size()),
                   active, MemWidth::kW32, false};
    for (DriverModel m : {DriverModel::kCuda10, DriverModel::kCuda11,
                          DriverModel::kCuda22}) {
      auto r1 = coalesce(req, m);
      auto r2 = coalesce(req, m);
      ASSERT_EQ(r1.transactions.size(), r2.transactions.size());
      for (std::uint32_t k = 0; k < kHalf; ++k) {
        if (!(active & (1u << k))) continue;
        bool covered = false;
        for (const Transaction& t : r1.transactions) {
          if (addrs[k] >= t.base && addrs[k] + 4 <= t.base + t.bytes) {
            covered = true;
            break;
          }
        }
        EXPECT_TRUE(covered);
      }
    }
  }
}

TEST(CoalesceProperty, EmptyRequestYieldsNothing) {
  std::array<std::uint32_t, kHalf> addrs{};
  MemRequest req{std::span<const std::uint32_t>(addrs.data(), addrs.size()), 0,
                 MemWidth::kW32, false};
  for (DriverModel m : {DriverModel::kCuda10, DriverModel::kCuda11,
                        DriverModel::kCuda22}) {
    EXPECT_TRUE(coalesce(req, m).transactions.empty());
  }
}

}  // namespace
}  // namespace vgpu

// ---- metamorphic properties appended after the initial suite ----------------

namespace vgpu {
namespace {

TEST(CoalesceMetamorphic, TranslationBy2048PreservesShape) {
  // shifting every address by a multiple of 2048 (any alignment the rules
  // care about) must shift transaction bases and change nothing else
  std::mt19937 rng(31);
  std::array<std::uint32_t, 16> addrs{};
  for (int iter = 0; iter < 100; ++iter) {
    for (auto& a : addrs) a = (rng() % 2048u) * 4u;
    for (DriverModel m : {DriverModel::kCuda10, DriverModel::kCuda11,
                          DriverModel::kCuda22}) {
      MemRequest req{std::span<const std::uint32_t>(addrs.data(), 16), 0xFFFFu,
                     MemWidth::kW32, false};
      auto base_res = coalesce(req, m);
      std::array<std::uint32_t, 16> shifted{};
      for (std::size_t k = 0; k < 16; ++k) shifted[k] = addrs[k] + 6u * 2048u;
      MemRequest req2{std::span<const std::uint32_t>(shifted.data(), 16),
                      0xFFFFu, MemWidth::kW32, false};
      auto shift_res = coalesce(req2, m);
      ASSERT_EQ(base_res.transactions.size(), shift_res.transactions.size());
      EXPECT_EQ(base_res.coalesced, shift_res.coalesced);
      for (std::size_t t = 0; t < base_res.transactions.size(); ++t) {
        EXPECT_EQ(base_res.transactions[t].bytes, shift_res.transactions[t].bytes);
        EXPECT_EQ(base_res.transactions[t].base + 6u * 2048u,
                  shift_res.transactions[t].base);
      }
    }
  }
}

TEST(CoalesceMetamorphic, LanePermutationInvariantForSegmentModels) {
  std::mt19937 rng(37);
  std::array<std::uint32_t, 16> addrs{};
  for (int iter = 0; iter < 100; ++iter) {
    for (auto& a : addrs) a = (rng() % 1024u) * 4u;
    auto shuffled = addrs;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    for (DriverModel m : {DriverModel::kCuda11, DriverModel::kCuda22}) {
      MemRequest r1{std::span<const std::uint32_t>(addrs.data(), 16), 0xFFFFu,
                    MemWidth::kW32, false};
      MemRequest r2{std::span<const std::uint32_t>(shuffled.data(), 16), 0xFFFFu,
                    MemWidth::kW32, false};
      EXPECT_EQ(coalesce(r1, m).total_bytes(), coalesce(r2, m).total_bytes())
          << to_string(m);
    }
  }
}

TEST(CoalesceMetamorphic, DeactivatingLanesNeverAddsTransactions) {
  std::mt19937 rng(41);
  std::array<std::uint32_t, 16> addrs{};
  for (int iter = 0; iter < 100; ++iter) {
    for (auto& a : addrs) a = (rng() % 512u) * 4u;
    const std::uint32_t full = 0xFFFFu;
    const std::uint32_t subset = full & (rng() & 0xFFFFu);
    if (subset == 0) continue;
    for (DriverModel m : {DriverModel::kCuda10, DriverModel::kCuda11,
                          DriverModel::kCuda22}) {
      MemRequest rf{std::span<const std::uint32_t>(addrs.data(), 16), full,
                    MemWidth::kW32, false};
      MemRequest rs{std::span<const std::uint32_t>(addrs.data(), 16), subset,
                    MemWidth::kW32, false};
      EXPECT_LE(coalesce(rs, m).transactions.size(),
                coalesce(rf, m).transactions.size())
          << to_string(m);
    }
  }
}

}  // namespace
}  // namespace vgpu
