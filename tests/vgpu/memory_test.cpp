// Tests of the simulated memory spaces: allocation alignment, bounds
// checking, and the shared-memory bank-conflict model.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "vgpu/check.hpp"
#include "vgpu/memory.hpp"

namespace vgpu {
namespace {

TEST(GlobalMemory, AllocationsAre256ByteAligned) {
  GlobalMemory g(1 << 16);
  Buffer a = g.alloc(100);
  Buffer b = g.alloc(4);
  EXPECT_EQ(a.addr % 256, 0u);
  EXPECT_EQ(b.addr % 256, 0u);
  EXPECT_GE(b.addr, a.addr + a.size);
}

TEST(GlobalMemory, RoundTripThroughHostCopies) {
  GlobalMemory g(4096);
  Buffer b = g.alloc(64);
  std::vector<std::byte> src(64);
  for (std::size_t k = 0; k < src.size(); ++k) src[k] = static_cast<std::byte>(k);
  g.write(b.addr, src);
  std::vector<std::byte> dst(64);
  g.read(b.addr, dst);
  EXPECT_EQ(src, dst);
  EXPECT_EQ(g.load_u32(b.addr), 0x03020100u);
}

TEST(GlobalMemory, OutOfBoundsThrows) {
  GlobalMemory g(256);
  EXPECT_THROW((void)g.load_u32(255), ContractViolation);
  EXPECT_THROW(g.store_u32(256, 1), ContractViolation);
  EXPECT_THROW((void)g.alloc(512), ContractViolation);
}

// A G80-sized device is demand-zero: it reads zero before any write,
// anywhere in its range, and keeps every bounds check.
TEST(GlobalMemory, DemandZeroLargeDevice) {
  constexpr std::size_t kBytes = 512u * 1024 * 1024;
  GlobalMemory g(kBytes);
  EXPECT_EQ(g.capacity(), kBytes);
  EXPECT_EQ(g.load_u32(0), 0u);
  EXPECT_EQ(g.load_u32(kBytes - 4), 0u);

  const GAddr high = 300u * 1024 * 1024;  // above 256 MiB
  g.store_u32(high, 0xdeadbeefu);
  EXPECT_EQ(g.load_u32(high), 0xdeadbeefu);
  std::vector<std::byte> src(64);
  for (std::size_t k = 0; k < src.size(); ++k) src[k] = static_cast<std::byte>(k + 1);
  g.write(high + 4096, src);
  std::vector<std::byte> dst(64);
  g.read(high + 4096, dst);
  EXPECT_EQ(src, dst);

  const auto end = static_cast<GAddr>(kBytes);
  EXPECT_THROW((void)g.load_u32(end - 3), ContractViolation);
  EXPECT_THROW(g.store_u32(end, 1), ContractViolation);
  EXPECT_THROW(g.write(end - 63, src), ContractViolation);
  EXPECT_THROW(g.read(end - 63, dst), ContractViolation);
}

TEST(SharedMemory, WordAccessAndBanks) {
  SharedMemory s(1024, 16);
  s.store_u32(0, 11);
  s.store_u32(64, 22);
  EXPECT_EQ(s.load_u32(0), 11u);
  EXPECT_EQ(s.load_u32(64), 22u);
  EXPECT_EQ(s.bank_of(0), 0u);
  EXPECT_EQ(s.bank_of(4), 1u);
  EXPECT_EQ(s.bank_of(64), 0u);  // 16 words wrap to bank 0
  EXPECT_THROW((void)s.load_u32(2), ContractViolation);  // misaligned
  EXPECT_THROW(s.store_u32(1024, 0), ContractViolation);
}

TEST(BankConflicts, SequentialIsConflictFree) {
  std::array<std::uint32_t, 16> a{};
  for (std::uint32_t k = 0; k < 16; ++k) a[k] = k * 4;
  EXPECT_EQ(bank_conflict_degree(a, 16), 1u);
}

TEST(BankConflicts, Stride2Gives2Way) {
  std::array<std::uint32_t, 16> a{};
  for (std::uint32_t k = 0; k < 16; ++k) a[k] = k * 8;
  EXPECT_EQ(bank_conflict_degree(a, 16), 2u);
}

TEST(BankConflicts, Stride16IsWorstCase) {
  std::array<std::uint32_t, 16> a{};
  for (std::uint32_t k = 0; k < 16; ++k) a[k] = k * 64;
  EXPECT_EQ(bank_conflict_degree(a, 16), 16u);
}

TEST(BankConflicts, BroadcastCountsOnce) {
  std::array<std::uint32_t, 16> a{};
  a.fill(128);
  EXPECT_EQ(bank_conflict_degree(a, 16), 1u);
}

TEST(BankConflicts, MixedBroadcastAndDistinct) {
  std::array<std::uint32_t, 16> a{};
  a.fill(0);
  a[3] = 64;   // same bank as word 0 (bank 0), different word
  a[5] = 64;   // duplicate of a[3]: broadcast with it
  EXPECT_EQ(bank_conflict_degree(a, 16), 2u);
}

TEST(BankConflicts, EmptyIsZero) {
  EXPECT_EQ(bank_conflict_degree({}, 16), 0u);
}

class BankStrideSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BankStrideSweep, DegreeMatchesGcdFormula) {
  // For word stride s over 16 banks, conflict degree = 16 / gcd(s mod 16 == 0
  // ? 16 : ..., classic formula: degree = 16 / (16 / gcd(s,16))... computed
  // directly: number of lanes hitting the most popular bank.
  const std::uint32_t stride_words = GetParam();
  std::array<std::uint32_t, 16> a{};
  for (std::uint32_t k = 0; k < 16; ++k) a[k] = k * stride_words * 4;
  std::array<std::uint32_t, 16> count{};
  std::uint32_t want = 0;
  for (std::uint32_t k = 0; k < 16; ++k) {
    // distinct words per construction unless stride 0
    const std::uint32_t bank = (k * stride_words) % 16;
    want = std::max(want, ++count[bank]);
  }
  if (stride_words == 0) want = 1;  // broadcast
  EXPECT_EQ(bank_conflict_degree(a, 16), want);
}

INSTANTIATE_TEST_SUITE_P(Strides, BankStrideSweep,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u,
                                           12u, 16u, 17u, 32u));

}  // namespace
}  // namespace vgpu
