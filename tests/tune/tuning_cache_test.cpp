// TuningCache keying, collision handling, counters and persistence.
//
// The cache follows the progcache.hpp trust model: entries are found by
// 64-bit content hash but - while the in-memory Program copy is still
// attached - verified with full structural equality, so a forged or
// colliding hash degrades to a miss, never to a wrong measurement. These
// tests forge exactly those mismatches, check every key axis separates
// entries, pin the hit/miss counter contract (mirroring the decode-cache
// suites), and round-trip the JSON persistence including its
// reject-garbage and merge semantics.
#include "tune/cache.hpp"

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "gravit/kernels.hpp"
#include "tune/space.hpp"
#include "vgpu/arch.hpp"
#include "vgpu/progcache.hpp"

namespace {

const vgpu::DeviceSpec kSpec = vgpu::g80_spec();

gravit::BuiltKernel kernel(layout::SchemeKind scheme) {
  gravit::KernelOptions opt;
  opt.scheme = scheme;
  return gravit::make_farfield_kernel(opt);
}

tune::CacheKey key_for(const vgpu::Program& prog) {
  tune::CacheKey key;
  key.program_hash = vgpu::program_content_hash(prog);
  key.device_hash = tune::device_spec_hash(kSpec);
  key.driver = vgpu::DriverModel::kCuda10;
  key.sim_sms = 2;
  key.max_waves = 2;
  key.sample_tiles = 8;
  key.n_tiles = 0;
  return key;
}

tune::Measurement sampled_measurement() {
  tune::Measurement m;
  m.sampled = true;
  m.t1 = 4;
  m.c1 = 1000;
  m.t2 = 8;
  m.c2 = 1900;
  m.blocks_sampled = 16;
  return m;
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

TEST(TuningCacheTest, MissInsertHitCounterContract) {
  const gravit::BuiltKernel k = kernel(layout::SchemeKind::kSoAoaS);
  const tune::CacheKey key = key_for(k.prog);
  tune::TuningCache cache;

  EXPECT_EQ(cache.find(key, k.prog), nullptr);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 1u);

  cache.insert(key, k.prog, sampled_measurement());
  ASSERT_EQ(cache.size(), 1u);
  const tune::Measurement* hit = cache.find(key, k.prog);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->c2, 1900u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);

  cache.reset_counters();
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.size(), 1u);  // counters reset, entries stay
}

TEST(TuningCacheTest, HashCollisionDegradesToMiss) {
  // Two structurally different kernels. Forge a collision: the entry is
  // stored under kSoAoaS's key but the lookup presents kAoS's program with
  // that same (claimed) hash - exactly what a 64-bit collision would look
  // like. Structural verification must turn it into a miss.
  const gravit::BuiltKernel a = kernel(layout::SchemeKind::kSoAoaS);
  const gravit::BuiltKernel b = kernel(layout::SchemeKind::kAoS);
  ASSERT_FALSE(a.prog == b.prog);
  const tune::CacheKey key = key_for(a.prog);

  tune::TuningCache cache;
  cache.insert(key, a.prog, sampled_measurement());
  EXPECT_EQ(cache.find(key, b.prog), nullptr);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 1u);
  // The honest lookup still hits: collision handling is per-query.
  EXPECT_NE(cache.find(key, a.prog), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(TuningCacheTest, DeviceSpecHashCoversTimingParams) {
  const std::uint64_t base = tune::device_spec_hash(kSpec);

  vgpu::DeviceSpec other = kSpec;
  other.sm_count += 1;
  EXPECT_NE(tune::device_spec_hash(other), base);

  // A timing-model recalibration must also move the hash: persisted
  // measurements are only valid for the model that produced them.
  vgpu::DeviceSpec recal = kSpec;
  recal.timing.global_latency_cycles += 1;
  EXPECT_NE(tune::device_spec_hash(recal), base);
}

TEST(TuningCacheTest, EveryKeyAxisSeparatesEntries) {
  const gravit::BuiltKernel k = kernel(layout::SchemeKind::kSoAoaS);
  const tune::CacheKey key = key_for(k.prog);
  tune::TuningCache cache;
  cache.insert(key, k.prog, sampled_measurement());

  tune::CacheKey driver = key;
  driver.driver = vgpu::DriverModel::kCuda11;
  EXPECT_EQ(cache.find(driver, k.prog), nullptr);

  tune::CacheKey device = key;
  device.device_hash ^= 1;
  EXPECT_EQ(cache.find(device, k.prog), nullptr);

  tune::CacheKey fidelity = key;
  fidelity.sample_tiles = 16;
  EXPECT_EQ(cache.find(fidelity, k.prog), nullptr);

  tune::CacheKey sms = key;
  sms.sim_sms = 0;
  EXPECT_EQ(cache.find(sms, k.prog), nullptr);

  EXPECT_NE(cache.find(key, k.prog), nullptr);
}

TEST(TuningCacheTest, SaveLoadRoundtrip) {
  const gravit::BuiltKernel k = kernel(layout::SchemeKind::kSoAoaS);
  const tune::CacheKey skey = key_for(k.prog);
  tune::CacheKey fkey = skey;  // a full-run entry under the same program
  fkey.max_waves = 0;
  fkey.sample_tiles = 0;
  fkey.n_tiles = 32;
  tune::Measurement full;
  full.sampled = false;
  full.cycles = 123'456'789;
  full.blocks = 32;

  tune::TuningCache cache;
  cache.insert(skey, k.prog, sampled_measurement());
  cache.insert(fkey, k.prog, full);
  const std::string path = temp_path("tune_cache_roundtrip.json");
  ASSERT_TRUE(cache.save(path));

  tune::TuningCache warm;
  ASSERT_TRUE(warm.load(path));
  EXPECT_EQ(warm.size(), 2u);
  // Disk-restored entries carry no Program copy; the content hash is the
  // documented trust boundary, so the honest lookup hits.
  const tune::Measurement* s = warm.find(skey, k.prog);
  ASSERT_NE(s, nullptr);
  EXPECT_TRUE(s->sampled);
  EXPECT_EQ(s->t1, 4u);
  EXPECT_EQ(s->c1, 1000u);
  EXPECT_EQ(s->t2, 8u);
  EXPECT_EQ(s->c2, 1900u);
  EXPECT_EQ(s->blocks_sampled, 16u);
  const tune::Measurement* f = warm.find(fkey, k.prog);
  ASSERT_NE(f, nullptr);
  EXPECT_FALSE(f->sampled);
  EXPECT_EQ(f->cycles, 123'456'789u);
  EXPECT_EQ(f->blocks, 32u);
  EXPECT_EQ(warm.hits(), 2u);
  std::remove(path.c_str());
}

TEST(TuningCacheTest, LoadMergeKeepsExistingEntries) {
  const gravit::BuiltKernel k = kernel(layout::SchemeKind::kSoAoaS);
  const tune::CacheKey key = key_for(k.prog);

  tune::TuningCache disk;
  tune::Measurement stale = sampled_measurement();
  stale.c2 = 111;
  disk.insert(key, k.prog, stale);
  const std::string path = temp_path("tune_cache_merge.json");
  ASSERT_TRUE(disk.save(path));

  tune::TuningCache cache;
  tune::Measurement fresh = sampled_measurement();
  fresh.c2 = 222;
  cache.insert(key, k.prog, fresh);
  ASSERT_TRUE(cache.load(path));
  EXPECT_EQ(cache.size(), 1u);
  const tune::Measurement* m = cache.find(key, k.prog);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->c2, 222u);  // in-memory entry wins over the disk copy
  std::remove(path.c_str());
}

TEST(TuningCacheTest, LoadRejectsGarbage) {
  tune::TuningCache cache;
  EXPECT_FALSE(cache.load(temp_path("tune_cache_does_not_exist.json")));

  const std::string bad = temp_path("tune_cache_bad.json");
  std::ofstream(bad) << "this is not json {{";
  EXPECT_FALSE(cache.load(bad));

  const std::string wrong = temp_path("tune_cache_wrong_schema.json");
  std::ofstream(wrong) << "{\"schema\": \"vgpu-bench\", \"entries\": []}";
  EXPECT_FALSE(cache.load(wrong));

  EXPECT_EQ(cache.size(), 0u);
  std::remove(bad.c_str());
  std::remove(wrong.c_str());

  // Numbers a cache entry cannot hold, each behind one valid entry: an
  // infinite cycle count, a fractional tile count, and an SM count past 32
  // bits (it would narrow to key sim_sms = 1). The load fails and merges
  // neither entry.
  const auto entry = [](const std::string& hash, const std::string& field,
                        const std::string& value) {
    std::string fields[][2] = {
        {"sim_sms", "1"}, {"max_waves", "0"}, {"sample_tiles", "0"},
        {"n_tiles", "4"}, {"t1", "0"},        {"c1", "0"},
        {"t2", "0"},      {"c2", "0"},        {"blocks_sampled", "0"},
        {"cycles", "100"}, {"blocks", "8"}};
    std::string out = "{\"program_hash\": \"" + hash +
                      "\", \"device_hash\": \"0x2\", \"driver\": "
                      "\"cuda10\", \"sampled\": false";
    for (const auto& f : fields) {
      out += ", \"" + f[0] + "\": " + (f[0] == field ? value : f[1]);
    }
    return out + "}";
  };
  for (const auto& [field, value] :
       {std::pair<std::string, std::string>{"cycles", "1e999"},
        {"n_tiles", "2.5"},
        {"sim_sms", "4294967297"}}) {
    const std::string path = temp_path("tune_cache_bad_number.json");
    std::ofstream(path) << "{\"schema\": \"vgpu-tune-cache\", \"entries\": ["
                        << entry("0x1", "", "") << ", "
                        << entry("0x3", field, value) << "]}";
    EXPECT_FALSE(cache.load(path)) << field << " = " << value;
    EXPECT_EQ(cache.size(), 0u) << field << " = " << value;
    std::remove(path.c_str());
  }
  // the valid entry alone loads
  const std::string good = temp_path("tune_cache_one_entry.json");
  std::ofstream(good) << "{\"schema\": \"vgpu-tune-cache\", \"entries\": ["
                      << entry("0x1", "", "") << "]}";
  EXPECT_TRUE(cache.load(good));
  EXPECT_EQ(cache.size(), 1u);
  std::remove(good.c_str());
}

TEST(TuningCacheTest, SaveFailsOnUnwritablePath) {
  const gravit::BuiltKernel k = kernel(layout::SchemeKind::kSoAoaS);
  tune::TuningCache cache;
  cache.insert(key_for(k.prog), k.prog, sampled_measurement());
  EXPECT_FALSE(cache.save("/nonexistent-dir/tune_cache.json"));
}

}  // namespace
