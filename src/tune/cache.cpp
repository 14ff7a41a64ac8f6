#include "tune/cache.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "telemetry/json.hpp"
#include "tune/space.hpp"

namespace tune {

namespace {

/// FNV-1a folded field by field (raw struct bytes would hash padding).
class Fnv {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u32(std::uint32_t v) { u64(v); }
  void str(const std::string& s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void byte(std::uint8_t v) {
    h_ ^= v;
    h_ *= 0x100000001b3ull;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

bool parse_hex64(const std::string& s, std::uint64_t* out) {
  if (s.size() < 3 || s[0] != '0' || s[1] != 'x') return false;
  const char* first = s.data() + 2;
  const char* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(first, last, *out, 16);
  return ec == std::errc{} && ptr == last;
}

bool driver_from_name(const std::string& s, vgpu::DriverModel* out) {
  for (const vgpu::DriverModel m :
       {vgpu::DriverModel::kCuda10, vgpu::DriverModel::kCuda11,
        vgpu::DriverModel::kCuda22}) {
    if (s == driver_name(m)) {
      *out = m;
      return true;
    }
  }
  return false;
}

/// Reads a non-negative integer field of at most `max`. JSON numbers parse
/// as doubles, so anything else - infinity, NaN, a fraction, or a value past
/// 2^53, where doubles stop holding every integer - is rejected before the
/// conversion, which would otherwise be undefined or silently truncate.
bool read_uint(const telemetry::JsonValue& obj, const char* key,
               std::uint64_t max, std::uint64_t* out) {
  constexpr double kExactLimit = 9007199254740992.0;  // 2^53
  const telemetry::JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_number()) return false;
  const double d = v->as_number();
  if (!(d >= 0.0 && d <= kExactLimit) || std::trunc(d) != d) return false;
  const auto u = static_cast<std::uint64_t>(d);
  if (u > max) return false;
  *out = u;
  return true;
}

bool read_u64(const telemetry::JsonValue& obj, const char* key,
              std::uint64_t* out) {
  return read_uint(obj, key, std::numeric_limits<std::uint64_t>::max(), out);
}

bool read_u32(const telemetry::JsonValue& obj, const char* key,
              std::uint32_t* out) {
  std::uint64_t v = 0;
  if (!read_uint(obj, key, std::numeric_limits<std::uint32_t>::max(), &v)) {
    return false;
  }
  *out = static_cast<std::uint32_t>(v);
  return true;
}

}  // namespace

std::uint64_t device_spec_hash(const vgpu::DeviceSpec& s) {
  Fnv f;
  f.str(s.name);
  f.u32(s.sm_count);
  f.u32(s.sps_per_sm);
  f.u32(s.warp_size);
  f.u32(s.half_warp);
  f.u32(s.max_threads_per_block);
  f.u32(s.max_threads_per_sm);
  f.u32(s.max_blocks_per_sm);
  f.u32(s.registers_per_sm);
  f.u32(s.shared_mem_per_sm);
  f.u32(s.shared_mem_banks);
  f.u32(s.register_alloc_unit);
  f.u32(s.shared_alloc_unit);
  f.u32(s.core_clock_khz);
  f.u32(s.pcie_bandwidth_mb_s);
  f.u32(s.pcie_latency_us);
  f.u32(s.launch_overhead_us);
  f.u32(s.dma_engines);
  const vgpu::TimingParams& t = s.timing;
  f.u32(t.global_latency_cycles);
  f.u32(t.max_outstanding_cuda10);
  f.u32(t.max_outstanding_cuda11);
  f.u32(t.max_outstanding_cuda22);
  f.u32(t.uncoalesced_latency_cuda10);
  f.u32(t.uncoalesced_latency_cuda11);
  f.u32(t.uncoalesced_latency_cuda22);
  f.u32(t.port_cycles_cuda10);
  f.u32(t.port_cycles_cuda11);
  f.u32(t.port_cycles_cuda22);
  f.u32(t.uncoalesced_port_cuda10);
  f.u32(t.uncoalesced_port_cuda11);
  f.u32(t.uncoalesced_port_cuda22);
  f.u32(t.dram_txn_overhead_mcy_cuda10);
  f.u32(t.dram_txn_overhead_mcy_cuda11);
  f.u32(t.dram_txn_overhead_mcy_cuda22);
  f.u32(t.dram_bytes_per_cycle);
  f.u32(t.dram_partitions);
  f.u32(t.partition_stride_bytes);
  f.u32(t.alu_issue_cycles);
  f.u32(t.alu_result_latency_cycles);
  f.u32(t.shared_result_latency_cycles);
  f.u32(t.shared_issue_cycles);
  f.u32(t.barrier_cycles);
  f.u32(t.grid_sync_cycles);
  f.u32(t.block_start_cycles);
  f.u32(t.tex_cache_bytes);
  f.u32(t.tex_line_bytes);
  f.u32(t.tex_hit_latency_cycles);
  f.u32(t.const_serialize_cycles);
  return f.value();
}

const Measurement* TuningCache::find(const CacheKey& key,
                                     const vgpu::Program& prog) {
  for (const Entry& e : entries_) {
    if (!(e.key == key)) continue;
    // A hash collision must degrade to a miss, never to a wrong
    // measurement; disk-restored entries (no Program copy) trust the
    // 64-bit content hash.
    if (e.prog != nullptr && !(*e.prog == prog)) break;
    ++hits_;
    return &e.value;
  }
  ++misses_;
  return nullptr;
}

void TuningCache::insert(const CacheKey& key, const vgpu::Program& prog,
                         const Measurement& m) {
  for (Entry& e : entries_) {
    if (e.key == key) {
      e.value = m;
      e.prog = std::make_shared<const vgpu::Program>(prog);
      return;
    }
  }
  entries_.push_back(
      Entry{key, m, std::make_shared<const vgpu::Program>(prog)});
}

void TuningCache::reset_counters() {
  hits_ = 0;
  misses_ = 0;
}

void TuningCache::clear() { entries_.clear(); }

bool TuningCache::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  const auto doc = telemetry::JsonValue::parse(buf.str());
  if (!doc || !doc->is_object()) return false;
  const telemetry::JsonValue* schema = doc->find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "vgpu-tune-cache") {
    return false;
  }
  const telemetry::JsonValue* entries = doc->find("entries");
  if (entries == nullptr || !entries->is_array()) return false;
  // Validate the whole file before merging any of it: a bad entry rejects
  // the load and leaves the cache as it was.
  std::vector<Entry> loaded;
  for (const telemetry::JsonValue& je : entries->items()) {
    if (!je.is_object()) return false;
    Entry e;
    const telemetry::JsonValue* ph = je.find("program_hash");
    const telemetry::JsonValue* dh = je.find("device_hash");
    const telemetry::JsonValue* dr = je.find("driver");
    const telemetry::JsonValue* sampled = je.find("sampled");
    if (ph == nullptr || !ph->is_string() ||
        !parse_hex64(ph->as_string(), &e.key.program_hash) ||
        dh == nullptr || !dh->is_string() ||
        !parse_hex64(dh->as_string(), &e.key.device_hash) ||
        dr == nullptr || !dr->is_string() ||
        !driver_from_name(dr->as_string(), &e.key.driver) ||
        sampled == nullptr || !sampled->is_bool()) {
      return false;
    }
    if (!read_u32(je, "sim_sms", &e.key.sim_sms) ||
        !read_u32(je, "max_waves", &e.key.max_waves) ||
        !read_u32(je, "sample_tiles", &e.key.sample_tiles) ||
        !read_u64(je, "n_tiles", &e.key.n_tiles)) {
      return false;
    }
    e.value.sampled = sampled->as_bool();
    if (!read_u64(je, "t1", &e.value.t1) || !read_u64(je, "c1", &e.value.c1) ||
        !read_u64(je, "t2", &e.value.t2) || !read_u64(je, "c2", &e.value.c2) ||
        !read_u64(je, "blocks_sampled", &e.value.blocks_sampled) ||
        !read_u64(je, "cycles", &e.value.cycles) ||
        !read_u64(je, "blocks", &e.value.blocks)) {
      return false;
    }
    loaded.push_back(std::move(e));
  }
  for (Entry& e : loaded) {
    const bool present =
        std::any_of(entries_.begin(), entries_.end(),
                    [&](const Entry& existing) { return existing.key == e.key; });
    if (!present) entries_.push_back(std::move(e));
  }
  return true;
}

bool TuningCache::save(const std::string& path) const {
  telemetry::JsonValue doc = telemetry::JsonValue::object();
  doc["schema"] = "vgpu-tune-cache";
  doc["schema_version"] = 1;
  telemetry::JsonValue entries = telemetry::JsonValue::array();
  for (const Entry& e : entries_) {
    telemetry::JsonValue je = telemetry::JsonValue::object();
    je["program_hash"] = hex64(e.key.program_hash);
    je["device_hash"] = hex64(e.key.device_hash);
    je["driver"] = driver_name(e.key.driver);
    je["sim_sms"] = e.key.sim_sms;
    je["max_waves"] = e.key.max_waves;
    je["sample_tiles"] = e.key.sample_tiles;
    je["n_tiles"] = e.key.n_tiles;
    je["sampled"] = e.value.sampled;
    je["t1"] = e.value.t1;
    je["c1"] = e.value.c1;
    je["t2"] = e.value.t2;
    je["c2"] = e.value.c2;
    je["blocks_sampled"] = e.value.blocks_sampled;
    je["cycles"] = e.value.cycles;
    je["blocks"] = e.value.blocks;
    entries.push_back(std::move(je));
  }
  doc["entries"] = std::move(entries);
  std::ofstream out(path);
  if (!out) return false;
  doc.write(out, 2);
  out << "\n";
  return static_cast<bool>(out);
}

}  // namespace tune
