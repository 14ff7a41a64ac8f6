#include "gravit/snapshot.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <optional>

#include "vgpu/check.hpp"

namespace gravit {

namespace {
constexpr char kMagic[4] = {'G', 'R', 'V', '1'};

/// Floats read per chunk: the payload buffer grows only as the stream
/// delivers data, whatever the header claims.
constexpr std::size_t kChunkFloats = std::size_t{1} << 20;

/// Bytes left in `is`, or nullopt when the stream cannot seek.
std::optional<std::uint64_t> remaining_bytes(std::istream& is) {
  const std::istream::pos_type here = is.tellg();
  if (here == std::istream::pos_type(-1)) return std::nullopt;
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end = is.tellg();
  is.clear();
  is.seekg(here);
  if (end == std::istream::pos_type(-1) || !is) return std::nullopt;
  return static_cast<std::uint64_t>(end - here);
}
}  // namespace

void write_snapshot(const ParticleSet& set, std::ostream& os) {
  os.write(kMagic, 4);
  const std::uint64_t n = set.size();
  os.write(reinterpret_cast<const char*>(&n), sizeof(n));
  const std::vector<float> flat = set.flatten();
  os.write(reinterpret_cast<const char*>(flat.data()),
           static_cast<std::streamsize>(flat.size() * sizeof(float)));
  VGPU_ENSURES_MSG(os.good(), "snapshot write failed");
}

ParticleSet read_snapshot(std::istream& is) {
  char magic[4] = {};
  is.read(magic, 4);
  VGPU_EXPECTS_MSG(is.good() && std::memcmp(magic, kMagic, 4) == 0,
                   "not a GRV1 snapshot");
  std::uint64_t n = 0;
  is.read(reinterpret_cast<char*>(&n), sizeof(n));
  VGPU_EXPECTS_MSG(is.good() && n < (1ull << 32), "corrupt snapshot header");
  // The header alone must not size an allocation: check that the payload
  // is there before reading it, and read it in bounded chunks.
  const std::uint64_t floats = n * 7;
  const std::optional<std::uint64_t> left = remaining_bytes(is);
  VGPU_EXPECTS_MSG(!left || *left >= floats * sizeof(float),
                   "truncated snapshot");
  std::vector<float> flat;
  while (flat.size() < floats) {
    const std::size_t chunk = static_cast<std::size_t>(
        std::min<std::uint64_t>(kChunkFloats, floats - flat.size()));
    flat.resize(flat.size() + chunk);
    is.read(reinterpret_cast<char*>(flat.data() + flat.size() - chunk),
            static_cast<std::streamsize>(chunk * sizeof(float)));
    VGPU_EXPECTS_MSG(is.good(), "truncated snapshot");
  }
  return ParticleSet::unflatten(flat);
}

void save_snapshot(const ParticleSet& set, const std::filesystem::path& path) {
  std::ofstream os(path, std::ios::binary);
  VGPU_EXPECTS_MSG(os.is_open(), "cannot open snapshot for writing: " + path.string());
  write_snapshot(set, os);
}

ParticleSet load_snapshot(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  VGPU_EXPECTS_MSG(is.is_open(), "cannot open snapshot: " + path.string());
  return read_snapshot(is);
}

void export_csv(const ParticleSet& set, const std::filesystem::path& path) {
  std::ofstream os(path);
  VGPU_EXPECTS_MSG(os.is_open(), "cannot open csv for writing: " + path.string());
  os << "px,py,pz,vx,vy,vz,mass\n";
  for (std::size_t k = 0; k < set.size(); ++k) {
    const Vec3 p = set.pos()[k];
    const Vec3 v = set.vel()[k];
    os << p.x << ',' << p.y << ',' << p.z << ',' << v.x << ',' << v.y << ','
       << v.z << ',' << set.mass()[k] << '\n';
  }
  VGPU_ENSURES_MSG(os.good(), "csv write failed");
}

void TrajectoryRecorder::record(double time, const ParticleSet& set,
                                float softening) {
  Sample s;
  s.time = time;
  s.energy = energy(set, softening);
  s.momentum = total_momentum(set);
  s.angular_momentum = total_angular_momentum(set);
  s.com = center_of_mass(set);
  samples_.push_back(s);
}

double TrajectoryRecorder::max_energy_drift() const {
  if (samples_.size() < 2) return 0.0;
  const double e0 = samples_.front().energy.total();
  double drift = 0.0;
  for (const Sample& s : samples_) {
    drift = std::max(drift, std::abs(s.energy.total() - e0));
  }
  return drift;
}

double TrajectoryRecorder::max_momentum_drift() const {
  if (samples_.size() < 2) return 0.0;
  const Vec3 p0 = samples_.front().momentum;
  double drift = 0.0;
  for (const Sample& s : samples_) {
    drift = std::max(drift, static_cast<double>((s.momentum - p0).norm()));
  }
  return drift;
}

void TrajectoryRecorder::export_csv(const std::filesystem::path& path) const {
  std::ofstream os(path);
  VGPU_EXPECTS_MSG(os.is_open(), "cannot open csv for writing: " + path.string());
  os << "time,kinetic,potential,total,px,py,pz,lx,ly,lz\n";
  for (const Sample& s : samples_) {
    os << s.time << ',' << s.energy.kinetic << ',' << s.energy.potential << ','
       << s.energy.total() << ',' << s.momentum.x << ',' << s.momentum.y << ','
       << s.momentum.z << ',' << s.angular_momentum.x << ','
       << s.angular_momentum.y << ',' << s.angular_momentum.z << '\n';
  }
  VGPU_ENSURES_MSG(os.good(), "csv write failed");
}

}  // namespace gravit
