// Snapshot/recording tests: byte-exact round trips, corruption rejection,
// trajectory bookkeeping.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>
#include <string>

#include "gravit/integrator.hpp"
#include "gravit/snapshot.hpp"
#include "gravit/spawn.hpp"
#include "vgpu/check.hpp"

namespace gravit {
namespace {

TEST(Snapshot, StreamRoundTripIsBitExact) {
  const ParticleSet set = spawn_plummer(321, 1.0f, 201);
  std::stringstream ss;
  write_snapshot(set, ss);
  const ParticleSet back = read_snapshot(ss);
  ASSERT_EQ(back.size(), set.size());
  for (std::size_t k = 0; k < set.size(); ++k) {
    EXPECT_EQ(back.pos()[k].x, set.pos()[k].x);
    EXPECT_EQ(back.vel()[k].z, set.vel()[k].z);
    EXPECT_EQ(back.mass()[k], set.mass()[k]);
  }
}

TEST(Snapshot, FileRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() / "gcm_snapshot_test.grv";
  const ParticleSet set = spawn_disk(99, 1.0f, 203);
  save_snapshot(set, path);
  const ParticleSet back = load_snapshot(path);
  EXPECT_EQ(back.size(), set.size());
  EXPECT_EQ(back.pos()[42].y, set.pos()[42].y);
  std::filesystem::remove(path);
}

TEST(Snapshot, RejectsCorruptInput) {
  std::stringstream bad1("nope");
  EXPECT_THROW((void)read_snapshot(bad1), vgpu::ContractViolation);

  // valid magic, truncated payload
  std::stringstream bad2;
  write_snapshot(spawn_uniform_cube(8), bad2);
  std::string data = bad2.str();
  data.resize(data.size() - 10);
  std::stringstream bad3(data);
  EXPECT_THROW((void)read_snapshot(bad3), vgpu::ContractViolation);
}

// A 12-byte stream whose header claims 2^31 particles (56 GiB of payload)
// must be rejected as truncated, not sized into an allocation. It is read
// in a forked child whose address space is capped at 1 GiB, so an
// allocation sized from the header fails there as bad_alloc instead of
// taxing the host. Sanitizer runtimes reserve more address space than the
// cap, so the sanitizer test presets leave this suite out.
TEST(Snapshot, HeaderCannotSizeTheAllocation) {
  std::string bytes = "GRV1";
  const std::uint64_t n = std::uint64_t{1} << 31;
  bytes.append(reinterpret_cast<const char*>(&n), sizeof(n));
  ASSERT_EQ(bytes.size(), 12u);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const rlimit cap{rlim_t{1} << 30, rlim_t{1} << 30};
    int code = 0;
    if (setrlimit(RLIMIT_AS, &cap) != 0) _exit(6);
    try {
      std::istringstream is(bytes);
      (void)read_snapshot(is);
      code = 1;
    } catch (const vgpu::ContractViolation& e) {
      code = std::string(e.what()).find("truncated snapshot") == std::string::npos
                 ? 2
                 : 0;
    } catch (const std::bad_alloc&) {
      code = 3;
    } catch (...) {
      code = 4;
    }
    _exit(code);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child ended by signal";
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "1: accepted, 2: another contract violation, 3: bad_alloc, "
         "4: another exception, 6: setrlimit failed";
}

TEST(Snapshot, CsvExportHasHeaderAndRows) {
  const auto path = std::filesystem::temp_directory_path() / "gcm_csv_test.csv";
  export_csv(spawn_uniform_cube(5), path);
  std::ifstream is(path);
  std::string line;
  std::size_t rows = 0;
  std::getline(is, line);
  EXPECT_EQ(line, "px,py,pz,vx,vy,vz,mass");
  while (std::getline(is, line)) ++rows;
  EXPECT_EQ(rows, 5u);
  std::filesystem::remove(path);
}

TEST(TrajectoryRecorderTest, TracksConservationOverARun) {
  ParticleSet set = spawn_plummer(96, 1.0f, 207);
  TrajectoryRecorder rec;
  AccelFn accel = [](const ParticleSet& s) { return farfield_direct(s); };
  rec.record(0.0, set);
  for (int step = 1; step <= 10; ++step) {
    step_leapfrog(set, accel, 0.005f);
    rec.record(step * 0.005, set);
  }
  EXPECT_EQ(rec.samples().size(), 11u);
  EXPECT_LT(rec.max_momentum_drift(), 1e-4);
  const double e0 = std::abs(rec.samples().front().energy.total());
  EXPECT_LT(rec.max_energy_drift(), 0.02 * e0 + 1e-6);

  const auto path =
      std::filesystem::temp_directory_path() / "gcm_trajectory_test.csv";
  rec.export_csv(path);
  std::ifstream is(path);
  std::string header;
  std::getline(is, header);
  EXPECT_NE(header.find("kinetic"), std::string::npos);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace gravit
