#include "bench_util.hpp"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>

#include "layout/microbench.hpp"
#include "layout/transform.hpp"
#include "vgpu/device.hpp"

namespace bench {

namespace {

/// Static-init timestamp, close enough to process start that the exported
/// host_wall_ms covers the whole measurement run.
const std::chrono::steady_clock::time_point g_bench_start =
    std::chrono::steady_clock::now();

/// Tables printed by this process, in print order, for the --json export.
struct Report {
  std::vector<telemetry::JsonValue> tables;
  telemetry::JsonValue summary = telemetry::JsonValue::object();
};

Report& report() {
  static Report r;
  return r;
}

/// Control characters would break both the column alignment and the
/// surrounding text format; map them to spaces before measuring widths.
std::string sanitize(const std::string& cell) {
  std::string out = cell;
  for (char& c : out) {
    if (static_cast<unsigned char>(c) < 0x20) c = ' ';
  }
  return out;
}

}  // namespace

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void Table::print(const std::string& title, const std::string& note) const {
  // widths span the widest row, not just the header row, so ragged rows
  // (more cells than headers) stay aligned instead of reading out of range
  std::size_t columns = headers_.size();
  for (const auto& row : rows_) columns = std::max(columns, row.size());
  std::vector<std::size_t> width(columns, 0);
  auto measure = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], sanitize(row[c]).size());
    }
  };
  measure(headers_);
  for (const auto& row : rows_) measure(row);

  std::printf("\n=== %s ===\n", title.c_str());
  if (!note.empty()) std::printf("%s\n", note.c_str());
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      std::printf("%-*s  ", static_cast<int>(width[c]),
                  sanitize(row[c]).c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  std::size_t total = 0;
  for (std::size_t w : width) total += w + 2;
  std::printf("%s\n", std::string(total, '-').c_str());
  for (const auto& row : rows_) print_row(row);

  report().tables.push_back(to_json(title, note));
}

telemetry::JsonValue Table::to_json(const std::string& title,
                                    const std::string& note) const {
  telemetry::JsonValue t = telemetry::JsonValue::object();
  t["title"] = title;
  if (!note.empty()) t["note"] = note;
  // build the arrays locally: holding a reference returned by operator[]
  // across another operator[] insertion dangles when the field vector grows
  telemetry::JsonValue headers = telemetry::JsonValue::array();
  for (const std::string& h : headers_) headers.push_back(h);
  telemetry::JsonValue rows = telemetry::JsonValue::array();
  telemetry::JsonValue records = telemetry::JsonValue::array();
  for (const auto& row : rows_) {
    telemetry::JsonValue r = telemetry::JsonValue::array();
    for (const std::string& cell : row) r.push_back(cell);
    rows.push_back(std::move(r));
    // flat self-describing form: one object per row keyed by header
    telemetry::JsonValue rec = telemetry::JsonValue::object();
    for (std::size_t c = 0; c < row.size(); ++c) {
      const std::string key =
          c < headers_.size() ? headers_[c] : "col" + std::to_string(c);
      rec[key] = row[c];
    }
    records.push_back(std::move(rec));
  }
  t["headers"] = std::move(headers);
  t["rows"] = std::move(rows);
  t["records"] = std::move(records);
  return t;
}

int bench_main(int argc, char** argv, const BenchInfo& info) {
  std::string json_path;
  int out = 1;  // keep argv[0]
  for (int a = 1; a < argc; ++a) {
    if (std::strncmp(argv[a], "--json=", 7) == 0) {
      json_path = argv[a] + 7;
    } else {
      argv[out++] = argv[a];
    }
  }
  argc = out;

  // Whatever the benchmark library does not recognise is a typo or a flag
  // that no longer exists: refuse it before a record is written, so a
  // stale command line cannot pass for a default-mode run.
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 2;

  if (!json_path.empty()) {
    telemetry::JsonValue root = telemetry::JsonValue::object();
    root["schema"] = "vgpu-bench";
    root["schema_version"] = 1;
    root["bench"] = info.name;
    root["kernel"] = info.kernel;
    root["metric"] = info.metric;
    root["host_wall_ms"] = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - g_bench_start)
                               .count();
    telemetry::JsonValue& tables = root["tables"];
    tables = telemetry::JsonValue::array();
    for (const telemetry::JsonValue& t : report().tables) tables.push_back(t);
    if (!report().summary.members().empty()) {
      root["summary"] = report().summary;
    }
    std::ofstream os(json_path);
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    root.write(os, 1);
    os << "\n";
  }

  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

void add_summary(const std::string& key, telemetry::JsonValue value) {
  report().summary[key] = std::move(value);
}

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

ReadBenchResult run_read_benchmark(layout::SchemeKind scheme,
                                   vgpu::DriverModel driver, std::uint32_t n,
                                   std::uint32_t block) {
  const layout::PhysicalLayout phys =
      layout::plan_layout(layout::gravit_record(), scheme);
  const vgpu::Program prog = layout::make_read_kernel(phys);

  std::vector<float> data(static_cast<std::size_t>(n) * 7);
  for (std::size_t k = 0; k < data.size(); ++k) {
    data[k] = static_cast<float>(k % 101) * 0.01f;
  }
  const std::vector<std::byte> image = layout::pack(phys, data, n);

  vgpu::Device dev;
  vgpu::Buffer img = dev.malloc(image.size());
  dev.memcpy_h2d(img, image);
  vgpu::Buffer out = dev.malloc(static_cast<std::size_t>(n) * 8);
  std::vector<std::uint32_t> params;
  for (const std::uint64_t base : phys.group_bases(n)) {
    params.push_back(img.addr + static_cast<std::uint32_t>(base));
  }
  params.push_back(out.addr);

  vgpu::TimingOptions topt;
  topt.driver = driver;
  ReadBenchResult res;
  res.stats = dev.launch_timed(prog, vgpu::LaunchConfig{n / block, block}, params,
                               topt);
  std::vector<std::uint32_t> raw(static_cast<std::size_t>(n) * 2);
  dev.download<std::uint32_t>(raw, out);
  double total = 0.0;
  for (std::uint32_t k = 0; k < n; ++k) total += raw[n + k];
  res.avg_cycles_per_element =
      total / static_cast<double>(n) /
      static_cast<double>(layout::gravit_record().num_fields());
  return res;
}

Fig10Reference fig10_reference(vgpu::DriverModel driver) {
  // Values read off the published Fig. 10 plot (approximate).
  switch (driver) {
    case vgpu::DriverModel::kCuda10: return {490, 480, 440, 355, 325};
    case vgpu::DriverModel::kCuda11: return {300, 300, 295, 290, 285};
    case vgpu::DriverModel::kCuda22: return {450, 440, 400, 355, 345};
  }
  return {0, 0, 0, 0, 0};
}

}  // namespace bench
