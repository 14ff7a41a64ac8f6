// bench_compare - diff two bench --json records.
//
// Compares a candidate record against a baseline record (both written by
// bench_util's --json export) table by table, matching tables by title,
// rows by their first cell and columns by header. A table may repeat a
// first cell (sim_throughput's fast-vs-reference table has a functional and
// a timing row per workload), so the k-th baseline row with a given first
// cell is compared with the k-th candidate row with that cell. Two column
// classes are enforced:
//
//   * headers containing "cycles" are simulator *results* and must match
//     exactly - any drift means the model (or the fast path's
//     cycle-identity invariant) changed;
//   * headers containing "wall" are host timings and may regress by at
//     most --max-wall-regress percent (default 20; faster is always fine).
//
// A third, opt-in class supports estimate-vs-reference comparisons (e.g.
// fig12_gravit_runtimes --verify, sampled vs full simulation): headers
// containing the --approx-col substring must agree within --approx-tol
// percent two-sided (default 10) - the candidate is an approximation of
// the baseline, so being "faster" is just as wrong as being slower.
//
// Other columns are informational and ignored. Rows, columns or tables
// present in the baseline but missing from the candidate fail the
// comparison. Exit
// code 0 = within tolerance, 1 = drift/regression/missing data, 2 = usage
// or unreadable input.
//
//   bench_compare <baseline.json> <candidate.json>
//       [--max-wall-regress=<pct>] [--approx-col=<substr>]
//       [--approx-tol=<pct>]
//   bench_compare --baseline=<file> <candidate.json> [flags]
//   bench_compare --save-baseline=<file> <fresh.json>
//
// --baseline=<file> names the baseline by flag (the form the ctest
// regression gates use with the records committed under bench/baselines/).
// --save-baseline=<file> is the update path: it validates the fresh record
// (parse + schema check) and then copies it byte-for-byte to <file>, so a
// truncated or hand-mangled record can never become the committed
// baseline.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/json.hpp"

namespace {

using telemetry::JsonValue;

std::optional<JsonValue> load(const char* path) {
  std::ifstream is(path);
  if (!is) {
    std::fprintf(stderr, "bench_compare: cannot read %s\n", path);
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  std::optional<JsonValue> doc = JsonValue::parse(buf.str());
  if (!doc || !doc->is_object()) {
    std::fprintf(stderr, "bench_compare: %s is not a JSON object\n", path);
    return std::nullopt;
  }
  const JsonValue* schema = doc->find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "vgpu-bench") {
    std::fprintf(stderr, "bench_compare: %s is not a vgpu-bench record\n",
                 path);
    return std::nullopt;
  }
  return doc;
}

std::string cell(const JsonValue& row, std::size_t c) {
  if (c >= row.size()) return "";
  const JsonValue& v = row.at(c);
  return v.is_string() ? v.as_string() : v.dump();
}

std::optional<double> to_number(const std::string& s) {
  if (s.empty()) return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str()) return std::nullopt;
  return v;
}

const JsonValue* find_table(const JsonValue& record, const std::string& title) {
  const JsonValue* tables = record.find("tables");
  if (tables == nullptr || !tables->is_array()) return nullptr;
  for (const JsonValue& t : tables->items()) {
    const JsonValue* tt = t.find("title");
    if (tt != nullptr && tt->is_string() && tt->as_string() == title) return &t;
  }
  return nullptr;
}

/// The `nth` (0-based) row of `table` whose first cell is `key`.
const JsonValue* find_row(const JsonValue& table, const std::string& key,
                          std::size_t nth) {
  const JsonValue* rows = table.find("rows");
  if (rows == nullptr || !rows->is_array()) return nullptr;
  for (const JsonValue& r : rows->items()) {
    if (!r.is_array() || cell(r, 0) != key) continue;
    if (nth == 0) return &r;
    --nth;
  }
  return nullptr;
}

struct Compare {
  double max_wall_regress = 20.0;  // percent
  std::string approx_col;          // empty = no approximate columns
  double approx_tol = 10.0;        // percent, two-sided
  int checked = 0;
  int failures = 0;

  void fail(const std::string& what) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }

  void compare_cell(const std::string& where, const std::string& header,
                    const std::string& row_key, const std::string& base,
                    const std::string& cand) {
    const bool col_cycles = header.find("cycles") != std::string::npos;
    const bool col_wall = header.find("wall") != std::string::npos;
    const bool col_approx = !approx_col.empty() &&
                            header.find(approx_col) != std::string::npos;
    // A row labeled "host" holds host measurements even where the column
    // class would demand exactness (e.g. fig12's "CPU serial (host ms)"
    // row inside the simulated-ms table): its checkable cells get the
    // one-sided wall tolerance instead. Informational columns stay
    // informational.
    const bool host_row = row_key.find("host") != std::string::npos;
    const bool is_cycles = col_cycles && !host_row;
    const bool is_wall = col_wall || (host_row && (col_cycles || col_approx));
    const bool is_approx = col_approx && !is_cycles && !is_wall;
    if (!is_cycles && !is_wall && !is_approx) return;
    ++checked;
    if (is_cycles) {
      // exact: a cycle count is a simulator result, not a measurement
      if (base != cand) {
        fail(where + " [" + header + "]: cycle drift " + base + " -> " + cand);
      }
      return;
    }
    const std::optional<double> b = to_number(base);
    const std::optional<double> c = to_number(cand);
    if (!b || !c) {
      fail(where + " [" + header + "]: non-numeric " +
           (is_wall ? "wall" : "approximate") + " cell");
      return;
    }
    if (is_approx) {
      // two-sided: the candidate estimates the baseline
      const double limit =
          approx_tol / 100.0 * std::max(std::abs(*b), 1e-12);
      if (std::abs(*c - *b) > limit) {
        fail(where + " [" + header + "]: estimate " + cand + " vs reference " +
             base + " (> " + std::to_string(approx_tol) + "% off)");
      }
      return;
    }
    if (*b > 0.0 && *c > *b * (1.0 + max_wall_regress / 100.0)) {
      fail(where + " [" + header + "]: wall regression " + base + " -> " +
           cand + " ms (> " + std::to_string(max_wall_regress) + "%)");
    }
  }

  void compare_table(const JsonValue& base_t, const JsonValue* cand_t,
                     const std::string& title) {
    if (cand_t == nullptr) {
      fail("table \"" + title + "\" missing from candidate");
      return;
    }
    const JsonValue* headers = base_t.find("headers");
    const JsonValue* rows = base_t.find("rows");
    if (headers == nullptr || rows == nullptr || !rows->is_array()) return;
    // Columns match by header, so a candidate that drops or reorders
    // columns is still compared like with like; a baseline column the
    // candidate lacks fails once. Cells past the headers (ragged rows)
    // match by position.
    const JsonValue* cand_headers = cand_t->find("headers");
    constexpr std::size_t kMissing = static_cast<std::size_t>(-1);
    std::vector<std::size_t> col(headers->size(), kMissing);
    for (std::size_t c = 1; c < headers->size(); ++c) {
      const std::string h = cell(*headers, c);
      for (std::size_t k = 0; cand_headers != nullptr && k < cand_headers->size();
           ++k) {
        if (cell(*cand_headers, k) == h) {
          col[c] = k;
          break;
        }
      }
      if (col[c] == kMissing) {
        fail("column \"" + h + "\" missing from candidate table \"" + title +
             "\"");
      }
    }
    std::map<std::string, std::size_t> seen;  // baseline rows per first cell
    for (const JsonValue& row : rows->items()) {
      if (!row.is_array() || row.size() == 0) continue;
      const std::string key = cell(row, 0);
      const std::size_t nth = seen[key]++;
      const std::string label =
          "\"" + key + "\"" + (nth > 0 ? " #" + std::to_string(nth + 1) : "");
      const JsonValue* cand_row = find_row(*cand_t, key, nth);
      if (cand_row == nullptr) {
        fail("row " + label + " missing from candidate table \"" + title +
             "\"");
        continue;
      }
      for (std::size_t c = 1; c < row.size(); ++c) {
        std::string header;
        std::size_t k = c;
        if (c < headers->size()) {
          if (col[c] == kMissing) continue;
          header = cell(*headers, c);
          k = col[c];
        }
        compare_cell("\"" + title + "\" / " + label, header, key,
                     cell(row, c), cell(*cand_row, k));
      }
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  double max_wall_regress = 20.0;
  std::string approx_col;
  std::string baseline_path;
  std::string save_path;
  double approx_tol = 10.0;
  std::vector<const char*> paths;
  for (int a = 1; a < argc; ++a) {
    if (std::strncmp(argv[a], "--max-wall-regress=", 19) == 0) {
      max_wall_regress = std::strtod(argv[a] + 19, nullptr);
    } else if (std::strncmp(argv[a], "--approx-col=", 13) == 0) {
      approx_col = argv[a] + 13;
    } else if (std::strncmp(argv[a], "--approx-tol=", 13) == 0) {
      approx_tol = std::strtod(argv[a] + 13, nullptr);
    } else if (std::strncmp(argv[a], "--baseline=", 11) == 0) {
      baseline_path = argv[a] + 11;
    } else if (std::strncmp(argv[a], "--save-baseline=", 16) == 0) {
      save_path = argv[a] + 16;
    } else {
      paths.push_back(argv[a]);
    }
  }
  if (!baseline_path.empty()) paths.insert(paths.begin(), baseline_path.c_str());

  if (!save_path.empty()) {
    // Update path: validate the fresh record, then copy it verbatim.
    if (paths.size() != 1) {
      std::fprintf(stderr,
                   "usage: bench_compare --save-baseline=<file> <fresh.json>\n");
      return 2;
    }
    if (!load(paths[0])) return 2;
    std::ifstream is(paths[0], std::ios::binary);
    std::ofstream os(save_path, std::ios::binary);
    if (!os) {
      std::fprintf(stderr, "bench_compare: cannot write %s\n",
                   save_path.c_str());
      return 2;
    }
    os << is.rdbuf();
    std::printf("bench_compare: saved baseline %s -> %s\n", paths[0],
                save_path.c_str());
    return 0;
  }

  if (paths.size() != 2) {
    std::fprintf(stderr,
                 "usage: bench_compare <baseline.json> <candidate.json> "
                 "[--baseline=<file>] [--max-wall-regress=<pct>] "
                 "[--approx-col=<substr>] [--approx-tol=<pct>] | "
                 "bench_compare --save-baseline=<file> <fresh.json>\n");
    return 2;
  }
  const std::optional<JsonValue> base = load(paths[0]);
  const std::optional<JsonValue> cand = load(paths[1]);
  if (!base || !cand) return 2;

  Compare cmp;
  cmp.max_wall_regress = max_wall_regress;
  cmp.approx_col = approx_col;
  cmp.approx_tol = approx_tol;
  const JsonValue* base_tables = base->find("tables");
  if (base_tables == nullptr || !base_tables->is_array() ||
      base_tables->size() == 0) {
    std::fprintf(stderr, "bench_compare: baseline has no tables\n");
    return 2;
  }
  for (const JsonValue& t : base_tables->items()) {
    const JsonValue* tt = t.find("title");
    if (tt == nullptr || !tt->is_string()) continue;
    cmp.compare_table(t, find_table(*cand, tt->as_string()), tt->as_string());
  }

  // informational: whole-process host wall from the records
  const JsonValue* bw = base->find("host_wall_ms");
  const JsonValue* cw = cand->find("host_wall_ms");
  if (bw != nullptr && cw != nullptr && bw->is_number() && cw->is_number()) {
    std::printf("host_wall_ms: baseline %.1f, candidate %.1f\n",
                bw->as_number(), cw->as_number());
  }

  if (cmp.failures > 0) {
    std::fprintf(stderr, "bench_compare: %d failure(s) over %d checked cells\n",
                 cmp.failures, cmp.checked);
    return 1;
  }
  std::printf("bench_compare: ok (%d cells checked, wall tolerance %.0f%%)\n",
              cmp.checked, max_wall_regress);
  return 0;
}
