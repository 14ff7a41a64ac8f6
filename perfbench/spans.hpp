// spans.hpp - host-time spans around the benchmark's calls into each layer.
//
// The benchmark times the simulator from outside: every call it makes into
// a layer's public functions (layout::pack, vgpu::Device::launch_timed, ...)
// runs inside a Scope, which records one span with the call's name, its
// layer, start, end and parent. Spans are grouped into units - one setup
// repetition or one measured operation - and every span of a unit carries
// the unit's label, so all spans of one operation share an operation id.
// Counts (bytes, launch statistics) are added to the open unit beside the
// spans. Everything stays in memory until the run ends; chrome_trace()
// renders it as Chrome Trace Event JSON with the repository's JSON writer.
//
// A disabled Tracer records nothing, so the untraced runs that produce the
// end-to-end metrics pay one branch per call.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string layer;  ///< module, e.g. "layout"; "bench" for unit roots
  std::string name;   ///< the public call, e.g. "layout::pack"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< enclosing span; -1 for a unit root
  int unit = -1;    ///< index into Tracer::units()
};

struct Unit {
  std::string label;  ///< "setup#k" or "op#k"
  bool is_op = false;
  int root = -1;  ///< the unit's root span
  std::map<std::string, double> counts;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Turns recording on or off between units (the traced run alternates
  /// traced and untraced operations to measure the tracing overhead).
  void set_enabled(bool on) { enabled_ = on; }

  void begin_unit(const std::string& label, bool is_op);
  void end_unit();

  [[nodiscard]] int open(const char* layer, const char* name);
  void close(int span);
  /// Adds `v` to counter `key` of the open unit.
  void count(const std::string& key, double v);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::vector<Unit>& units() const { return units_; }

  /// Per-span self time: duration minus the time its child spans cover.
  [[nodiscard]] std::vector<std::int64_t> self_ns() const;

  /// Chrome Trace Event JSON ("X" events on one host thread, args carry
  /// the span id, parent id and unit label).
  [[nodiscard]] telemetry::JsonValue chrome_trace() const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<Unit> units_;
  std::vector<int> stack_;
  int unit_ = -1;
};

/// RAII span around one call; a no-op when the tracer is disabled.
class Scope {
 public:
  Scope(Tracer& t, const char* layer, const char* name)
      : t_(t), id_(t.enabled() ? t.open(layer, name) : -1) {}
  ~Scope() {
    if (id_ >= 0) t_.close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

/// Runs `f` inside a span and returns its result.
template <class F>
decltype(auto) traced(Tracer& t, const char* layer, const char* name, F&& f) {
  const Scope s(t, layer, name);
  return std::forward<F>(f)();
}

}  // namespace perfbench
