#include "spans.hpp"

#include <stdexcept>

namespace perfbench {

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

void Tracer::begin_unit(const std::string& label, bool is_op) {
  if (!enabled_) return;
  if (unit_ >= 0) throw std::logic_error("perfbench: nested unit " + label);
  units_.push_back(Unit{label, is_op, -1, {}});
  unit_ = static_cast<int>(units_.size()) - 1;
  units_.back().root = open("bench", is_op ? "operation" : "setup");
}

void Tracer::end_unit() {
  if (unit_ < 0) return;  // the unit was opened while disabled
  close(units_[static_cast<std::size_t>(unit_)].root);
  unit_ = -1;
}

int Tracer::open(const char* layer, const char* name) {
  if (unit_ < 0) throw std::logic_error("perfbench: span outside a unit");
  Span s;
  s.layer = layer;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.unit = unit_;
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::close(int span) {
  if (stack_.empty() || stack_.back() != span) {
    throw std::logic_error("perfbench: spans closed out of order");
  }
  spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
  stack_.pop_back();
}

void Tracer::count(const std::string& key, double v) {
  if (!enabled_ || unit_ < 0) return;
  units_[static_cast<std::size_t>(unit_)].counts[key] += v;
}

std::vector<std::int64_t> Tracer::self_ns() const {
  // Spans nest strictly (stack discipline) and siblings never overlap, so
  // the time children cover is the sum of their durations.
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    self[k] += spans_[k].end_ns - spans_[k].start_ns;
    if (spans_[k].parent >= 0) {
      self[static_cast<std::size_t>(spans_[k].parent)] -=
          spans_[k].end_ns - spans_[k].start_ns;
    }
  }
  return self;
}

telemetry::JsonValue Tracer::chrome_trace() const {
  using telemetry::JsonValue;
  JsonValue events = JsonValue::array();
  JsonValue meta = JsonValue::object();
  meta["name"] = "process_name";
  meta["ph"] = "M";
  meta["pid"] = 1;
  meta["tid"] = 1;
  meta["args"]["name"] = "perfbench host calls";
  events.push_back(std::move(meta));
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    const Span& s = spans_[k];
    JsonValue e = JsonValue::object();
    e["name"] = s.name;
    e["cat"] = s.layer;
    e["ph"] = "X";
    e["ts"] = static_cast<double>(s.start_ns) / 1e3;
    e["dur"] = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    e["pid"] = 1;
    e["tid"] = 1;
    JsonValue& args = e["args"];
    args["span"] = static_cast<std::uint64_t>(k);
    args["parent"] = s.parent;
    args["unit"] = units_[static_cast<std::size_t>(s.unit)].label;
    events.push_back(std::move(e));
  }
  JsonValue doc = JsonValue::object();
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  return doc;
}

}  // namespace perfbench
