// Chrome-trace exporter tests: the emitted document must be valid JSON
// with monotone timestamps and matched B/E pairs per track, cover every
// simulated SM, and - the cardinal sink rule - attaching the sink must not
// change the simulated cycle count.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>

#include "telemetry/chrome_trace.hpp"
#include "telemetry/json.hpp"
#include "timed_run.hpp"
#include "../vgpu/serial_golden.hpp"
#include "vgpu/stream.hpp"

namespace telemetry {
namespace {

TEST(ChromeTrace, AttachingSinkDoesNotChangeTiming) {
  const vgpu::LaunchStats bare = test::run_read_kernel(nullptr);
  ChromeTraceSink trace;
  const vgpu::LaunchStats observed = test::run_read_kernel(&trace);
  EXPECT_EQ(bare.cycles, observed.cycles);
  EXPECT_EQ(bare.warp_instructions, observed.warp_instructions);
  EXPECT_EQ(bare.global_requests, observed.global_requests);
  EXPECT_EQ(bare.global_bytes, observed.global_bytes);
  EXPECT_EQ(bare.sm_issue_cycles, observed.sm_issue_cycles);
  EXPECT_EQ(bare.sm_idle_cycles, observed.sm_idle_cycles);
  EXPECT_GT(trace.event_count(), 0u);
  EXPECT_EQ(trace.total_cycles(), bare.cycles);
}

/// Flattens every sink callback into a comparable log line.
class RecordingSink final : public vgpu::TimelineSink {
 public:
  std::vector<std::string> log;

 private:
  void on_begin(const RunInfo& i) override {
    add("begin", i.n_sms, i.warps_per_block, i.dram_partitions, i.blocks_per_sm);
  }
  void on_block(const BlockSpan& s) override {
    add("block", s.sm, s.slot, s.block_id, s.warps, s.start, s.end);
  }
  void on_issue(const IssueSpan& s) override {
    add("issue", s.sm, s.slot, s.warp, static_cast<int>(s.cls), s.start, s.end);
  }
  void on_stall(const StallSpan& s) override {
    // The reason is part of the comparable payload: the threaded replay
    // must reproduce the classification bit-for-bit, not just the window.
    add("stall", s.sm, s.start, s.end, static_cast<int>(s.reason));
  }
  void on_barrier_wait(const BarrierWait& s) override {
    add("barrier", s.sm, s.slot, s.warp, s.arrive, s.release);
  }
  void on_dram(const DramSpan& s) override {
    add("dram", s.partition, s.bytes, s.start, s.end);
  }
  void on_global_request(const GlobalRequest& s) override {
    add("greq", s.sm, s.cycle, s.coalesced ? 1 : 0, s.transactions, s.bytes);
  }
  void on_end(std::uint64_t cycles) override { add("end", cycles); }

  template <class... Args>
  void add(const char* tag, Args... args) {
    std::string line = tag;
    ((line.append(1, ' ').append(std::to_string(args))), ...);
    log.push_back(std::move(line));
  }
};

// The timing executor buffers events per SM and replays them at the end of
// the run; at every thread count the replayed stream must be the serial
// driver's recorded stream (serial_golden.hpp) - same events, same
// payloads, same order.
TEST(ChromeTrace, ThreadedRunEmitsIdenticalEventStream) {
  RecordingSink solo;
  const vgpu::LaunchStats solo_stats = test::run_read_kernel(&solo);
  EXPECT_EQ(vgpu::golden::stream_digest(solo.log),
            vgpu::golden::kReadKernelStream);
  for (const std::uint32_t threads : {2u, 4u}) {
    RecordingSink par;
    const vgpu::LaunchStats par_stats =
        test::run_read_kernel(&par, 4096, 128, threads);
    EXPECT_EQ(par_stats.cycles, solo_stats.cycles) << "threads=" << threads;
    ASSERT_EQ(par.log.size(), solo.log.size()) << "threads=" << threads;
    for (std::size_t k = 0; k < solo.log.size(); ++k) {
      ASSERT_EQ(par.log[k], solo.log[k])
          << "event " << k << " diverged, threads=" << threads;
    }
  }
}

// The far-field kernel's loop body is almost all straight-line register
// ALU runs, issued for timing only and interleaved across warps, with
// dependence stalls inside the runs and tile barriers between them - the
// issue-bound path the memory-bound read kernel barely reaches. Both
// executors must reproduce the recorded stream at every thread count.
TEST(ChromeTrace, FarfieldRunEmitsRecordedEventStream) {
  for (const bool reference : {false, true}) {
    for (const std::uint32_t threads : {1u, 2u, 4u}) {
      RecordingSink rec;
      (void)test::run_farfield_kernel(&rec, threads, reference);
      EXPECT_EQ(vgpu::golden::stream_digest(rec.log),
                vgpu::golden::kFarfieldStream)
          << "threads=" << threads << " reference=" << reference;
    }
  }
}

// A sink and an attribution table on the same launch share the stall
// classification. At every thread count the stream must still be the
// serial driver's recorded stream, and the table must reconcile, agree
// across thread counts, and equal the attribution-only run's - as must
// LaunchStats::core().
TEST(ChromeTrace, SinkAndAttributionOnOneLaunch) {
  vgpu::Attribution alone;
  const vgpu::LaunchStats alone_stats =
      test::run_read_kernel(nullptr, 4096, 128, 1, &alone);
  ASSERT_TRUE(alone.collected);
  for (const std::uint32_t threads : {1u, 2u, 4u}) {
    RecordingSink rec;
    vgpu::Attribution attr;
    const vgpu::LaunchStats stats =
        test::run_read_kernel(&rec, 4096, 128, threads, &attr);
    EXPECT_EQ(vgpu::golden::stream_digest(rec.log),
              vgpu::golden::kReadKernelStream)
        << "threads=" << threads;
    ASSERT_TRUE(attr.collected) << "threads=" << threads;
    EXPECT_TRUE(vgpu::reconciles(attr, stats)) << "threads=" << threads;
    EXPECT_TRUE(attr == alone) << "threads=" << threads;
    EXPECT_TRUE(stats.core() == alone_stats.core()) << "threads=" << threads;
  }
}

TEST(ChromeTrace, EmitsValidMonotoneMatchedTrace) {
  ChromeTraceSink trace;
  (void)test::run_read_kernel(&trace);

  const auto doc = JsonValue::parse(trace.str());
  ASSERT_TRUE(doc.has_value()) << "trace is not valid JSON";
  ASSERT_TRUE(doc->is_object());
  const JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_GT(events->size(), 0u);

  double last_ts = -1.0;
  // per-(pid, tid) open-span depth; spans on one track never nest, so the
  // depth must alternate 0 -> 1 -> 0
  std::map<std::pair<std::uint32_t, std::uint32_t>, int> depth;
  std::set<std::uint32_t> span_pids;
  std::size_t stall_spans = 0;
  std::size_t stall_reasons = 0;
  for (const JsonValue& e : events->items()) {
    ASSERT_TRUE(e.is_object());
    const std::string& ph = e.find("ph")->as_string();
    if (ph == "M") continue;  // metadata carries no ts
    const double ts = e.find("ts")->as_number();
    EXPECT_GE(ts, last_ts) << "timestamps must be sorted";
    last_ts = ts;
    const auto pid = static_cast<std::uint32_t>(e.find("pid")->as_number());
    const auto tid = static_cast<std::uint32_t>(e.find("tid")->as_number());
    if (ph == "B" && e.find("name")->as_string() == "stall") {
      // every stall span opening must say *why* the SM window stalled
      ++stall_spans;
      const JsonValue* args = e.find("args");
      if (args != nullptr && args->find("reason") != nullptr &&
          args->find("reason")->is_string() &&
          !args->find("reason")->as_string().empty()) {
        ++stall_reasons;
      }
    }
    int& d = depth[std::make_pair(pid, tid)];
    if (ph == "B") {
      span_pids.insert(pid);
      EXPECT_EQ(++d, 1) << "nested span on one track";
    } else if (ph == "E") {
      EXPECT_EQ(--d, 0) << "E without matching B";
    } else {
      EXPECT_EQ(ph, "C");
    }
  }
  EXPECT_GT(stall_spans, 0u) << "read kernel should stall at least once";
  EXPECT_EQ(stall_reasons, stall_spans)
      << "every stall span must carry args.reason";
  for (const auto& [track, d] : depth) {
    EXPECT_EQ(d, 0) << "unclosed span on pid " << track.first << " tid "
                    << track.second;
  }

  // 4096 threads / 128 = 32 blocks cover all 16 G80 SMs; every SM process
  // must carry at least one span (DRAM + host processes sit above n_sms).
  for (std::uint32_t sm = 0; sm < 16; ++sm) {
    EXPECT_TRUE(span_pids.count(sm) > 0) << "no events for SM " << sm;
  }
}

TEST(ChromeTrace, AsyncStreamSpansLandInStreamsProcess) {
  // build a tiny overlap window: an upload, a kernel that waits on it, and
  // a download of the result - three streams, one compute + one DMA engine
  vgpu::StreamTimeline tl(1);
  const vgpu::Stream up = tl.new_stream();
  const vgpu::Stream compute = tl.new_stream();
  const vgpu::Stream down = tl.new_stream();
  tl.push_copy(up, vgpu::AsyncSpan::Kind::kH2D, 4096, 2.0, "upload image");
  const vgpu::Event uploaded = tl.record_event(up);
  tl.wait_event(compute, uploaded);
  tl.push_kernel(compute, 5.0, "farfield");
  const vgpu::Event done = tl.record_event(compute);
  tl.wait_event(down, done);
  tl.push_copy(down, vgpu::AsyncSpan::Kind::kD2H, 1024, 1.0);

  ChromeTraceSink trace;
  const double cycles_per_ms = 1000.0;  // 1 cycle = 1 us: ts lands in us
  trace.async_spans(tl.spans(), cycles_per_ms);

  const auto doc = JsonValue::parse(trace.str());
  ASSERT_TRUE(doc.has_value());
  const JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);

  // every span event lives in one process whose metadata names it
  // "streams", with engine-named threads
  std::set<std::uint32_t> span_pids;
  std::map<std::string, double> begin_ts;
  std::map<std::string, double> begin_bytes;
  std::map<std::uint32_t, std::string> pid_names;
  std::map<std::uint32_t, std::string> tid_names;
  for (const JsonValue& e : events->items()) {
    const std::string ph = e.find("ph")->as_string();
    const std::string name = e.find("name")->as_string();
    const auto pid = static_cast<std::uint32_t>(e.find("pid")->as_number());
    if (ph == "M") {
      if (name == "process_name") {
        pid_names[pid] = e.find("args")->find("name")->as_string();
      } else if (name == "thread_name") {
        tid_names[static_cast<std::uint32_t>(e.find("tid")->as_number())] =
            e.find("args")->find("name")->as_string();
      }
      continue;
    }
    span_pids.insert(pid);
    if (ph == "B") {
      begin_ts[name] = e.find("ts")->as_number();
      const JsonValue* args = e.find("args");
      if (args != nullptr && args->find("bytes") != nullptr) {
        begin_bytes[name] = args->find("bytes")->as_number();
      }
    }
  }
  ASSERT_EQ(span_pids.size(), 1u);
  EXPECT_EQ(pid_names[*span_pids.begin()], "streams");
  EXPECT_EQ(tid_names[0], "compute engine");
  EXPECT_EQ(tid_names[1], "DMA engine 1");

  // labels carry through; copies carry bytes, kernels do not
  ASSERT_TRUE(begin_ts.count("upload image"));
  ASSERT_TRUE(begin_ts.count("farfield"));
  ASSERT_TRUE(begin_ts.count("d2h"));  // unlabeled copy falls back to kind
  EXPECT_EQ(begin_bytes["upload image"], 4096.0);
  EXPECT_EQ(begin_bytes["d2h"], 1024.0);
  EXPECT_EQ(begin_bytes.count("farfield"), 0u);

  // ms -> cycle conversion: at 1000 cycles/ms and the sink's 1 us/cycle
  // fallback, ts is the span start in us
  EXPECT_DOUBLE_EQ(begin_ts["upload image"], 0.0);
  EXPECT_DOUBLE_EQ(begin_ts["farfield"], 2000.0);
  EXPECT_DOUBLE_EQ(begin_ts["d2h"], 7000.0);
}

TEST(ChromeTrace, HostCountersLandInTrace) {
  ChromeTraceSink trace;
  trace.counter("energy drift", 1.0, 0.25);
  trace.counter("energy drift", 2.0, 0.50);
  const auto doc = JsonValue::parse(trace.str());
  ASSERT_TRUE(doc.has_value());
  const JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::size_t counters = 0;
  for (const JsonValue& e : events->items()) {
    if (e.find("ph")->as_string() != "C") continue;
    ++counters;
    EXPECT_EQ(e.find("name")->as_string(), "energy drift");
    ASSERT_NE(e.find("args"), nullptr);
  }
  EXPECT_EQ(counters, 2u);
}

}  // namespace
}  // namespace telemetry
