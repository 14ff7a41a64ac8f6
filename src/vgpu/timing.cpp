#include "vgpu/timing.hpp"

#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <variant>
#include <vector>

#include "vgpu/check.hpp"
#include "vgpu/coalesce.hpp"
#include "vgpu/decode.hpp"
#include "vgpu/executor.hpp"
#include "vgpu/interp.hpp"
#include "vgpu/memo.hpp"
#include "vgpu/opclass.hpp"
#include "vgpu/occupancy.hpp"
#include "vgpu/progcache.hpp"
#include "vgpu/timeline.hpp"

namespace vgpu {

namespace {

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint32_t kNoRing = std::numeric_limits<std::uint32_t>::max();
constexpr std::size_t kNoEvent = std::numeric_limits<std::size_t>::max();

// StallReason values as plain bytes for the hot metadata arrays.
constexpr std::uint8_t kRsnPipeline =
    static_cast<std::uint8_t>(StallReason::kPipeline);
constexpr std::uint8_t kRsnIssuePort =
    static_cast<std::uint8_t>(StallReason::kIssuePort);
constexpr std::uint8_t kRsnBarrier =
    static_cast<std::uint8_t>(StallReason::kBarrier);
constexpr std::uint8_t kRsnShared =
    static_cast<std::uint8_t>(StallReason::kShared);
constexpr std::uint8_t kRsnConst =
    static_cast<std::uint8_t>(StallReason::kConst);
constexpr std::uint8_t kRsnLocal =
    static_cast<std::uint8_t>(StallReason::kLocal);
constexpr std::uint8_t kRsnTex = static_cast<std::uint8_t>(StallReason::kTex);
constexpr std::uint8_t kRsnGlobal =
    static_cast<std::uint8_t>(StallReason::kGlobal);
constexpr std::uint8_t kRsnDramBusy =
    static_cast<std::uint8_t>(StallReason::kDramBusy);

/// VGPU_TRACE is looked up once per process: a per-run getenv would race
/// with concurrently launched runs, and the answer cannot change under us
/// anyway (we never setenv).
bool trace_enabled() {
  static const bool enabled = std::getenv("VGPU_TRACE") != nullptr;
  return enabled;
}

/// All VGPU_TRACE output funnels through one mutex-guarded writer so lines
/// from concurrent launches cannot interleave mid-line on stderr.
void trace_write(const std::string& line) {
  static std::mutex mu;
  const std::lock_guard<std::mutex> lock(mu);
  std::fputs(line.c_str(), stderr);
}

/// One resident block plus its per-warp register/predicate scoreboards.
/// The scoreboard makes loads non-blocking: a warp keeps issuing after a
/// load and only stalls when an instruction reads a register whose value is
/// still in flight - the G80 behaviour the Fig. 10 micro-benchmark relies
/// on (seven independent loads pipeline; the summation stalls).
struct ResidentBlock {
  std::unique_ptr<BlockExec> exec;
  std::vector<std::uint64_t> reg_ready;   ///< [warp * reg_file_size + slot]
  std::vector<std::uint64_t> pred_ready;  ///< [warp * num_preds + p]
  /// Ring of recent global-load completion times per warp (MSHR model):
  /// [warp * max_outstanding + k]. A new load can issue only once the entry
  /// it replaces has completed.
  std::vector<std::uint64_t> load_ring;
  std::vector<std::uint32_t> load_ring_pos;  ///< per warp
  /// Bumped on every dispatch into this slot. A deferred DRAM completion
  /// snapshots the generation it targets; the bucket merge drops the
  /// scoreboard write when the block has since retired (the completion
  /// belongs to the retired block's warp and must not land in the new one).
  std::uint64_t generation = 0;
  /// The fast path's hoisted scoreboard walk: per warp, the cached result
  /// of a pick_warp probe - the warp's next-instruction ready cycle
  /// (ready_cache, valid while ready_state is kReadyCached) or a skip mark
  /// for done/at-barrier warps (kReadySkip). A cached probe is a compare
  /// instead of a peek + dependency walk; every event that could change the
  /// probe result invalidates the warp's entry: its own issue (ip moved),
  /// any scoreboard write through set_slot_ready (covers completions known
  /// at issue and deferred merges; scoreboards are per-warp, so other
  /// warps' writes never affect this entry), a barrier release (ready_cycle
  /// bumped, at-barrier cleared), and a dispatch into the slot.
  std::vector<std::uint64_t> ready_cache;
  std::vector<std::uint8_t> ready_state;
  /// Classification metadata (classify_ runs only; empty otherwise so the
  /// attribution layer is zero-cost when off). reg_reason mirrors
  /// reg_ready: why each slot's value arrives when it does (a StallReason
  /// as uint8). warp_reason explains ready_cycle - normally the warp's own
  /// issue slot, kBarrier right after a barrier release.
  std::vector<std::uint8_t> reg_reason;
  std::vector<std::uint8_t> warp_reason;
  // Timeline bookkeeping (only consumed when a sink is attached).
  std::uint32_t block_id = 0;
  std::uint64_t start_cycle = 0;
  std::vector<std::uint64_t> barrier_arrive;  ///< per warp, sink runs only
};

enum : std::uint8_t { kReadyInvalid = 0, kReadyCached = 1, kReadySkip = 2 };

/// Why an SM suspended mid-bucket. SMs park when the next action depends on
/// shared state - the grid block queue or an unresolved DRAM completion -
/// and the bucket driver resumes them in (pre-step cycle, SM id) order.
enum class Park : std::uint8_t {
  kNone,
  kStall,     ///< nothing issueable before the bucket ends; exact jump
              ///< target known only after the DRAM merge
  kDispatch,  ///< a block retired; needs the next grid block id
};

struct Sm {
  std::uint64_t cycle = 0;
  std::vector<ResidentBlock> slots;
  std::uint32_t rr = 0;  ///< round-robin cursor over (slot, warp) pairs
  /// A warp's done/at-barrier state may have changed since the last
  /// barrier-release scan. Only generic steps reaching a barrier/exit and
  /// dispatches can change it (and both set this), so the fast path elides
  /// the scan while it stays false.
  bool barrier_dirty = true;
  /// Per-SM texture cache: line tags in LRU order (front = most recent).
  std::vector<std::uint32_t> tex_lines;
  // Parking state.
  Park park = Park::kNone;
  std::uint64_t park_order = 0;  ///< pre-step cycle of the parking step
  std::size_t park_slot = 0;     ///< kDispatch: slot awaiting a grid block
  std::uint64_t park_when = 0;   ///< kDispatch: retirement cycle
  std::size_t park_event = kNoEvent;  ///< kDispatch: reserved BlockSpan index

  /// Some slot holds a block. Only do_dispatch installs or retires blocks,
  /// so it alone updates this. run_sm reads it once per step; walking the
  /// slots there cost more than the step bookkeeping itself.
  bool any_work = false;
};

/// The post-step fields the cycle-charging switch needs from the issued
/// instruction, fillable from either encoding so both execution paths share
/// one switch body.
struct IssueView {
  std::uint32_t dst_slot = kNoSlot;
  std::uint32_t width_words = 1;
  PredId pdst = kNoPred;
  bool is_load = false;
};

/// One DRAM row-segment / texture-line transfer whose partition start time
/// is resolved at the bucket merge. `service` is precomputed from
/// bucket-independent inputs, so the merge's arithmetic does not depend on
/// where the bucket boundaries fall.
struct DeferredSeg {
  std::uint32_t partition = 0;
  std::uint32_t bytes = 0;
  double service = 0.0;
  std::size_t event_idx = kNoEvent;  ///< reserved DramSpan slot, or kNoEvent
};

/// One memory operation with DRAM-dependent completion, recorded while its
/// SM steps through the bucket and resolved at the bucket merge in
/// StepOrder. Until then the destination scoreboard entries hold kNever: the
/// conservative bucket width guarantees the resolved value lands at or after
/// the bucket end, so "still in flight" is the exact in-bucket answer.
struct DeferredReq {
  std::uint64_t key = 0;          ///< pre-step cycle: global merge key
  double chan_floor = 0.0;        ///< SM clock when the channel was touched
  std::uint64_t comp_floor = 0;   ///< completion floor independent of DRAM
  std::uint64_t per_seg_extra = 0;  ///< added to each segment's end cycle
  std::uint64_t tail = 0;           ///< added after the max over segments
  std::uint32_t seg_begin = 0;      ///< range into the per-SM segment arena
  std::uint32_t seg_count = 0;
  std::uint32_t rb_slot = 0;
  std::uint64_t generation = 0;
  std::uint32_t warp = 0;
  std::uint32_t dst_slot = kNoSlot;
  std::uint32_t width_words = 1;
  std::uint32_t ring_idx = kNoRing;  ///< MSHR ring entry, or kNoRing
  /// Classification of the scoreboard write (kRsnGlobal/kRsnLocal/kRsnTex),
  /// upgraded to kRsnDramBusy at the merge when any segment queued behind
  /// earlier channel traffic; the merge order is fixed, so the recorded
  /// reason is thread-count invariant.
  std::uint8_t base_reason = kRsnGlobal;
};

/// A buffered sink event. Workers cannot call the sink, and an SM runs a
/// whole bucket before the others catch up, so events queue per SM and are
/// replayed at the end of the run in StepOrder; `key` is the pre-step cycle
/// of the emitting step.
struct PendingEvent {
  std::uint64_t key = 0;
  std::variant<TimelineSink::BlockSpan, TimelineSink::IssueSpan,
               TimelineSink::StallSpan, TimelineSink::BarrierWait,
               TimelineSink::DramSpan, TimelineSink::GlobalRequest>
      span;
};

/// Per-thread execution context: coalescing and bank-conflict memos (hits
/// are exact replays, so per-thread memos change no simulated outcome),
/// reusable transaction scratch, and a LaunchStats partial. Every stats
/// field touched during stepping is an integer counter, so summing the
/// partials at the end is an exact, order-independent reduction.
struct WorkerCtx {
  std::optional<CoalesceMemo> memo;
  std::optional<ConflictMemo> cmemo;
  CoalesceResult scratch;
  LaunchStats stats;
  /// Per-PC attribution partial (attr_ runs only). Like the stats partial,
  /// every field is an integer counter (plus an address min/max), so the
  /// end-of-run reduction over workers is exact and order-independent -
  /// the merged table is bit-identical at any thread count.
  std::vector<PcAttribution> attr;
};

/// A record in a per-SM vector, ordered by (key, SM id, index): the key is
/// the pre-step cycle of the step that made it, so this is the order of a
/// run that always steps the minimum-cycle SM, lowest id first. Every step
/// strictly advances its SM's clock, so the order is total.
struct StepOrder {
  std::uint64_t key;
  std::uint32_t sm;
  std::uint32_t idx;
  bool operator<(const StepOrder& o) const {
    return std::tie(key, sm, idx) < std::tie(o.key, o.sm, o.idx);
  }
};

/// Every record of `per_sm` (each with a `key`) in StepOrder.
template <class T>
std::vector<StepOrder> step_order(const std::vector<std::vector<T>>& per_sm) {
  std::vector<StepOrder> order;
  std::size_t total = 0;
  for (const std::vector<T>& v : per_sm) total += v.size();
  order.reserve(total);
  for (std::size_t s = 0; s < per_sm.size(); ++s) {
    for (std::size_t i = 0; i < per_sm[s].size(); ++i) {
      order.push_back(StepOrder{per_sm[s][i].key, static_cast<std::uint32_t>(s),
                                static_cast<std::uint32_t>(i)});
    }
  }
  std::sort(order.begin(), order.end());
  return order;
}

/// Sums the integer counters of `part` into `into`. Header fields (cycles,
/// occupancy, blocks_*, extrapolation_factor, memo totals) are set once on
/// the final stats, not accumulated.
void accumulate_counters(LaunchStats& into, const LaunchStats& part) {
  into.warp_instructions += part.warp_instructions;
  for (std::size_t i = 0; i < into.region_instructions.size(); ++i) {
    into.region_instructions[i] += part.region_instructions[i];
  }
  for (std::size_t i = 0; i < into.instr_class_counts.size(); ++i) {
    into.instr_class_counts[i] += part.instr_class_counts[i];
  }
  into.divergent_branches += part.divergent_branches;
  into.sm_idle_cycles += part.sm_idle_cycles;
  into.sm_issue_cycles += part.sm_issue_cycles;
  into.global_requests += part.global_requests;
  into.global_transactions += part.global_transactions;
  into.global_bytes += part.global_bytes;
  into.coalesced_requests += part.coalesced_requests;
  into.uncoalesced_requests += part.uncoalesced_requests;
  into.shared_requests += part.shared_requests;
  into.shared_conflict_extra += part.shared_conflict_extra;
  into.local_requests += part.local_requests;
  into.const_requests += part.const_requests;
  into.tex_requests += part.tex_requests;
  into.tex_hits += part.tex_hits;
  into.tex_misses += part.tex_misses;
  into.barriers += part.barriers;
}

/// Fork/join pool for the bucket phases: one persistent thread per extra
/// worker, woken per round through a condition variable (blocking, not
/// spinning, so oversubscribed hosts degrade gracefully). Exceptions from
/// workers are captured and rethrown from round() on the caller.
class WorkerPool {
 public:
  WorkerPool(std::uint32_t extra, std::function<void(std::uint32_t)> body)
      : body_(std::move(body)) {
    threads_.reserve(extra);
    for (std::uint32_t i = 0; i < extra; ++i) {
      threads_.emplace_back([this, i] { loop(i + 1); });
    }
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  ~WorkerPool() {
    {
      const std::lock_guard<std::mutex> lock(m_);
      stop_ = true;
      ++round_;
    }
    start_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  /// Runs body(w) for every worker - the caller acts as worker 0 - and
  /// returns once all are done.
  void round() {
    {
      const std::lock_guard<std::mutex> lock(m_);
      ++round_;
      running_ = static_cast<std::uint32_t>(threads_.size());
    }
    start_.notify_all();
    run_one(0);
    std::unique_lock<std::mutex> lock(m_);
    done_.wait(lock, [this] { return running_ == 0; });
    if (error_) {
      const std::exception_ptr e = error_;
      error_ = nullptr;
      lock.unlock();
      std::rethrow_exception(e);
    }
  }

 private:
  void loop(std::uint32_t w) {
    std::uint64_t seen = 0;
    while (true) {
      {
        std::unique_lock<std::mutex> lock(m_);
        start_.wait(lock, [&] { return round_ != seen; });
        seen = round_;
        if (stop_) return;
      }
      run_one(w);
      {
        const std::lock_guard<std::mutex> lock(m_);
        --running_;
      }
      done_.notify_one();
    }
  }

  void run_one(std::uint32_t w) {
    try {
      body_(w);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(m_);
      if (!error_) error_ = std::current_exception();
    }
  }

  std::function<void(std::uint32_t)> body_;
  std::vector<std::thread> threads_;
  std::mutex m_;
  std::condition_variable start_;
  std::condition_variable done_;
  std::uint64_t round_ = 0;
  std::uint32_t running_ = 0;
  bool stop_ = false;
  std::exception_ptr error_;
};

/// One timed launch: SMs step through conservative cycle buckets, sharded
/// across `threads` workers (docs/performance.md, "Multi-threaded timing").
/// Results - cycles and the sink event stream included - are bit-identical
/// at every thread count.
class TimedRun {
 public:
  TimedRun(const Program& prog, const DeviceSpec& spec, GlobalMemory& gmem,
           const LaunchConfig& cfg, std::span<const std::uint32_t> params,
           const TimingOptions& opt)
      : prog_(prog),
        spec_(spec),
        gmem_(gmem),
        cfg_(cfg),
        params_(params),
        opt_(opt),
        t_(spec.timing) {}

  LaunchStats run();

 private:
  struct Pick {
    std::int64_t chosen = -1;
    std::uint64_t next_event = kNever;
    bool pending = false;  ///< a candidate waits on an unresolved DRAM value
  };

  void do_dispatch(Sm& sm, std::size_t slot, std::uint32_t sm_id,
                   std::uint64_t when, std::size_t reserved);
  [[nodiscard]] std::uint64_t dep_ready(const ResidentBlock& rb,
                                        std::uint32_t w,
                                        const Instruction& in) const;
  [[nodiscard]] std::uint64_t dep_ready_fast(const ResidentBlock& rb,
                                             std::uint32_t w,
                                             const DecodedInstr& d) const;
  void set_slot_ready(ResidentBlock& rb, std::uint32_t w, std::uint32_t slot,
                      std::uint32_t words, std::uint64_t when,
                      std::uint8_t reason) const;
  [[nodiscard]] Pick pick_warp(Sm& sm) const;
  /// Why (and at which PC) an SM-wide stall ending at `next_event` was
  /// spent: finds the first candidate in scan order whose ready cycle
  /// attains `next_event` - the warp whose wake-up ends the window - and
  /// walks its dependencies for the latest-arriving contributor, breaking
  /// ties toward the smallest StallReason value. Recomputes from concrete
  /// state only (no cache mutation), so any thread count classifies
  /// identically. `pc` is meaningful on the fast path only.
  struct StallCause {
    std::uint8_t reason = kRsnPipeline;
    std::uint32_t pc = 0;
  };
  [[nodiscard]] StallCause classify_stall(Sm& sm,
                                          std::uint64_t next_event) const;
  void charge_stall(Sm& sm, std::uint32_t sm_id, WorkerCtx& ctx,
                    std::uint64_t next_event);
  void sm_step(Sm& sm, std::uint32_t sm_id, WorkerCtx& ctx);
  void run_buckets();
  void worker_phase(std::uint32_t w);
  void run_sm(Sm& sm, std::uint32_t sm_id, WorkerCtx& ctx);
  void dispatch_waves();
  void merge_deferred();
  void finish_parked_stalls();
  void flush_events();

  /// Reserves an event slot for a span known only later (kNoEvent when no
  /// sink is attached).
  std::size_t reserve_event(std::uint32_t sm_id, std::uint64_t key) {
    if (sink_ == nullptr) return kNoEvent;
    events_[sm_id].push_back(PendingEvent{key, TimelineSink::BlockSpan{}});
    return events_[sm_id].size() - 1;
  }

  void forward(const TimelineSink::BlockSpan& s) { sink_->on_block(s); }
  void forward(const TimelineSink::IssueSpan& s) { sink_->on_issue(s); }
  void forward(const TimelineSink::StallSpan& s) { sink_->on_stall(s); }
  void forward(const TimelineSink::BarrierWait& s) {
    sink_->on_barrier_wait(s);
  }
  void forward(const TimelineSink::DramSpan& s) { sink_->on_dram(s); }
  void forward(const TimelineSink::GlobalRequest& s) {
    sink_->on_global_request(s);
  }

  /// Buffers a sink event on its SM; flush_events restores the emission
  /// order. Callers guard on sink_ != nullptr.
  template <class Span>
  void emit(std::uint32_t sm_id, std::uint64_t key, const Span& span) {
    events_[sm_id].push_back(PendingEvent{key, span});
  }

  // Inputs.
  const Program& prog_;
  const DeviceSpec& spec_;
  GlobalMemory& gmem_;
  const LaunchConfig& cfg_;
  std::span<const std::uint32_t> params_;
  const TimingOptions& opt_;
  const TimingParams& t_;
  TimelineSink* sink_ = nullptr;

  // Derived configuration.
  std::uint32_t n_sms_ = 0;
  std::uint32_t warps_per_block_ = 0;
  std::uint32_t mshr_ = 1;
  std::uint32_t blocks_to_sim_ = 0;
  std::uint32_t nthreads_ = 1;
  bool fast_ = false;
  bool classify_ = false;  ///< maintain stall-reason metadata (attribution
                           ///< requested or a sink is attached)
  bool attr_ = false;      ///< fill per-PC attribution tables (fast path)
  double channel_cycles_per_byte_ = 0.0;
  std::shared_ptr<const CompiledKernel> ck_;  ///< fast path only
  const DecodedProgram* decp_ = nullptr;

  // Run state.
  std::vector<Sm> sms_;
  /// Per-partition busy-until times (fractional cycles); each partition
  /// serves 1/partitions of the device bandwidth. Only the bucket merge on
  /// the main thread touches this.
  std::vector<double> channel_;
  std::uint32_t next_block_ = 0;
  std::vector<WorkerCtx> workers_;
  std::uint64_t bucket_end_ = kNever;
  std::vector<std::vector<DeferredReq>> reqs_;   ///< per SM
  std::vector<std::vector<DeferredSeg>> segs_;   ///< per SM
  std::vector<std::vector<PendingEvent>> events_;  ///< per SM
  LaunchStats stats_;
};

void TimedRun::do_dispatch(Sm& sm, std::size_t slot, std::uint32_t sm_id,
                           std::uint64_t when, std::size_t reserved) {
  ResidentBlock& rb = sm.slots[slot];
  sm.barrier_dirty = true;  // a fresh block's warps invalidate the elision
  if (sink_ != nullptr && rb.exec) {
    // The retiring exit step reserved this event under its own key.
    events_[sm_id][reserved].span = TimelineSink::BlockSpan{
        sm_id, static_cast<std::uint32_t>(slot), rb.block_id,
        warps_per_block_, rb.start_cycle, when};
  }
  ++rb.generation;  // in-flight loads of the retired block must not land
  if (next_block_ >= blocks_to_sim_) {
    rb.exec.reset();
    sm.any_work =
        std::any_of(sm.slots.begin(), sm.slots.end(),
                    [](const ResidentBlock& b) { return b.exec != nullptr; });
    return;
  }
  sm.any_work = true;
  BlockParams bp{next_block_++, cfg_, params_, sm_id, opt_.cmem};
  rb.block_id = bp.block_id;
  rb.start_cycle = when;
  if (fast_ && rb.exec) {
    rb.exec->reset(bp);  // reuse the slot's arenas instead of reallocating
  } else {
    rb.exec = std::make_unique<BlockExec>(prog_, spec_, gmem_, bp, decp_);
    if (fast_) {
      // The SM->worker map is static (s % nthreads_), so this exec's shared
      // steps only ever touch its owning worker's memo - no sharing across
      // threads. Installed once; reset() keeps the pointer.
      WorkerCtx& ctx = workers_[sm_id % nthreads_];
      rb.exec->set_conflict_memo(ctx.cmemo ? &*ctx.cmemo : nullptr);
    }
  }
  rb.reg_ready.assign(
      static_cast<std::size_t>(prog_.reg_file_size) * warps_per_block_, 0);
  rb.pred_ready.assign(
      static_cast<std::size_t>(prog_.num_preds) * warps_per_block_, 0);
  rb.load_ring.assign(static_cast<std::size_t>(mshr_) * warps_per_block_, 0);
  rb.load_ring_pos.assign(warps_per_block_, 0);
  rb.ready_cache.assign(warps_per_block_, 0);
  rb.ready_state.assign(warps_per_block_, kReadyInvalid);
  if (classify_) {
    rb.reg_reason.assign(rb.reg_ready.size(), kRsnPipeline);
    // Waiting out block_start_cycles is the SM front end setting the block
    // up - an issue-port wait, not a data dependency.
    rb.warp_reason.assign(warps_per_block_, kRsnIssuePort);
  }
  if (sink_ != nullptr) rb.barrier_arrive.assign(warps_per_block_, 0);
  for (std::uint32_t w = 0; w < warps_per_block_; ++w) {
    rb.exec->warp(w).ready_cycle = when + t_.block_start_cycles;
  }
}

// Scoreboard: earliest cycle at which every register/predicate the
// instruction touches is available. An entry may hold the kNever sentinel -
// "still in flight, resolved at the bucket merge".
std::uint64_t TimedRun::dep_ready(const ResidentBlock& rb, std::uint32_t w,
                                  const Instruction& in) const {
  const std::size_t rbase = static_cast<std::size_t>(w) * prog_.reg_file_size;
  const std::size_t pbase = static_cast<std::size_t>(w) * prog_.num_preds;
  std::uint64_t ready = 0;
  auto reg_dep = [&](const Operand& o, std::uint32_t words) {
    if (!o.valid()) return;
    const std::uint32_t slot = prog_.reg_base[o.reg] + o.comp;
    for (std::uint32_t c = 0; c < words; ++c) {
      ready = std::max(ready, rb.reg_ready[rbase + slot + c]);
    }
  };
  const std::uint32_t wwords = width_words(in.width);
  reg_dep(in.src[0], 1);
  reg_dep(in.src[1], in.is_store() ? wwords : 1);
  reg_dep(in.src[2], 1);
  reg_dep(in.dst, in.is_load() ? wwords : (in.dst.valid() ? 1u : 0u));
  auto pred_dep = [&](PredId p) {
    if (p != kNoPred) ready = std::max(ready, rb.pred_ready[pbase + p]);
  };
  pred_dep(in.psrc0);
  pred_dep(in.psrc1);
  pred_dep(in.guard);
  if (in.op == Opcode::kLdGlobal) {
    // MSHR limit: the slot this load would occupy must have drained.
    const std::size_t ring_base = static_cast<std::size_t>(w) * mshr_;
    ready = std::max(ready, rb.load_ring[ring_base + rb.load_ring_pos[w]]);
  }
  return ready;
}

// Fast-path scoreboard scan over the pre-flattened read-set - same
// dependencies as dep_ready (decode() mirrors its walk), no operand
// re-resolution per issue attempt.
std::uint64_t TimedRun::dep_ready_fast(const ResidentBlock& rb,
                                       std::uint32_t w,
                                       const DecodedInstr& d) const {
  const std::size_t rbase = static_cast<std::size_t>(w) * prog_.reg_file_size;
  std::uint64_t ready = 0;
  for (std::uint32_t i = 0; i < d.num_deps; ++i) {
    const DecodedInstr::RegDep& dep = d.deps[i];
    for (std::uint32_t c = 0; c < dep.words; ++c) {
      ready = std::max(ready, rb.reg_ready[rbase + dep.slot + c]);
    }
  }
  if (d.num_pred_deps != 0) {
    const std::size_t pbase = static_cast<std::size_t>(w) * prog_.num_preds;
    for (std::uint32_t i = 0; i < d.num_pred_deps; ++i) {
      ready = std::max(ready, rb.pred_ready[pbase + d.pred_deps[i]]);
    }
  }
  if (d.op == Opcode::kLdGlobal) {
    const std::size_t ring_base = static_cast<std::size_t>(w) * mshr_;
    ready = std::max(ready, rb.load_ring[ring_base + rb.load_ring_pos[w]]);
  }
  return ready;
}

void TimedRun::set_slot_ready(ResidentBlock& rb, std::uint32_t w,
                              std::uint32_t slot, std::uint32_t words,
                              std::uint64_t when, std::uint8_t reason) const {
  rb.ready_state[w] = kReadyInvalid;
  if (slot == kNoSlot) return;
  const std::size_t rbase = static_cast<std::size_t>(w) * prog_.reg_file_size;
  for (std::uint32_t c = 0; c < words; ++c) {
    rb.reg_ready[rbase + slot + c] = when;
  }
  if (classify_) {
    for (std::uint32_t c = 0; c < words; ++c) {
      rb.reg_reason[rbase + slot + c] = reason;
    }
  }
}

// Picks an issueable warp (loose round robin) considering both the issue
// pipeline and the register scoreboard: the first ready candidate from the
// round-robin cursor wins. When nothing is issueable, next_event is the
// earliest known wake-up and `pending` flags whether some candidate's
// wake-up is an unresolved DRAM completion.
TimedRun::Pick TimedRun::pick_warp(Sm& sm) const {
  const std::uint32_t total =
      static_cast<std::uint32_t>(sm.slots.size()) * warps_per_block_;
  Pick p;
  // Walk (slot, warp) incrementally from the round-robin cursor instead of
  // dividing per probe; most picks touch only the first candidate.
  std::uint32_t idx = sm.rr % total;
  std::size_t slot = idx / warps_per_block_;
  std::uint32_t w = idx % warps_per_block_;
  const auto advance = [&] {
    ++idx;
    ++w;
    if (w == warps_per_block_) {
      w = 0;
      ++slot;
    }
    if (idx == total) {
      idx = 0;
      slot = 0;
    }
  };
  for (std::uint32_t i = 0; i < total; ++i, advance()) {
    ResidentBlock& rb = sm.slots[slot];
    if (!rb.exec) continue;
    std::uint64_t ready_at;
    if (fast_ && rb.ready_state[w] != kReadyInvalid) {
      // Hoisted scoreboard walk: nothing that feeds this warp's probe has
      // changed since it was last computed.
      if (rb.ready_state[w] == kReadySkip) continue;  // done or at barrier
      ready_at = rb.ready_cache[w];
    } else if (fast_) {
      const DecodedInstr* din = rb.exec->peek_decoded(w);
      if (din == nullptr) {  // done or at barrier
        rb.ready_state[w] = kReadySkip;
        continue;
      }
      ready_at =
          std::max(rb.exec->warp(w).ready_cycle, dep_ready_fast(rb, w, *din));
      if (ready_at > sm.cycle) {
        // Only a probe that is not chosen now is worth caching: a chosen
        // one is invalidated by its own issue in this same step, the
        // dominant case on a saturated SM.
        rb.ready_cache[w] = ready_at;
        rb.ready_state[w] = kReadyCached;
      }
    } else {
      const Instruction* in = rb.exec->peek(w);
      if (in == nullptr) continue;  // done or at barrier
      ready_at = std::max(rb.exec->warp(w).ready_cycle, dep_ready(rb, w, *in));
    }
    if (ready_at <= sm.cycle) {
      p.chosen = idx;
      return p;
    }
    if (ready_at == kNever) {
      p.pending = true;
    } else {
      p.next_event = std::min(p.next_event, ready_at);
    }
  }
  return p;
}

// Classifies an SM-wide stall window ending at next_event: scan the
// candidates in pick_warp's order for the first whose ready cycle attains
// next_event (its wake-up is what ends the window - every other candidate
// wakes at or after it), then re-walk that candidate's dependencies for
// the latest-arriving contributor. Ties go to the smallest StallReason
// value.
//
// The walk recomputes ready cycles from concrete scoreboard state and
// never touches the probe caches, so it is a pure read: any thread count
// classifies identically. An
// unresolved (kNever) contributor can never attain next_event (< bucket
// end <= any deferred completion), so candidates with in-flight values are
// skipped exactly as their resolved values would dictate.
TimedRun::StallCause TimedRun::classify_stall(Sm& sm,
                                              std::uint64_t next_event) const {
  std::uint64_t at = 0;
  std::uint8_t reason = kRsnPipeline;
  const auto consider = [&](std::uint64_t v, std::uint8_t r) {
    if (v > at) {
      at = v;
      reason = r;
    } else if (v == at && r < reason) {
      reason = r;
    }
  };
  const std::uint32_t total =
      static_cast<std::uint32_t>(sm.slots.size()) * warps_per_block_;
  std::uint32_t idx = sm.rr % total;
  std::size_t slot = idx / warps_per_block_;
  std::uint32_t w = idx % warps_per_block_;
  const auto advance = [&] {
    ++idx;
    ++w;
    if (w == warps_per_block_) {
      w = 0;
      ++slot;
    }
    if (idx == total) {
      idx = 0;
      slot = 0;
    }
  };
  for (std::uint32_t i = 0; i < total; ++i, advance()) {
    ResidentBlock& rb = sm.slots[slot];
    if (!rb.exec) continue;
    const WarpState& ws = rb.exec->warp(w);
    const std::size_t rbase =
        static_cast<std::size_t>(w) * prog_.reg_file_size;
    const std::size_t pbase = static_cast<std::size_t>(w) * prog_.num_preds;
    at = 0;
    reason = kRsnPipeline;
    Opcode op;
    if (fast_) {
      const DecodedInstr* d = rb.exec->peek_decoded(w);
      if (d == nullptr) continue;  // done or at barrier
      consider(ws.ready_cycle, rb.warp_reason[w]);
      for (std::uint32_t k = 0; k < d->num_deps; ++k) {
        const DecodedInstr::RegDep& dep = d->deps[k];
        for (std::uint32_t c = 0; c < dep.words; ++c) {
          consider(rb.reg_ready[rbase + dep.slot + c],
                   rb.reg_reason[rbase + dep.slot + c]);
        }
      }
      for (std::uint32_t k = 0; k < d->num_pred_deps; ++k) {
        // Predicates are written only by ALU ops: always pipeline latency.
        consider(rb.pred_ready[pbase + d->pred_deps[k]], kRsnPipeline);
      }
      op = d->op;
    } else {
      const Instruction* in = rb.exec->peek(w);
      if (in == nullptr) continue;  // done or at barrier
      consider(ws.ready_cycle, rb.warp_reason[w]);
      const auto reg_dep = [&](const Operand& o, std::uint32_t words) {
        if (!o.valid()) return;
        const std::uint32_t s0 = prog_.reg_base[o.reg] + o.comp;
        for (std::uint32_t c = 0; c < words; ++c) {
          consider(rb.reg_ready[rbase + s0 + c],
                   rb.reg_reason[rbase + s0 + c]);
        }
      };
      const std::uint32_t wwords = width_words(in->width);
      reg_dep(in->src[0], 1);
      reg_dep(in->src[1], in->is_store() ? wwords : 1);
      reg_dep(in->src[2], 1);
      reg_dep(in->dst, in->is_load() ? wwords : (in->dst.valid() ? 1u : 0u));
      const auto pred_dep = [&](PredId p) {
        if (p != kNoPred) consider(rb.pred_ready[pbase + p], kRsnPipeline);
      };
      pred_dep(in->psrc0);
      pred_dep(in->psrc1);
      pred_dep(in->guard);
      op = in->op;
    }
    if (op == Opcode::kLdGlobal) {
      // MSHR ring wait: gated by an older global load still in flight.
      const std::size_t ring_base = static_cast<std::size_t>(w) * mshr_;
      consider(rb.load_ring[ring_base + rb.load_ring_pos[w]], kRsnGlobal);
    }
    if (at != next_event) continue;
    const std::uint32_t pc =
        fast_ ? decp_->block_start[ws.block] + ws.ip : 0u;
    return StallCause{reason, pc};
  }
  VGPU_EXPECTS_MSG(false, "stall classification lost the wake-up candidate");
  return StallCause{};
}

// Charges an SM-wide stall up to next_event - idle cycles, their cause and
// the stall event - and jumps the SM clock there.
void TimedRun::charge_stall(Sm& sm, std::uint32_t sm_id, WorkerCtx& ctx,
                            std::uint64_t next_event) {
  VGPU_EXPECTS_MSG(next_event != kNever,
                   "timing executor stalled (barrier deadlock?)");
  const std::uint64_t idle = next_event - sm.cycle;
  ctx.stats.sm_idle_cycles += idle;
  StallCause cause;
  if (classify_) {
    cause = classify_stall(sm, next_event);
    if (attr_) ctx.attr[cause.pc].stall_cycles[cause.reason] += idle;
  }
  if (sink_ != nullptr) {
    emit(sm_id, sm.cycle,
         TimelineSink::StallSpan{sm_id, sm.cycle, next_event,
                                 static_cast<StallReason>(cause.reason)});
  }
  sm.cycle = next_event;
}

void TimedRun::sm_step(Sm& sm, std::uint32_t sm_id, WorkerCtx& ctx) {
  LaunchStats& stats = ctx.stats;
  // 1. release any satisfiable barriers. Only a step reaching a barrier or
  // exit, or a dispatch, can change a warp's done/at-barrier state, and
  // both dirty the flag, so the fast path elides the scan until then; the
  // reference path keeps the unconditional scan of the original schedule.
  if (!fast_ || sm.barrier_dirty) {
    for (std::size_t slot = 0; slot < sm.slots.size(); ++slot) {
      BlockExec* exec = sm.slots[slot].exec.get();
      if (exec && exec->barrier_releasable()) {
        exec->release_barrier();
        for (std::uint32_t w = 0; w < exec->num_warps(); ++w) {
          WarpState& ws = exec->warp(w);
          if (!ws.done) {
            sm.slots[slot].ready_state[w] = kReadyInvalid;
            ws.ready_cycle =
                std::max(ws.ready_cycle, sm.cycle + t_.barrier_cycles);
            if (classify_) sm.slots[slot].warp_reason[w] = kRsnBarrier;
            if (sink_ != nullptr) {
              emit(sm_id, sm.cycle,
                   TimelineSink::BarrierWait{
                       sm_id, static_cast<std::uint32_t>(slot), w,
                       sm.slots[slot].barrier_arrive[w], sm.cycle});
            }
          }
        }
      }
    }
    sm.barrier_dirty = false;
  }

  // 2. pick an issueable warp
  const Pick pick = pick_warp(sm);
  if (pick.chosen < 0) {
    if (pick.pending && pick.next_event >= bucket_end_) {
      // A candidate waits on an in-flight DRAM value whose exact arrival is
      // known only after the bucket merge, and every *known* wake-up is at
      // or past the bucket end (unresolved ones are too: the bucket width
      // is the global-memory latency, a lower bound on any deferred
      // completion). Nothing can happen in this bucket - park, and finish
      // this stall with the exact jump target once the merge has run.
      sm.park = Park::kStall;
      return;
    }
    charge_stall(sm, sm_id, ctx, pick.next_event);
    return;
  }
  sm.rr = static_cast<std::uint32_t>(pick.chosen) + 1;

  const std::size_t slot =
      static_cast<std::size_t>(pick.chosen) / warps_per_block_;
  const std::uint32_t w =
      static_cast<std::uint32_t>(pick.chosen) % warps_per_block_;
  ResidentBlock& rb = sm.slots[slot];
  BlockExec& exec = *rb.exec;
  WarpState& ws = exec.warp(w);

  // Snapshot what the writeback stage needs before step advances state.
  IssueView iv;
  if (fast_) {
    const DecodedInstr& din = *exec.peek_decoded(w);
    iv = IssueView{din.dst_slot, din.width_words, din.pdst, din.is_load};
  } else {
    const Instruction& in = *exec.peek(w);
    iv = IssueView{in.dst.valid() ? exec.operand_slot(in.dst) : kNoSlot,
                   width_words(in.width), in.pdst, in.is_load()};
  }
  const std::uint64_t issue_start = sm.cycle;
  // Static PC of the instruction about to issue (step advances ws.ip).
  const std::uint32_t pc = attr_ ? decp_->block_start[ws.block] + ws.ip : 0u;
  const StepResult res = exec.step(w, sm.cycle);
  // Only a barrier arrival or an exit can change a warp's done/at-barrier
  // state, the sole inputs of the barrier-release scan.
  if (res.kind == StepResult::Kind::kBarrier ||
      res.kind == StepResult::Kind::kExit) {
    sm.barrier_dirty = true;
  }
  rb.ready_state[w] = kReadyInvalid;  // ip moved: the cached probe is stale
  ++stats.warp_instructions;
  ++stats.region_instructions[static_cast<std::size_t>(res.region)];
  ++stats.instr_class_counts[static_cast<std::size_t>(instr_class(res.op))];
  if (res.divergent_branch) ++stats.divergent_branches;

  switch (res.kind) {
    case StepResult::Kind::kAlu:
      sm.cycle += t_.alu_issue_cycles;
      ws.ready_cycle = sm.cycle;
      set_slot_ready(rb, w, iv.dst_slot, 1,
                     sm.cycle + t_.alu_result_latency_cycles, kRsnPipeline);
      if (iv.pdst != kNoPred) {
        rb.pred_ready[static_cast<std::size_t>(w) * prog_.num_preds +
                      iv.pdst] = sm.cycle + t_.alu_result_latency_cycles;
      }
      break;
    case StepResult::Kind::kShared: {
      count_shared_step(res, stats);
      if (attr_) {
        PcAttribution& a = ctx.attr[pc];
        ++a.shared_requests;
        if (res.shared_conflict_degree > 1) {
          a.shared_conflict_extra += res.shared_conflict_degree - 1;
        }
      }
      const std::uint32_t degree = std::max(1u, res.shared_conflict_degree);
      sm.cycle += static_cast<std::uint64_t>(t_.shared_issue_cycles) * degree;
      ws.ready_cycle = sm.cycle;
      if (iv.is_load) {
        set_slot_ready(rb, w, iv.dst_slot, iv.width_words,
                       sm.cycle + t_.shared_result_latency_cycles, kRsnShared);
      }
      break;
    }
    case StepResult::Kind::kGlobal: {
      bool any_uncoalesced = false;
      const std::uint32_t half = spec_.half_warp;
      const std::uint32_t wbytes = width_bytes(res.width);
      std::array<std::uint32_t, 16> addrs{};
      const std::size_t seg_begin = segs_[sm_id].size();
      for (std::uint32_t h = 0; h < spec_.warp_size / half; ++h) {
        std::uint32_t active = 0;
        for (std::uint32_t k = 0; k < half; ++k) {
          const std::uint32_t lane = h * half + k;
          addrs[k] = res.lane_addrs[lane];
          if (res.mem_mask & (1u << lane)) active |= 1u << k;
        }
        if (active == 0) continue;
        MemRequest req{std::span<const std::uint32_t>(addrs.data(), half),
                       active, res.width, res.is_store};
        if (ctx.memo) {
          ctx.memo->lookup(req, ctx.scratch);
        } else {
          coalesce(req, opt_.driver, ctx.scratch);
        }
        ++stats.global_requests;
        if (ctx.scratch.coalesced) {
          ++stats.coalesced_requests;
        } else {
          ++stats.uncoalesced_requests;
          any_uncoalesced = true;
        }
        const double txn_overhead =
            t_.dram_txn_overhead_cycles(opt_.driver) *
            static_cast<double>(ctx.scratch.transactions.size());
        std::uint32_t req_bytes = 0;
        for (const Transaction& txn : ctx.scratch.transactions) {
          ++stats.global_transactions;
          stats.global_bytes += txn.bytes;
          req_bytes += txn.bytes;
        }
        if (attr_) {
          PcAttribution& a = ctx.attr[pc];
          ++a.global_requests;
          if (ctx.scratch.coalesced) {
            ++a.coalesced_requests;
          } else {
            ++a.uncoalesced_requests;
          }
          a.global_transactions += ctx.scratch.transactions.size();
          a.dram_bytes += req_bytes;
          for (std::uint32_t k = 0; k < half; ++k) {
            if (!(active & (1u << k))) continue;
            const std::uint64_t lo = addrs[k];
            a.addr_lo = std::min(a.addr_lo, lo);
            a.addr_hi = std::max(a.addr_hi, lo + wbytes);
          }
        }
        if (sink_ != nullptr) {
          emit(sm_id, issue_start,
               TimelineSink::GlobalRequest{
                   sm_id, sm.cycle, ctx.scratch.coalesced,
                   static_cast<std::uint32_t>(ctx.scratch.transactions.size()),
                   req_bytes});
        }
        // DRAM stage: the controller merges accesses that hit the same
        // 128-byte row segment (row-buffer locality), so channel occupancy
        // is per unique segment and proportional to the bytes actually
        // used - independent of how the driver generation packaged the
        // request into transactions.
        std::array<std::uint32_t, 32> seg_base{};
        std::array<std::uint32_t, 32> seg_bytes{};
        std::size_t nsegs = 0;
        for (std::uint32_t k = 0; k < half; ++k) {
          if (!(active & (1u << k))) continue;
          const std::uint32_t seg = addrs[k] / 128u;
          bool found = false;
          for (std::size_t s = 0; s < nsegs; ++s) {
            if (seg_base[s] == seg) {
              seg_bytes[s] = std::min(128u, seg_bytes[s] + wbytes);
              found = true;
              break;
            }
          }
          if (!found && nsegs < seg_base.size()) {
            seg_base[nsegs] = seg;
            seg_bytes[nsegs] = std::min(128u, wbytes);
            ++nsegs;
          }
        }
        for (std::size_t s = 0; s < nsegs; ++s) {
          const std::size_t p =
              (static_cast<std::uint64_t>(seg_base[s]) * 128u /
               t_.partition_stride_bytes) %
              channel_.size();
          const double service =
              txn_overhead / static_cast<double>(nsegs) +
              static_cast<double>(seg_bytes[s]) * channel_cycles_per_byte_;
          segs_[sm_id].push_back(
              DeferredSeg{static_cast<std::uint32_t>(p), seg_bytes[s], service,
                          reserve_event(sm_id, issue_start)});
        }
      }
      // LSU occupancy per request, with the driver-generation dependent
      // uncoalesced handling penalty (see TimingParams).
      std::uint64_t port = t_.port_cycles(opt_.driver);
      if (any_uncoalesced) port += t_.uncoalesced_port_cycles(opt_.driver);
      sm.cycle += port;
      ws.ready_cycle = sm.cycle;  // non-blocking: warp keeps going
      const auto seg_count =
          static_cast<std::uint32_t>(segs_[sm_id].size() - seg_begin);
      std::uint64_t tail = t_.global_latency_cycles;
      if (any_uncoalesced) tail += t_.uncoalesced_latency_cycles(opt_.driver);
      if (seg_count == 0) {
        // No active lane touched DRAM: the data-back time is exact.
        if (iv.is_load) {
          const std::uint64_t data_back = sm.cycle + tail;
          set_slot_ready(rb, w, iv.dst_slot, iv.width_words, data_back,
                         kRsnGlobal);
          const std::size_t ring_base = static_cast<std::size_t>(w) * mshr_;
          rb.load_ring[ring_base + rb.load_ring_pos[w]] = data_back;
          rb.load_ring_pos[w] = (rb.load_ring_pos[w] + 1) % mshr_;
        }
        break;
      }
      DeferredReq r;
      r.key = issue_start;
      r.chan_floor = static_cast<double>(issue_start);  // pre-port clock
      r.comp_floor = sm.cycle;  // post-port; subsumes the pre-port floor
      r.per_seg_extra = 1;
      r.tail = tail;
      r.seg_begin = static_cast<std::uint32_t>(seg_begin);
      r.seg_count = seg_count;
      r.rb_slot = static_cast<std::uint32_t>(slot);
      r.generation = rb.generation;
      r.warp = w;
      if (iv.is_load) {
        r.dst_slot = iv.dst_slot;
        r.width_words = iv.width_words;
        set_slot_ready(rb, w, iv.dst_slot, iv.width_words, kNever,
                       kRsnGlobal);
        const std::size_t ring_base = static_cast<std::size_t>(w) * mshr_;
        r.ring_idx =
            static_cast<std::uint32_t>(ring_base + rb.load_ring_pos[w]);
        rb.load_ring[r.ring_idx] = kNever;
        rb.load_ring_pos[w] = (rb.load_ring_pos[w] + 1) % mshr_;
      }
      reqs_[sm_id].push_back(r);
      break;
    }
    case StepResult::Kind::kLocal: {
      ++stats.local_requests;
      // spills are lane-interleaved: one frame word across 32 lanes is a
      // 128-byte consecutive run = two coalesced 64B transactions
      sm.cycle += t_.port_cycles(opt_.driver);
      ws.ready_cycle = sm.cycle;
      if (attr_) ctx.attr[pc].dram_bytes += 128;  // 2 x 64B fills
      const std::size_t seg_begin = segs_[sm_id].size();
      for (int half_idx = 0; half_idx < 2; ++half_idx) {
        const std::size_t p =
            (static_cast<std::size_t>(res.lane_addrs[0]) /
                 t_.partition_stride_bytes +
             static_cast<std::size_t>(half_idx)) %
            channel_.size();
        const double service = 64.0 * channel_cycles_per_byte_;
        stats.global_bytes += 64;
        segs_[sm_id].push_back(DeferredSeg{static_cast<std::uint32_t>(p), 64,
                                           service,
                                           reserve_event(sm_id, issue_start)});
      }
      DeferredReq r;
      r.key = issue_start;
      r.chan_floor = static_cast<double>(sm.cycle);  // post-port clock
      r.comp_floor = sm.cycle;
      r.per_seg_extra = 1;
      r.tail = t_.global_latency_cycles;
      r.seg_begin = static_cast<std::uint32_t>(seg_begin);
      r.seg_count = 2;
      r.rb_slot = static_cast<std::uint32_t>(slot);
      r.generation = rb.generation;
      r.warp = w;
      r.base_reason = kRsnLocal;
      if (iv.is_load) {
        r.dst_slot = iv.dst_slot;
        r.width_words = 1;
        set_slot_ready(rb, w, iv.dst_slot, 1, kNever, kRsnLocal);
      }
      reqs_[sm_id].push_back(r);
      break;
    }
    case StepResult::Kind::kConst: {
      ++stats.const_requests;
      // distinct addresses serialize through the constant cache
      std::uint32_t distinct = 0;
      std::array<std::uint32_t, 32> seen{};
      for (std::uint32_t l = 0; l < spec_.warp_size; ++l) {
        if (!(res.mem_mask & (1u << l))) continue;
        bool dup = false;
        for (std::uint32_t k = 0; k < distinct; ++k) {
          if (seen[k] == res.lane_addrs[l]) {
            dup = true;
            break;
          }
        }
        if (!dup) seen[distinct++] = res.lane_addrs[l];
      }
      const std::uint64_t cost =
          static_cast<std::uint64_t>(t_.const_serialize_cycles) *
          std::max(1u, distinct);
      sm.cycle += cost;
      ws.ready_cycle = sm.cycle;
      set_slot_ready(rb, w, iv.dst_slot, iv.width_words,
                     sm.cycle + t_.alu_result_latency_cycles, kRsnConst);
      break;
    }
    case StepResult::Kind::kTex: {
      ++stats.tex_requests;
      sm.cycle += t_.alu_issue_cycles;
      ws.ready_cycle = sm.cycle;
      const std::uint32_t max_lines =
          std::max(1u, t_.tex_cache_bytes / t_.tex_line_bytes);
      const std::uint64_t completion = sm.cycle + t_.tex_hit_latency_cycles;
      const std::uint32_t wbytes = width_bytes(res.width);
      const std::size_t seg_begin = segs_[sm_id].size();
      for (std::uint32_t l = 0; l < spec_.warp_size; ++l) {
        if (!(res.mem_mask & (1u << l))) continue;
        for (std::uint32_t b = res.lane_addrs[l] / t_.tex_line_bytes;
             b <= (res.lane_addrs[l] + wbytes - 1) / t_.tex_line_bytes; ++b) {
          auto it = std::find(sm.tex_lines.begin(), sm.tex_lines.end(), b);
          if (it != sm.tex_lines.end()) {
            ++stats.tex_hits;
            sm.tex_lines.erase(it);
            sm.tex_lines.insert(sm.tex_lines.begin(), b);
            continue;
          }
          ++stats.tex_misses;
          // fetch the line from DRAM
          const std::size_t p =
              (static_cast<std::uint64_t>(b) * t_.tex_line_bytes /
               t_.partition_stride_bytes) %
              channel_.size();
          const double service =
              static_cast<double>(t_.tex_line_bytes) * channel_cycles_per_byte_;
          stats.global_bytes += t_.tex_line_bytes;
          if (attr_) ctx.attr[pc].dram_bytes += t_.tex_line_bytes;
          segs_[sm_id].push_back(
              DeferredSeg{static_cast<std::uint32_t>(p), t_.tex_line_bytes,
                          service, reserve_event(sm_id, issue_start)});
          sm.tex_lines.insert(sm.tex_lines.begin(), b);
          if (sm.tex_lines.size() > max_lines) sm.tex_lines.pop_back();
        }
      }
      if (segs_[sm_id].size() == seg_begin) {
        // Every line hit the cache: completion is exact.
        set_slot_ready(rb, w, iv.dst_slot, iv.width_words, completion,
                       kRsnTex);
        break;
      }
      DeferredReq r;
      r.key = issue_start;
      r.chan_floor = static_cast<double>(sm.cycle);  // post-issue clock
      r.comp_floor = completion;  // the hit-latency floor
      r.per_seg_extra = t_.global_latency_cycles;
      r.tail = 0;
      r.seg_begin = static_cast<std::uint32_t>(seg_begin);
      r.seg_count = static_cast<std::uint32_t>(segs_[sm_id].size() - seg_begin);
      r.rb_slot = static_cast<std::uint32_t>(slot);
      r.generation = rb.generation;
      r.warp = w;
      r.base_reason = kRsnTex;
      r.dst_slot = iv.dst_slot;
      r.width_words = iv.width_words;
      set_slot_ready(rb, w, iv.dst_slot, iv.width_words, kNever, kRsnTex);
      reqs_[sm_id].push_back(r);
      break;
    }
    case StepResult::Kind::kBarrier:
      ++stats.barriers;
      sm.cycle += t_.alu_issue_cycles;
      ws.ready_cycle = sm.cycle;
      if (sink_ != nullptr) rb.barrier_arrive[w] = sm.cycle;
      break;
    case StepResult::Kind::kExit:
      sm.cycle += t_.alu_issue_cycles;
      ws.ready_cycle = sm.cycle;
      if (exec.all_done()) {
        // The grid block queue is shared state: park, and let the bucket
        // driver hand out block ids in (pre-step cycle, SM id) order.
        sm.park = Park::kDispatch;
        sm.park_order = issue_start;
        sm.park_slot = slot;
        sm.park_when = sm.cycle;
        sm.park_event = reserve_event(sm_id, issue_start);
      }
      break;
  }
  stats.sm_issue_cycles += sm.cycle - issue_start;
  if (classify_) rb.warp_reason[w] = kRsnIssuePort;
  if (attr_) {
    PcAttribution& a = ctx.attr[pc];
    ++a.issues;
    a.issue_cycles += sm.cycle - issue_start;
  }
  if (sink_ != nullptr) {
    emit(sm_id, issue_start,
         TimelineSink::IssueSpan{sm_id, static_cast<std::uint32_t>(slot), w,
                                 instr_class(res.op), issue_start, sm.cycle});
  }
}

// Steps one SM until it leaves the bucket, parks, or runs out of work.
void TimedRun::run_sm(Sm& sm, std::uint32_t sm_id, WorkerCtx& ctx) {
  while (sm.park == Park::kNone && sm.cycle < bucket_end_ && sm.any_work) {
    sm_step(sm, sm_id, ctx);
  }
}

// One worker's share of a bucket: the statically owned SMs (worker w owns
// SMs w, w + T, w + 2T, ...). The static map keeps per-worker memo hit
// counts reproducible for a given thread count.
void TimedRun::worker_phase(std::uint32_t w) {
  for (std::uint32_t s = w; s < n_sms_; s += nthreads_) {
    run_sm(sms_[s], s, workers_[w]);
  }
}

// Resolves blocks retired during the bucket in (pre-step cycle of the
// exit, SM id) order: repeatedly the smallest parked dispatch gets the next
// block id and its SM resumes to the bucket end.
// This is safe to run after the parallel phase because an SM's in-bucket
// step sequence never reads another SM's state, so resuming one SM at a
// time cannot change what any other SM already did.
void TimedRun::dispatch_waves() {
  while (true) {
    std::int64_t pick = -1;
    for (std::uint32_t s = 0; s < n_sms_; ++s) {
      if (sms_[s].park != Park::kDispatch) continue;
      if (pick < 0 ||
          sms_[s].park_order < sms_[static_cast<std::size_t>(pick)].park_order) {
        pick = s;
      }
    }
    if (pick < 0) break;
    Sm& sm = sms_[static_cast<std::size_t>(pick)];
    const auto sm_id = static_cast<std::uint32_t>(pick);
    sm.park = Park::kNone;
    do_dispatch(sm, sm.park_slot, sm_id, sm.park_when, sm.park_event);
    sm.park_event = kNoEvent;
    run_sm(sm, sm_id, workers_[sm_id % nthreads_]);
  }
}

// Applies the bucket's deferred DRAM traffic to the partition busy-until
// times in (pre-step cycle, SM id, record index) order and writes the exact
// completion cycles into the waiting scoreboard/MSHR entries. That order
// does not depend on the thread count, and identical operands combined in
// an identical order make the floating-point busy-until timeline
// bit-identical.
void TimedRun::merge_deferred() {
  for (const StepOrder& ref : step_order(reqs_)) {
    const DeferredReq& r = reqs_[ref.sm][ref.idx];
    std::uint64_t comp = r.comp_floor;
    bool queued = false;
    for (std::uint32_t k = 0; k < r.seg_count; ++k) {
      const DeferredSeg& g = segs_[ref.sm][r.seg_begin + k];
      const double start = std::max(channel_[g.partition], r.chan_floor);
      // chan_floor is the SM clock at which the request reached the
      // channel, so this is the queued test made at issue time.
      if (classify_ && start > r.chan_floor) queued = true;
      const double end = start + g.service;
      channel_[g.partition] = end;
      if (g.event_idx != kNoEvent) {
        events_[ref.sm][g.event_idx].span =
            TimelineSink::DramSpan{g.partition, g.bytes, start, end};
      }
      comp = std::max(comp, static_cast<std::uint64_t>(end) + r.per_seg_extra);
    }
    if (r.dst_slot != kNoSlot || r.ring_idx != kNoRing) {
      ResidentBlock& rb = sms_[ref.sm].slots[r.rb_slot];
      if (rb.generation == r.generation) {
        const std::uint64_t value = comp + r.tail;
        set_slot_ready(rb, r.warp, r.dst_slot, r.width_words, value,
                       queued ? kRsnDramBusy : r.base_reason);
        if (r.ring_idx != kNoRing) rb.load_ring[r.ring_idx] = value;
      }
    }
  }
  for (std::uint32_t s = 0; s < n_sms_; ++s) {
    reqs_[s].clear();
    segs_[s].clear();
  }
}

// Completes stalls parked in the previous bucket: with the merge done every
// scoreboard entry is concrete, so re-running the warp pick yields the
// exact stall window, charged and emitted once as one step.
void TimedRun::finish_parked_stalls() {
  for (std::uint32_t s = 0; s < n_sms_; ++s) {
    Sm& sm = sms_[s];
    if (sm.park != Park::kStall) continue;
    sm.park = Park::kNone;
    WorkerCtx& ctx = workers_[s % nthreads_];
    const Pick pick = pick_warp(sm);
    VGPU_EXPECTS_MSG(pick.chosen < 0 && !pick.pending,
                     "parked stall resolved to an issueable warp");
    charge_stall(sm, s, ctx, pick.next_event);
  }
}

// Main loop. The bucket width is the global memory latency: any DRAM
// completion recorded at cycle >= base resolves at or after base + latency
// = bucket end, so within a bucket "in flight" is the exact answer and SMs
// only interact at the bucket boundaries, on the calling thread - the
// merge, the parked stalls, and the dispatch waves. A zero latency gives
// one-cycle buckets: every step's port or issue time is at least a cycle,
// so its completions still land at or after the bucket end. At one thread
// the pool has no thread of its own and the caller steps every SM.
void TimedRun::run_buckets() {
  const std::uint64_t window = std::max<std::uint64_t>(1, t_.global_latency_cycles);
  WorkerPool pool(nthreads_ - 1, [this](std::uint32_t w) { worker_phase(w); });
  while (true) {
    merge_deferred();
    finish_parked_stalls();
    std::uint64_t base = kNever;
    for (std::uint32_t s = 0; s < n_sms_; ++s) {
      if (sms_[s].any_work) base = std::min(base, sms_[s].cycle);
    }
    if (base == kNever) break;
    bucket_end_ = base + window;
    pool.round();
    dispatch_waves();
  }
}

// Replays the buffered sink events in (pre-step cycle, SM id, buffer index)
// order.
void TimedRun::flush_events() {
  for (const StepOrder& ref : step_order(events_)) {
    std::visit([this](const auto& span) { forward(span); },
               events_[ref.sm][ref.idx].span);
  }
}

LaunchStats TimedRun::run() {
  VGPU_EXPECTS_MSG(prog_.allocated, "timing run requires an allocated program");
  VGPU_EXPECTS_MSG(params_.size() == prog_.num_params,
                   "parameter count mismatch");
  // An empty grid has no cycles to extrapolate (and blocks_total /
  // blocks_simulated would be 0/0 = NaN, silently poisoning every consumer
  // of extrapolation_factor).
  VGPU_EXPECTS_MSG(cfg_.grid_blocks >= 1,
                   "timed launch requires a non-empty grid");

  const OccupancyResult occ = compute_occupancy(
      spec_, cfg_.block_threads, prog_.num_phys_regs, prog_.shared_bytes);
  VGPU_EXPECTS_MSG(occ.blocks_per_sm >= 1, "kernel does not fit on an SM");

  n_sms_ = opt_.sim_sms == 0 ? spec_.sm_count
                             : std::min(opt_.sim_sms, spec_.sm_count);
  const std::uint64_t dram_bpc = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(t_.dram_bytes_per_cycle) * n_sms_ /
             spec_.sm_count);

  const std::uint32_t blocks_total = cfg_.grid_blocks;
  blocks_to_sim_ = opt_.max_blocks == 0
                       ? blocks_total
                       : std::min(blocks_total, opt_.max_blocks);

  stats_.blocks_total = blocks_total;
  stats_.blocks_simulated = blocks_to_sim_;
  stats_.extrapolation_factor =
      static_cast<double>(blocks_total) / static_cast<double>(blocks_to_sim_);
  stats_.occupancy = occ.occupancy;
  stats_.blocks_per_sm = occ.blocks_per_sm;

  warps_per_block_ = cfg_.block_threads / spec_.warp_size;
  mshr_ = std::max(1u, t_.max_outstanding_loads(opt_.driver));
  sink_ = opt_.sink;

  nthreads_ = std::min(std::max(1u, opt_.threads), n_sms_);

  if (sink_ != nullptr) {
    TimelineSink::RunInfo info;
    info.n_sms = n_sms_;
    info.warps_per_block = warps_per_block_;
    info.max_warps_per_sm = spec_.max_warps_per_sm();
    info.dram_partitions = t_.dram_partitions;
    info.core_clock_khz = spec_.core_clock_khz;
    info.blocks_per_sm = occ.blocks_per_sm;
    sink_->on_begin(info);
  }

  sms_.resize(n_sms_);
  channel_.assign(t_.dram_partitions, 0.0);
  channel_cycles_per_byte_ =
      static_cast<double>(t_.dram_partitions) / static_cast<double>(dram_bpc);

  if (!opt_.reference) {
    bool cache_hit = false;
    ck_ = acquire_compiled(prog_, /*use_cache=*/true, &cache_hit);
    ++(cache_hit ? stats_.decode_cache_hits : stats_.decode_cache_misses);
    decp_ = &ck_->decoded();
  }
  fast_ = decp_ != nullptr;
  // Per-PC attribution needs the decoded PC mapping (fast path only);
  // stall classification additionally feeds StallSpan reasons, so it runs
  // whenever a sink is attached, on either path.
  if (opt_.attribution != nullptr) *opt_.attribution = {};
  attr_ = opt_.attribution != nullptr && fast_;
  classify_ = attr_ || sink_ != nullptr;

  workers_.resize(nthreads_);
  for (WorkerCtx& ctx : workers_) {
    if (fast_) {
      ctx.memo.emplace(opt_.driver);
      ctx.cmemo.emplace(spec_.warp_size, spec_.half_warp,
                        spec_.shared_mem_banks);
    }
    if (attr_) ctx.attr.assign(decp_->instrs.size(), PcAttribution{});
    ctx.scratch.transactions.reserve(32);
  }
  reqs_.resize(n_sms_);
  segs_.resize(n_sms_);
  if (sink_ != nullptr) events_.resize(n_sms_);

  for (std::uint32_t s = 0; s < n_sms_; ++s) {
    sms_[s].slots.resize(occ.blocks_per_sm);
  }
  // breadth-first initial placement: block b goes to SM b % n_sms
  for (std::uint32_t k = 0; k < occ.blocks_per_sm; ++k) {
    for (std::uint32_t s = 0; s < n_sms_; ++s) {
      do_dispatch(sms_[s], k, s, 0, kNoEvent);
    }
  }

  run_buckets();

  if (trace_enabled()) {
    std::string line = "[vgpu] channels busy-until:";
    char buf[32];
    for (double c : channel_) {
      std::snprintf(buf, sizeof buf, " %.0f", c);
      line += buf;
    }
    line += "  sm cycles:";
    for (const Sm& sm : sms_) {
      std::snprintf(buf, sizeof buf, " %llu",
                    static_cast<unsigned long long>(sm.cycle));
      line += buf;
    }
    line += "\n";
    trace_write(line);
  }

  std::uint64_t end_cycle = 0;
  for (const Sm& sm : sms_) end_cycle = std::max(end_cycle, sm.cycle);
  stats_.cycles = end_cycle;
  for (const WorkerCtx& ctx : workers_) {
    accumulate_counters(stats_, ctx.stats);
    if (ctx.memo) {
      stats_.coalesce_memo_hits += ctx.memo->hits();
      stats_.coalesce_memo_misses += ctx.memo->misses();
    }
    if (ctx.cmemo) {
      stats_.conflict_memo_hits += ctx.cmemo->hits();
      stats_.conflict_memo_misses += ctx.cmemo->misses();
    }
  }
  if (attr_) {
    // Deterministic reduction: element-wise integer sums over the fixed
    // worker order, so the table is bit-identical at any thread count.
    Attribution& out = *opt_.attribution;
    out.pcs.assign(decp_->instrs.size(), PcAttribution{});
    for (const WorkerCtx& ctx : workers_) {
      for (std::size_t p = 0; p < out.pcs.size(); ++p) {
        out.pcs[p].merge_from(ctx.attr[p]);
      }
    }
    for (std::size_t b = 0; b < prog_.blocks.size(); ++b) {
      const std::size_t begin = decp_->block_start[b];
      const std::size_t end = b + 1 < prog_.blocks.size()
                                  ? decp_->block_start[b + 1]
                                  : decp_->instrs.size();
      for (std::size_t p = begin; p < end; ++p) {
        out.pcs[p].block = static_cast<std::uint32_t>(b);
        out.pcs[p].ip = static_cast<std::uint32_t>(p - begin);
        out.pcs[p].region = prog_.blocks[b].region;
      }
    }
    out.finalize_totals();
    out.collected = true;
  }
  if (sink_ != nullptr) {
    flush_events();
    sink_->on_end(end_cycle);
  }
  return stats_;
}

}  // namespace

LaunchStats run_timed(const Program& prog, const DeviceSpec& spec,
                      GlobalMemory& gmem, const LaunchConfig& cfg,
                      std::span<const std::uint32_t> params,
                      const TimingOptions& opt) {
  TimedRun run(prog, spec, gmem, cfg, params, opt);
  return run.run();
}

}  // namespace vgpu
