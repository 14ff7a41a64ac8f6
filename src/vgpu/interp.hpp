// interp.hpp - SIMT execution of one thread block.
//
// BlockExec holds the architectural state of one resident thread block
// (per-warp registers, predicates, divergence stacks, shared memory) and
// exposes a single-instruction stepper. Both executors are built on it:
// the functional executor (executor.hpp) runs warps to completion for
// numerical results, and the timing executor (timing.hpp) interleaves
// steps under a warp scheduler and charges cycle costs to each StepResult.
//
// Divergence uses a reconvergence stack driven by the `reconv` annotation
// the KernelBuilder attaches to conditional branches, the software analogue
// of the G80's SSY/join mechanism.
//
// Two execution paths share this state:
//   * the reference path interprets `Instruction` directly (step_ref), and
//   * the fast path (step_fast) dispatches off a pre-decoded stream
//     (decode.hpp) with operand slots already resolved, and is required to
//     be bit-identical to the reference in every architectural effect.
// Lane storage lives in per-block arenas owned by BlockExec (one
// allocation per block, not one per warp), and `reset()` lets executors
// reuse one BlockExec across the whole grid instead of reallocating.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "vgpu/arch.hpp"
#include "vgpu/ir.hpp"
#include "vgpu/launch.hpp"
#include "vgpu/memory.hpp"

namespace vgpu {

struct DecodedInstr;
struct DecodedProgram;
struct DecodedRun;
struct ThreadedProgram;
struct TraceProgram;
class ConflictMemo;

using Mask = std::uint32_t;
inline constexpr Mask kFullMask = 0xFFFFFFFFu;

/// One divergence-stack entry. `parked` collects lanes waiting at `reconv`;
/// `pending_mask`/`pending_block` describe a not-yet-executed alternate path.
struct DivEntry {
  BlockId reconv = kNoBlock;
  Mask parked = 0;
  Mask pending_mask = 0;
  BlockId pending_block = kNoBlock;
};

struct WarpState {
  std::uint32_t index = 0;  ///< warp index within the block
  BlockId block = 0;
  std::uint32_t ip = 0;  ///< instruction index within the block
  Mask active = kFullMask;
  std::vector<DivEntry> stack;
  bool at_barrier = false;
  bool done = false;

  std::uint64_t ready_cycle = 0;  ///< used by the timing executor
  std::uint64_t issued = 0;       ///< dynamic warp instructions

  /// Lane storage: regs[slot * 32 + lane]; slot = Program::reg_base + comp.
  /// Points into the BlockExec-owned per-block arena.
  std::uint32_t* regs = nullptr;
  /// One 32-bit lane mask per predicate register (arena-backed).
  Mask* preds = nullptr;
  /// Per-thread local memory (spill frames): local[word * 32 + lane].
  std::uint32_t* local = nullptr;
};

/// What one instruction step did; the timing executor prices this.
struct StepResult {
  enum class Kind : std::uint8_t {
    kAlu, kGlobal, kShared, kConst, kTex, kLocal, kBarrier, kExit
  };
  Kind kind = Kind::kAlu;
  Region region = Region::kOther;
  Opcode op = Opcode::kExit;      ///< the executed opcode (for profiling)
  bool divergent_branch = false;  ///< kBraCond whose lanes split

  // memory step details (kGlobal / kShared)
  MemWidth width = MemWidth::kW32;
  bool is_store = false;
  Mask mem_mask = 0;                          ///< lanes that accessed memory
  std::array<std::uint32_t, 32> lane_addrs{};  ///< byte addresses per lane
  std::uint32_t shared_conflict_degree = 0;    ///< max serialization degree
};

/// Per-block launch parameters handed to BlockExec.
struct BlockParams {
  std::uint32_t block_id = 0;
  LaunchConfig cfg;
  std::span<const std::uint32_t> params;
  std::uint32_t sm_id = 0;
  /// Read-only constant space (may be null when the kernel uses none).
  const ConstantMemory* cmem = nullptr;
};

class BlockExec {
 public:
  /// When `dec` is non-null it must be `decode(prog)`; step() then runs the
  /// fast pre-decoded path. With `dec == nullptr` the reference interpreter
  /// runs.
  BlockExec(const Program& prog, const DeviceSpec& spec, GlobalMemory& gmem,
            const BlockParams& bp, const DecodedProgram* dec = nullptr);

  BlockExec(const BlockExec&) = delete;
  BlockExec& operator=(const BlockExec&) = delete;

  /// Rewind to the launch state for another block of the same kernel:
  /// zeroes lane storage and shared memory, resets every warp. Equivalent
  /// to constructing a fresh BlockExec with `bp`, without the allocations.
  void reset(const BlockParams& bp);

  [[nodiscard]] std::uint32_t num_warps() const {
    return static_cast<std::uint32_t>(warps_.size());
  }
  [[nodiscard]] WarpState& warp(std::uint32_t w) { return warps_[w]; }
  [[nodiscard]] const WarpState& warp(std::uint32_t w) const { return warps_[w]; }

  /// Execute the current instruction of warp `w`. `now` feeds the kClock
  /// probe (simulated cycle in timing mode, pseudo-time in functional mode).
  StepResult step(std::uint32_t w, std::uint64_t now);

  /// Batched dispatch: when warp `w` is fully converged and sits at the
  /// start of a non-empty straight-line run (DecodedRun), execute the whole
  /// run in one call and return its pre-aggregated accounting; returns
  /// nullptr when batching does not apply (no run programs installed, warp
  /// done or at a barrier, divergent mask, or a zero-length run) and the
  /// caller must fall back to step(). Runs contain no clock reads, no memory
  /// accesses and no control flow, so no `now` is needed and no StepResult
  /// is produced; `issued` and `ip` advance by the run length, keeping the
  /// functional executor's pseudo-time identical to single stepping.
  ///
  /// Boundary-step fusion: when the run's terminator is a fusable memory
  /// op (DecodedRun::fuse_boundary), the terminator executes in the same
  /// call - `fused` is filled exactly as step() would have and `fused_done`
  /// set true. The caller accounts `fused` as it would a separate step;
  /// with `fused_done` false nothing past the run executed. Architectural
  /// effects are bit-identical to the separate step() call.
  const DecodedRun* step_run(std::uint32_t w, StepResult& fused,
                             bool& fused_done);

  /// Install the compiled programs step_run dispatches through: the
  /// threaded-code stream (threaded.hpp) and its superblock traces
  /// (traces.hpp), both built from the DecodedProgram this BlockExec was
  /// constructed with. Runs starting at a trace head execute through
  /// exec_trace, incrementing `*entered` per call (the `traces_entered`
  /// stat); every other run goes through the threaded loop. Both are
  /// bit-identical to single stepping in every architectural effect.
  void set_run_programs(const ThreadedProgram& tp, const TraceProgram& traces,
                        std::uint64_t* entered) {
    threaded_ = &tp;
    traces_ = &traces;
    trace_hits_ = entered;
  }

  /// Install a bank-conflict memo consulted by the fast path's shared-memory
  /// steps (nullptr = compute degrees directly). The memo must be bound to
  /// this device's warp geometry and bank count, and must not be shared
  /// across threads.
  void set_conflict_memo(ConflictMemo* memo) { cmemo_ = memo; }

  /// The instruction warp `w` would execute next (nullptr when the warp is
  /// done or parked at a barrier). The timing executor uses this to check
  /// scoreboard dependencies before issuing.
  [[nodiscard]] const Instruction* peek(std::uint32_t w) const;

  /// Pre-decoded twin of peek(); only valid when constructed with a
  /// DecodedProgram.
  [[nodiscard]] const DecodedInstr* peek_decoded(std::uint32_t w) const;

  [[nodiscard]] bool decoded() const { return dec_ != nullptr; }

  /// Register-file slot of an operand (base + component), for scoreboarding.
  [[nodiscard]] std::uint32_t operand_slot(const Operand& o, std::uint8_t extra = 0) const {
    return prog_.reg_base[o.reg] + o.comp + extra;
  }
  [[nodiscard]] const Program& program() const { return prog_; }

  [[nodiscard]] bool all_done() const;
  /// True when every warp is either done or waiting at the barrier and at
  /// least one warp waits (i.e. the barrier may be released).
  [[nodiscard]] bool barrier_releasable() const;
  void release_barrier();

 private:
  StepResult step_ref(std::uint32_t w, std::uint64_t now);
  StepResult step_fast(std::uint32_t w, std::uint64_t now);
  /// Fused execution of a run-terminating memory op on a converged warp
  /// (decode.cpp::fusable_boundary): the memory cases of step_fast with the
  /// guard evaluation and convergence test specialized away, writing into a
  /// caller-owned StepResult. Effects are exactly step_fast's.
  void exec_boundary(const DecodedInstr& d, WarpState& ws, StepResult& out);
  /// Architectural effects of one decoded register-ALU instruction (the
  /// batchable subset plus the clock/special reads step_fast routes here).
  void exec_alu(const DecodedInstr& d, WarpState& ws, Mask exec,
                bool converged, std::uint32_t base_thread, std::uint64_t now);

  void transfer(WarpState& ws, BlockId next);
  void park(WarpState& ws, BlockId reconv, Mask m);

  [[nodiscard]] std::uint32_t slot(const Operand& o, std::uint8_t extra = 0) const {
    return prog_.reg_base[o.reg] + o.comp + extra;
  }
  [[nodiscard]] std::uint32_t& lane_reg(WarpState& ws, const Operand& o,
                                        std::uint32_t lane, std::uint8_t extra = 0) {
    return ws.regs[slot(o, extra) * 32u + lane];
  }

  const Program& prog_;
  const DeviceSpec& spec_;
  GlobalMemory& gmem_;
  BlockParams bp_;
  SharedMemory smem_;
  std::vector<WarpState> warps_;

  const DecodedProgram* dec_ = nullptr;
  const ThreadedProgram* threaded_ = nullptr;  ///< step_run dispatch
  const TraceProgram* traces_ = nullptr;       ///< step_run trace heads
  std::uint64_t* trace_hits_ = nullptr;        ///< counts exec_trace entries
  ConflictMemo* cmemo_ = nullptr;  ///< optional, fast path only
  /// Mask of lanes that exist at this warp size; `exec` covering all of
  /// them enables the convergence fast path (no per-lane mask tests).
  Mask full_mask_ = kFullMask;
  std::uint32_t local_words_ = 0;  ///< per-thread local frame, in words

  // Flattened per-block lane storage; WarpState pointers index into these.
  std::vector<std::uint32_t> reg_arena_;
  std::vector<Mask> pred_arena_;
  std::vector<std::uint32_t> local_arena_;
};

}  // namespace vgpu
