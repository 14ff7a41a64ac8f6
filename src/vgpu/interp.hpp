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
//   * the fast path runs a kernel's compiled programs (progcache.hpp,
//     CompiledKernel): step_fast dispatches off the pre-decoded stream
//     (decode.hpp) and executes memory ops, control flow and clock reads
//     itself, every other instruction through its compiled handler
//     (threaded.hpp, exec_op); whole runs of a converged warp execute
//     through their superblock traces (traces.hpp). It is required to be
//     bit-identical to the reference in every architectural effect.
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
struct ThreadedCtx;
struct ThreadedProgram;
struct TraceProgram;
class CompiledKernel;
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

  /// Run instructions issued for timing only (BlockExec::issue_timing_only)
  /// whose values have not executed yet: `pending_len` decoded instructions
  /// from `pending_first`. Always empty outside the timing executor.
  std::uint32_t pending_first = 0;
  std::uint32_t pending_len = 0;

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
  Mask mem_mask = 0;  ///< lanes that accessed memory
  /// Byte addresses of the warp's lanes in `mem_mask` (kGlobal, kShared,
  /// kConst, kTex). Other entries are left unwritten - a fresh StepResult
  /// would otherwise zero-fill 128 bytes per step - and local ops carry no
  /// address at all, so readers stop at the warp size and mask with
  /// `mem_mask`.
  std::array<std::uint32_t, 32> lane_addrs;
  std::uint32_t shared_conflict_degree = 0;  ///< max serialization degree
};

/// What one BlockExec::step_run call executed: `run` `times` times, and
/// `branches` uniform branches that ended an execution (`times - 1` or
/// `times` of them). `run` is null when the call executed nothing.
struct RunSteps {
  const DecodedRun* run = nullptr;
  std::uint32_t times = 0;
  std::uint32_t branches = 0;
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
  /// When `ck` is non-null it must be compiled from `prog`; step() then
  /// runs the fast path through its programs, and every whole run that
  /// executes through a trace increments `*traces_entered` (the
  /// `traces_entered` stat; required with `ck`). With `ck == nullptr` the
  /// reference interpreter runs.
  BlockExec(const Program& prog, const DeviceSpec& spec, GlobalMemory& gmem,
            const BlockParams& bp, const CompiledKernel* ck = nullptr,
            std::uint64_t* traces_entered = nullptr);

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
  /// On the fast path the warp's pending range (issue_timing_only) executes
  /// first, so no step reads a register whose write is still pending.
  StepResult step(std::uint32_t w, std::uint64_t now);

  /// Timing-only issue (the timing executor's fast path): when warp `w` is
  /// fully converged and its current instruction lies inside a straight-line
  /// run (DecodedRun), advance `ip` and `issued` past it without executing
  /// it, append it to the warp's pending range and return its decoded form
  /// for pricing. Returns nullptr - nothing changed, the caller must step()
  /// - on the reference path, when the mask is divergent, or when the
  /// instruction is not in a run. Defined inline in decode.hpp, where
  /// DecodedProgram is complete: it runs once per issued run instruction.
  ///
  /// A warp's mask changes only at branches, so a warp converged at a run
  /// instruction was converged at the run's head and issues the whole run
  /// this way. A run writes only the warp's own registers and predicates,
  /// first read by the warp's own next step() - the run's terminator -
  /// which executes the pending range first, once, through the run's trace
  /// as step_run would. Its one outside input, a warp-uniform
  /// shared load, is kept exact by the shared store of another warp, which
  /// executes the pending range before it writes
  /// (execute_pending_shared_loads).
  inline const DecodedInstr* issue_timing_only(std::uint32_t w);

  /// Batched dispatch (the functional executor's fast path): when warp `w`
  /// is fully converged and sits at the start of a non-empty straight-line
  /// run (DecodedRun), execute the whole run in one call and return its
  /// pre-aggregated accounting; returns a null `run` when batching does not
  /// apply (the reference path, warp done or at a barrier, divergent mask,
  /// or a zero-length run) and the caller must fall back to step().
  /// Runs contain no clock reads, no stores, no memory access but
  /// warp-uniform shared loads, and no control flow, so no `now` is needed
  /// and no StepResult is produced (the caller accounts the run's shared
  /// loads from DecodedRun::shared_loads); `issued` and `ip` advance by the
  /// run length, keeping the functional executor's pseudo-time identical to
  /// single stepping.
  ///
  /// Back-edge continuation: when the terminator is a `bra`, or a
  /// `bra.cond` on which every active lane agrees, the branch executes in
  /// the same call, as step() would execute it (`issued` counts it), and
  /// when it lands the still converged warp on the head of the run just
  /// executed - a loop's back-edge - the run executes again. The result
  /// counts the executions and branches; each branch is a control
  /// instruction of the run's region. With `branches == times` the warp has
  /// moved past the last branch and the caller asks step_run again; with
  /// `branches < times` the warp stands at the run's terminator - one that
  /// is not a branch, or a divergent one - for step(). Architectural
  /// effects are bit-identical to single stepping.
  RunSteps step_run(std::uint32_t w);

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
  /// DecodedProgram. Defined inline in decode.hpp, like issue_timing_only.
  [[nodiscard]] inline const DecodedInstr* peek_decoded(std::uint32_t w) const;

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
  /// Everything a compiled handler reads besides the warp's register and
  /// predicate files, for warp `ws` executing the lanes of `active`.
  [[nodiscard]] ThreadedCtx handler_ctx(const WarpState& ws,
                                        Mask active) const;
  /// Execute `len` decoded run instructions from `first` on a converged
  /// warp: a whole run through its superblock trace, any other range (the
  /// shared-store flush's) one instruction at a time through exec_op.
  void exec_run(WarpState& ws, std::uint32_t first, std::uint32_t len);
  /// Before a shared store of `storer`: execute every other warp's pending
  /// range that holds a shared load (the timing executor's one cross-warp
  /// hazard; see interp.cpp).
  void execute_pending_shared_loads(const WarpState& storer);

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

  // The compiled kernel's programs; all null on the reference path.
  const DecodedProgram* dec_ = nullptr;
  const ThreadedProgram* threaded_ = nullptr;  ///< exec_op's handlers
  const TraceProgram* traces_ = nullptr;       ///< one trace per run head
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
