#include "vgpu/interp.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "vgpu/check.hpp"
#include "vgpu/decode.hpp"
#include "vgpu/memo.hpp"
#include "vgpu/opclass.hpp"
#include "vgpu/progcache.hpp"
#include "vgpu/threaded.hpp"
#include "vgpu/traces.hpp"

namespace vgpu {

namespace {

[[nodiscard]] float as_f32(std::uint32_t v) { return std::bit_cast<float>(v); }
[[nodiscard]] std::uint32_t as_u32(float v) { return std::bit_cast<std::uint32_t>(v); }

// The reference path evaluates kSetp through eval_cmp (opclass.hpp), whose
// operators the fast path's setp_lanes applies too; these aliases keep the
// call site below readable.
[[nodiscard]] bool cmp_u32(CmpOp op, std::uint32_t a, std::uint32_t b) {
  return eval_cmp(op, a, b);
}

[[nodiscard]] bool cmp_f32(CmpOp op, float a, float b) {
  return eval_cmp(op, a, b);
}

}  // namespace

BlockExec::BlockExec(const Program& prog, const DeviceSpec& spec,
                     GlobalMemory& gmem, const BlockParams& bp,
                     const CompiledKernel* ck, std::uint64_t* traces_entered)
    : prog_(prog),
      spec_(spec),
      gmem_(gmem),
      bp_(bp),
      smem_(std::max(prog.shared_bytes, 4u), spec.shared_mem_banks),
      dec_(ck != nullptr ? &ck->decoded() : nullptr),
      threaded_(ck != nullptr ? &ck->threaded() : nullptr),
      traces_(ck != nullptr ? &ck->traces() : nullptr),
      trace_hits_(traces_entered) {
  VGPU_EXPECTS_MSG(ck == nullptr || traces_entered != nullptr,
                   "the fast path needs a traces_entered counter");
  VGPU_EXPECTS_MSG(bp.cfg.block_threads % spec.warp_size == 0,
                   "block size must be a warp multiple");
  VGPU_EXPECTS_MSG(bp.cfg.block_threads <= spec.max_threads_per_block,
                   "block size exceeds device limit");
  VGPU_EXPECTS_MSG(prog.reg_file_size > 0 || prog.regs.empty(),
                   "program has no register layout (finish/allocate first)");
  full_mask_ = spec.warp_size >= 32 ? kFullMask : ((1u << spec.warp_size) - 1u);
  local_words_ = (prog.local_bytes + 3) / 4;

  const std::uint32_t warps = bp.cfg.block_threads / spec.warp_size;
  const std::size_t reg_words = static_cast<std::size_t>(prog.reg_file_size) * 32u;
  const std::size_t local_words = static_cast<std::size_t>(local_words_) * 32u;
  reg_arena_.assign(reg_words * warps, 0u);
  pred_arena_.assign(static_cast<std::size_t>(prog.num_preds) * warps, 0u);
  local_arena_.assign(local_words * warps, 0u);

  warps_.resize(warps);
  for (std::uint32_t w = 0; w < warps; ++w) {
    WarpState& ws = warps_[w];
    ws.index = w;
    ws.regs = reg_arena_.data() + reg_words * w;
    ws.preds = pred_arena_.data() + static_cast<std::size_t>(prog.num_preds) * w;
    ws.local = local_arena_.data() + local_words * w;
  }
}

void BlockExec::reset(const BlockParams& bp) {
  VGPU_EXPECTS_MSG(bp.cfg.block_threads == bp_.cfg.block_threads,
                   "reset must keep the block shape");
  bp_ = bp;
  smem_.clear();
  std::fill(reg_arena_.begin(), reg_arena_.end(), 0u);
  std::fill(pred_arena_.begin(), pred_arena_.end(), 0u);
  std::fill(local_arena_.begin(), local_arena_.end(), 0u);
  for (WarpState& ws : warps_) {
    VGPU_EXPECTS_MSG(ws.pending_len == 0,
                     "reset with a pending timing-only range");
    ws.block = 0;
    ws.ip = 0;
    ws.active = kFullMask;
    ws.stack.clear();
    ws.at_barrier = false;
    ws.done = false;
    ws.ready_cycle = 0;
    ws.issued = 0;
  }
}

bool BlockExec::all_done() const {
  for (const WarpState& w : warps_) {
    if (!w.done) return false;
  }
  return true;
}

bool BlockExec::barrier_releasable() const {
  bool any_waiting = false;
  for (const WarpState& w : warps_) {
    if (w.done) continue;
    if (!w.at_barrier) return false;
    any_waiting = true;
  }
  return any_waiting;
}

void BlockExec::release_barrier() {
  for (WarpState& w : warps_) w.at_barrier = false;
}

void BlockExec::park(WarpState& ws, BlockId reconv, Mask m) {
  if (!ws.stack.empty() && ws.stack.back().reconv == reconv) {
    ws.stack.back().parked |= m;
  } else {
    ws.stack.push_back(DivEntry{reconv, m, 0, kNoBlock});
  }
}

const Instruction* BlockExec::peek(std::uint32_t w) const {
  const WarpState& ws = warps_[w];
  if (ws.done || ws.at_barrier) return nullptr;
  return &prog_.blocks[ws.block].instrs[ws.ip];
}

void BlockExec::transfer(WarpState& ws, BlockId next) {
  while (!ws.stack.empty() && ws.stack.back().reconv == next) {
    DivEntry& top = ws.stack.back();
    top.parked |= ws.active;
    if (top.pending_mask != 0) {
      ws.active = top.pending_mask;
      next = top.pending_block;
      top.pending_mask = 0;
      continue;
    }
    ws.active = top.parked;
    ws.stack.pop_back();
  }
  ws.block = next;
  ws.ip = 0;
}

StepResult BlockExec::step(std::uint32_t w, std::uint64_t now) {
  return dec_ != nullptr ? step_fast(w, now) : step_ref(w, now);
}

StepResult BlockExec::step_ref(std::uint32_t w, std::uint64_t now) {
  WarpState& ws = warps_[w];
  VGPU_EXPECTS_MSG(!ws.done, "stepping a finished warp");
  VGPU_EXPECTS_MSG(!ws.at_barrier, "stepping a warp parked at a barrier");
  const Block& blk = prog_.blocks[ws.block];
  const Instruction& in = blk.instrs[ws.ip];

  StepResult res;
  res.region = blk.region;
  res.op = in.op;
  ++ws.issued;

  Mask exec = ws.active;
  if (in.guard != kNoPred) {
    const Mask g = ws.preds[in.guard];
    exec &= in.guard_negated ? ~g : g;
  }

  const std::uint32_t warp_size = spec_.warp_size;
  const std::uint32_t base_thread = ws.index * warp_size;

  auto for_lanes = [&](auto&& fn) {
    for (std::uint32_t lane = 0; lane < warp_size; ++lane) {
      if (exec & (1u << lane)) fn(lane);
    }
  };

  switch (in.op) {
    // ---- f32 -------------------------------------------------------------
    case Opcode::kFAdd:
      for_lanes([&](std::uint32_t l) {
        lane_reg(ws, in.dst, l) =
            as_u32(as_f32(lane_reg(ws, in.src[0], l)) + as_f32(lane_reg(ws, in.src[1], l)));
      });
      break;
    case Opcode::kFSub:
      for_lanes([&](std::uint32_t l) {
        lane_reg(ws, in.dst, l) =
            as_u32(as_f32(lane_reg(ws, in.src[0], l)) - as_f32(lane_reg(ws, in.src[1], l)));
      });
      break;
    case Opcode::kFMul:
      for_lanes([&](std::uint32_t l) {
        lane_reg(ws, in.dst, l) =
            as_u32(as_f32(lane_reg(ws, in.src[0], l)) * as_f32(lane_reg(ws, in.src[1], l)));
      });
      break;
    case Opcode::kFFma:
      for_lanes([&](std::uint32_t l) {
        lane_reg(ws, in.dst, l) =
            as_u32(as_f32(lane_reg(ws, in.src[0], l)) * as_f32(lane_reg(ws, in.src[1], l)) +
                   as_f32(lane_reg(ws, in.src[2], l)));
      });
      break;
    case Opcode::kFRcp:
      for_lanes([&](std::uint32_t l) {
        lane_reg(ws, in.dst, l) = as_u32(1.0f / as_f32(lane_reg(ws, in.src[0], l)));
      });
      break;
    case Opcode::kFRsqrt:
      for_lanes([&](std::uint32_t l) {
        lane_reg(ws, in.dst, l) =
            as_u32(1.0f / std::sqrt(as_f32(lane_reg(ws, in.src[0], l))));
      });
      break;
    case Opcode::kFNeg:
      for_lanes([&](std::uint32_t l) {
        lane_reg(ws, in.dst, l) = as_u32(-as_f32(lane_reg(ws, in.src[0], l)));
      });
      break;
    case Opcode::kFAbs:
      for_lanes([&](std::uint32_t l) {
        lane_reg(ws, in.dst, l) = as_u32(std::fabs(as_f32(lane_reg(ws, in.src[0], l))));
      });
      break;
    case Opcode::kFMin:
    case Opcode::kFMax:
      // libm's fmin/fmax with the operand order fixed, written out apart
      // from the fast path's fmin_lane/fmax_lane: a NaN yields the other
      // operand, two NaNs the first, and a tie (+0 against -0) the second.
      for_lanes([&](std::uint32_t l) {
        const float a = as_f32(lane_reg(ws, in.src[0], l));
        const float b = as_f32(lane_reg(ws, in.src[1], l));
        float r = b;
        if (std::isnan(b) || (in.op == Opcode::kFMin ? a < b : a > b)) r = a;
        lane_reg(ws, in.dst, l) = as_u32(r);
      });
      break;

    // ---- u32 -------------------------------------------------------------
    case Opcode::kIAdd:
      for_lanes([&](std::uint32_t l) {
        lane_reg(ws, in.dst, l) = lane_reg(ws, in.src[0], l) + lane_reg(ws, in.src[1], l);
      });
      break;
    case Opcode::kISub:
      for_lanes([&](std::uint32_t l) {
        lane_reg(ws, in.dst, l) = lane_reg(ws, in.src[0], l) - lane_reg(ws, in.src[1], l);
      });
      break;
    case Opcode::kIMul:
      for_lanes([&](std::uint32_t l) {
        lane_reg(ws, in.dst, l) = lane_reg(ws, in.src[0], l) * lane_reg(ws, in.src[1], l);
      });
      break;
    case Opcode::kIMad:
      for_lanes([&](std::uint32_t l) {
        lane_reg(ws, in.dst, l) = lane_reg(ws, in.src[0], l) * lane_reg(ws, in.src[1], l) +
                                  lane_reg(ws, in.src[2], l);
      });
      break;
    case Opcode::kIAddImm:
      for_lanes([&](std::uint32_t l) {
        lane_reg(ws, in.dst, l) = lane_reg(ws, in.src[0], l) + in.imm;
      });
      break;
    case Opcode::kShl:
      for_lanes([&](std::uint32_t l) {
        lane_reg(ws, in.dst, l) = lane_reg(ws, in.src[0], l)
                                  << (lane_reg(ws, in.src[1], l) & 31u);
      });
      break;
    case Opcode::kShr:
      for_lanes([&](std::uint32_t l) {
        lane_reg(ws, in.dst, l) =
            lane_reg(ws, in.src[0], l) >> (lane_reg(ws, in.src[1], l) & 31u);
      });
      break;
    case Opcode::kAnd:
      for_lanes([&](std::uint32_t l) {
        lane_reg(ws, in.dst, l) = lane_reg(ws, in.src[0], l) & lane_reg(ws, in.src[1], l);
      });
      break;
    case Opcode::kOr:
      for_lanes([&](std::uint32_t l) {
        lane_reg(ws, in.dst, l) = lane_reg(ws, in.src[0], l) | lane_reg(ws, in.src[1], l);
      });
      break;
    case Opcode::kXor:
      for_lanes([&](std::uint32_t l) {
        lane_reg(ws, in.dst, l) = lane_reg(ws, in.src[0], l) ^ lane_reg(ws, in.src[1], l);
      });
      break;
    case Opcode::kIMin:
      for_lanes([&](std::uint32_t l) {
        lane_reg(ws, in.dst, l) =
            std::min(lane_reg(ws, in.src[0], l), lane_reg(ws, in.src[1], l));
      });
      break;
    case Opcode::kIMax:
      for_lanes([&](std::uint32_t l) {
        lane_reg(ws, in.dst, l) =
            std::max(lane_reg(ws, in.src[0], l), lane_reg(ws, in.src[1], l));
      });
      break;

    // ---- moves / conversions ----------------------------------------------
    case Opcode::kMov:
      for_lanes([&](std::uint32_t l) {
        lane_reg(ws, in.dst, l) = lane_reg(ws, in.src[0], l);
      });
      break;
    case Opcode::kMovImm:
      for_lanes([&](std::uint32_t l) { lane_reg(ws, in.dst, l) = in.imm; });
      break;
    case Opcode::kMovParam:
      for_lanes([&](std::uint32_t l) { lane_reg(ws, in.dst, l) = bp_.params[in.imm]; });
      break;
    case Opcode::kMovSpecial: {
      const auto s = static_cast<Special>(in.imm);
      for_lanes([&](std::uint32_t l) {
        std::uint32_t v = 0;
        switch (s) {
          case Special::kTid: v = base_thread + l; break;
          case Special::kCtaid: v = bp_.block_id; break;
          case Special::kNtid: v = bp_.cfg.block_threads; break;
          case Special::kNctaid: v = bp_.cfg.grid_blocks; break;
          case Special::kLane: v = l; break;
          case Special::kWarpId: v = ws.index; break;
          case Special::kSmId: v = bp_.sm_id; break;
          case Special::kClock: v = static_cast<std::uint32_t>(now); break;
        }
        lane_reg(ws, in.dst, l) = v;
      });
      break;
    }
    case Opcode::kClock:
      for_lanes([&](std::uint32_t l) {
        lane_reg(ws, in.dst, l) = static_cast<std::uint32_t>(now);
      });
      break;
    case Opcode::kI2F:
      for_lanes([&](std::uint32_t l) {
        lane_reg(ws, in.dst, l) =
            as_u32(static_cast<float>(lane_reg(ws, in.src[0], l)));
      });
      break;
    case Opcode::kF2I:
      // PTX cvt.rzi.u32.f32, written out independently of the fast path's
      // f2u_rz: NaN and non-positive values give 0, values from 2^32 up
      // saturate, everything else truncates toward zero.
      for_lanes([&](std::uint32_t l) {
        const float f = as_f32(lane_reg(ws, in.src[0], l));
        std::uint32_t v = 0;
        if (std::isnan(f) || f <= 0.0f) {
          v = 0;
        } else if (f >= 4294967296.0f) {
          v = 0xFFFFFFFFu;
        } else {
          v = static_cast<std::uint32_t>(f);
        }
        lane_reg(ws, in.dst, l) = v;
      });
      break;

    // ---- predicates --------------------------------------------------------
    case Opcode::kSetp: {
      Mask result = 0;
      const bool has_reg_b = in.src[1].valid();
      for_lanes([&](std::uint32_t l) {
        const std::uint32_t a = lane_reg(ws, in.src[0], l);
        const std::uint32_t b = has_reg_b ? lane_reg(ws, in.src[1], l) : in.imm;
        const bool t = in.cmp_is_float ? cmp_f32(in.cmp, as_f32(a), as_f32(b))
                                       : cmp_u32(in.cmp, a, b);
        if (t) result |= 1u << l;
      });
      ws.preds[in.pdst] = (ws.preds[in.pdst] & ~exec) | (result & exec);
      break;
    }
    case Opcode::kPAnd:
      ws.preds[in.pdst] = (ws.preds[in.pdst] & ~exec) |
                          (ws.preds[in.psrc0] & ws.preds[in.psrc1] & exec);
      break;
    case Opcode::kPOr:
      ws.preds[in.pdst] = (ws.preds[in.pdst] & ~exec) |
                          ((ws.preds[in.psrc0] | ws.preds[in.psrc1]) & exec);
      break;
    case Opcode::kPNot:
      ws.preds[in.pdst] =
          (ws.preds[in.pdst] & ~exec) | (~ws.preds[in.psrc0] & exec);
      break;
    case Opcode::kSel: {
      const Mask p = ws.preds[in.psrc0];
      for_lanes([&](std::uint32_t l) {
        lane_reg(ws, in.dst, l) = (p & (1u << l)) ? lane_reg(ws, in.src[0], l)
                                                  : lane_reg(ws, in.src[1], l);
      });
      break;
    }

    // ---- memory -------------------------------------------------------------
    case Opcode::kLdGlobal:
    case Opcode::kStGlobal: {
      res.kind = StepResult::Kind::kGlobal;
      res.width = in.width;
      res.is_store = in.op == Opcode::kStGlobal;
      res.mem_mask = exec;
      const std::uint32_t words = width_words(in.width);
      const std::uint32_t wbytes = width_bytes(in.width);
      const bool has_base = in.src[0].valid();
      for_lanes([&](std::uint32_t l) {
        const std::uint32_t addr =
            (has_base ? lane_reg(ws, in.src[0], l) : 0u) + in.imm;
        VGPU_EXPECTS_MSG(addr % wbytes == 0, "misaligned global access");
        res.lane_addrs[l] = addr;
        if (res.is_store) {
          for (std::uint32_t c = 0; c < words; ++c) {
            gmem_.store_u32(addr + 4u * c,
                            lane_reg(ws, in.src[1], l, static_cast<std::uint8_t>(c)));
          }
        } else {
          for (std::uint32_t c = 0; c < words; ++c) {
            lane_reg(ws, in.dst, l, static_cast<std::uint8_t>(c)) =
                gmem_.load_u32(addr + 4u * c);
          }
        }
      });
      break;
    }
    case Opcode::kLdConst: {
      res.kind = StepResult::Kind::kConst;
      res.width = in.width;
      res.mem_mask = exec;
      VGPU_EXPECTS_MSG(bp_.cmem != nullptr, "kernel reads constant memory but none bound");
      const std::uint32_t words = width_words(in.width);
      const bool has_base = in.src[0].valid();
      for_lanes([&](std::uint32_t l) {
        const std::uint32_t addr =
            (has_base ? lane_reg(ws, in.src[0], l) : 0u) + in.imm;
        res.lane_addrs[l] = addr;
        for (std::uint32_t c = 0; c < words; ++c) {
          lane_reg(ws, in.dst, l, static_cast<std::uint8_t>(c)) =
              bp_.cmem->load_u32(addr + 4u * c);
        }
      });
      break;
    }
    case Opcode::kLdTex: {
      res.kind = StepResult::Kind::kTex;
      res.width = in.width;
      res.mem_mask = exec;
      const std::uint32_t words = width_words(in.width);
      const std::uint32_t wbytes = width_bytes(in.width);
      const bool has_base = in.src[0].valid();
      for_lanes([&](std::uint32_t l) {
        const std::uint32_t addr =
            (has_base ? lane_reg(ws, in.src[0], l) : 0u) + in.imm;
        VGPU_EXPECTS_MSG(addr % wbytes == 0, "misaligned texture fetch");
        res.lane_addrs[l] = addr;
        for (std::uint32_t c = 0; c < words; ++c) {
          lane_reg(ws, in.dst, l, static_cast<std::uint8_t>(c)) =
              gmem_.load_u32(addr + 4u * c);
        }
      });
      break;
    }
    case Opcode::kLdLocal:
    case Opcode::kStLocal: {
      res.kind = StepResult::Kind::kLocal;
      res.width = in.width;
      res.is_store = in.op == Opcode::kStLocal;
      res.mem_mask = exec;
      const std::uint32_t word = in.imm / 4;
      VGPU_EXPECTS_MSG(in.imm % 4 == 0 && word < local_words_,
                       "local access out of frame");
      for_lanes([&](std::uint32_t l) {
        if (res.is_store) {
          ws.local[static_cast<std::size_t>(word) * 32u + l] =
              lane_reg(ws, in.src[1], l);
        } else {
          lane_reg(ws, in.dst, l) =
              ws.local[static_cast<std::size_t>(word) * 32u + l];
        }
      });
      break;
    }
    case Opcode::kLdShared:
    case Opcode::kStShared: {
      res.kind = StepResult::Kind::kShared;
      res.width = in.width;
      res.is_store = in.op == Opcode::kStShared;
      res.mem_mask = exec;
      const std::uint32_t words = width_words(in.width);
      const std::uint32_t wbytes = width_bytes(in.width);
      const bool has_base = in.src[0].valid();
      for_lanes([&](std::uint32_t l) {
        const std::uint32_t addr =
            (has_base ? lane_reg(ws, in.src[0], l) : 0u) + in.imm;
        VGPU_EXPECTS_MSG(addr % wbytes == 0, "misaligned shared access");
        res.lane_addrs[l] = addr;
        if (res.is_store) {
          for (std::uint32_t c = 0; c < words; ++c) {
            smem_.store_u32(addr + 4u * c,
                            lane_reg(ws, in.src[1], l, static_cast<std::uint8_t>(c)));
          }
        } else {
          for (std::uint32_t c = 0; c < words; ++c) {
            lane_reg(ws, in.dst, l, static_cast<std::uint8_t>(c)) =
                smem_.load_u32(addr + 4u * c);
          }
        }
      });
      // Serialization degree: max over the half-warps; all word accesses of
      // a wide load are presented to the banks together (adjacent banks
      // serve a 128-bit broadcast in parallel).
      res.shared_conflict_degree = warp_bank_conflict_degree(
          std::span<const std::uint32_t>(res.lane_addrs.data(), warp_size),
          exec, words, spec_.half_warp, spec_.shared_mem_banks);
      break;
    }

    // ---- control ---------------------------------------------------------------
    case Opcode::kBar:
      res.kind = StepResult::Kind::kBarrier;
      ws.at_barrier = true;
      ++ws.ip;
      return res;
    case Opcode::kExit:
      res.kind = StepResult::Kind::kExit;
      VGPU_EXPECTS_MSG(ws.stack.empty(), "exit with non-empty divergence stack");
      ws.done = true;
      return res;
    case Opcode::kBra:
      transfer(ws, in.target);
      return res;
    case Opcode::kBraCond: {
      Mask p = ws.preds[in.psrc0];
      if (in.branch_if_false) p = ~p;
      const Mask taken = ws.active & p;
      BlockId next;
      if (taken == ws.active) {
        next = in.target;
      } else if (taken == 0) {
        next = in.target2;
      } else {
        res.divergent_branch = true;
        const BlockId r = in.reconv;
        if (in.target == r) {
          park(ws, r, taken);
          ws.active &= ~taken;
          next = in.target2;
        } else if (in.target2 == r) {
          park(ws, r, ws.active & ~taken);
          ws.active = taken;
          next = in.target;
        } else {
          ws.stack.push_back(DivEntry{r, 0, ws.active & ~taken, in.target2});
          ws.active = taken;
          next = in.target;
        }
      }
      transfer(ws, next);
      return res;
    }
  }

  ++ws.ip;
  return res;
}

// The fast path: same architectural semantics as step_ref, dispatched off
// the pre-decoded stream. Memory ops, control flow and the clock reads are
// cases here; every other instruction executes through its compiled
// handler (exec_op), the handler text the traces run. Register accesses go
// through row pointers hoisted out of the lane loop (slot arithmetic done
// once per instruction, not per lane), and a converged warp skips per-lane
// mask tests entirely. Any observable divergence from step_ref is a bug;
// the differential fuzz and real-kernel equivalence tests compare both
// paths bit for bit.
StepResult BlockExec::step_fast(std::uint32_t w, std::uint64_t now) {
  WarpState& ws = warps_[w];
  VGPU_EXPECTS_MSG(!ws.done, "stepping a finished warp");
  VGPU_EXPECTS_MSG(!ws.at_barrier, "stepping a warp parked at a barrier");
  const std::uint32_t pc = dec_->block_start[ws.block] + ws.ip;
  // Run instructions issued for timing only (issue_timing_only) execute
  // before this step - the run's terminator - so no step reads a register
  // whose write is still pending.
  VGPU_EXPECTS_MSG(
      ws.pending_len == 0 || ws.pending_first + ws.pending_len == pc,
      "a warp with a pending range must step the instruction after it");
  if (ws.pending_len != 0) {
    VGPU_EXPECTS_MSG(ws.pending_len == dec_->runs[ws.pending_first].len,
                     "a pending range must end at its run's end");
    exec_run(ws, ws.pending_first, ws.pending_len);
    ws.pending_len = 0;
  }
  const DecodedInstr& d = dec_->instrs[pc];

  StepResult res;
  res.kind = d.kind;
  res.region = d.region;
  res.op = d.op;
  ++ws.issued;

  Mask exec = ws.active;
  if (d.guard != kNoPred) {
    const Mask g = ws.preds[d.guard];
    exec &= d.guard_negated ? ~g : g;
  }

  const std::uint32_t warp_size = spec_.warp_size;
  std::uint32_t* const R = ws.regs;
  auto row = [&](std::uint32_t s) -> std::uint32_t* { return R + s * 32u; };

  // Converged warps take the unmasked loop; the mask test per lane is the
  // single hottest branch in the interpreter.
  const bool converged = (exec & full_mask_) == full_mask_;
  auto for_lanes = [&](auto&& fn) {
    if (converged) {
      for (std::uint32_t lane = 0; lane < warp_size; ++lane) fn(lane);
    } else {
      for (std::uint32_t lane = 0; lane < warp_size; ++lane) {
        if (exec & (1u << lane)) fn(lane);
      }
    }
  };

  switch (d.op) {
    // ---- memory -------------------------------------------------------------
    case Opcode::kLdGlobal:
    case Opcode::kStGlobal: {
      res.width = d.width;
      res.is_store = d.is_store;
      res.mem_mask = exec;
      const std::uint32_t words = d.width_words;
      const std::uint32_t wbytes = d.width_bytes;
      const bool has_base = d.src_slot[0] != kNoSlot;
      const std::uint32_t* const ab = has_base ? row(d.src_slot[0]) : nullptr;
      const std::uint32_t imm = d.imm;
      if (d.is_store) {
        const std::uint32_t* const v = row(d.src_slot[1]);
        for_lanes([&](std::uint32_t l) {
          const std::uint32_t addr = (has_base ? ab[l] : 0u) + imm;
          VGPU_EXPECTS_MSG(addr % wbytes == 0, "misaligned global access");
          res.lane_addrs[l] = addr;
          for (std::uint32_t c = 0; c < words; ++c) {
            gmem_.store_u32(addr + 4u * c, v[c * 32u + l]);
          }
        });
      } else {
        std::uint32_t* const o = row(d.dst_slot);
        for_lanes([&](std::uint32_t l) {
          const std::uint32_t addr = (has_base ? ab[l] : 0u) + imm;
          VGPU_EXPECTS_MSG(addr % wbytes == 0, "misaligned global access");
          res.lane_addrs[l] = addr;
          for (std::uint32_t c = 0; c < words; ++c) {
            o[c * 32u + l] = gmem_.load_u32(addr + 4u * c);
          }
        });
      }
      break;
    }
    case Opcode::kLdConst: {
      res.width = d.width;
      res.mem_mask = exec;
      VGPU_EXPECTS_MSG(bp_.cmem != nullptr, "kernel reads constant memory but none bound");
      const std::uint32_t words = d.width_words;
      const bool has_base = d.src_slot[0] != kNoSlot;
      const std::uint32_t* const ab = has_base ? row(d.src_slot[0]) : nullptr;
      std::uint32_t* const o = row(d.dst_slot);
      for_lanes([&](std::uint32_t l) {
        const std::uint32_t addr = (has_base ? ab[l] : 0u) + d.imm;
        res.lane_addrs[l] = addr;
        for (std::uint32_t c = 0; c < words; ++c) {
          o[c * 32u + l] = bp_.cmem->load_u32(addr + 4u * c);
        }
      });
      break;
    }
    case Opcode::kLdTex: {
      res.width = d.width;
      res.mem_mask = exec;
      const std::uint32_t words = d.width_words;
      const std::uint32_t wbytes = d.width_bytes;
      const bool has_base = d.src_slot[0] != kNoSlot;
      const std::uint32_t* const ab = has_base ? row(d.src_slot[0]) : nullptr;
      std::uint32_t* const o = row(d.dst_slot);
      for_lanes([&](std::uint32_t l) {
        const std::uint32_t addr = (has_base ? ab[l] : 0u) + d.imm;
        VGPU_EXPECTS_MSG(addr % wbytes == 0, "misaligned texture fetch");
        res.lane_addrs[l] = addr;
        for (std::uint32_t c = 0; c < words; ++c) {
          o[c * 32u + l] = gmem_.load_u32(addr + 4u * c);
        }
      });
      break;
    }
    case Opcode::kLdLocal:
    case Opcode::kStLocal: {
      res.width = d.width;
      res.is_store = d.is_store;
      res.mem_mask = exec;
      const std::uint32_t word = d.imm / 4;
      VGPU_EXPECTS_MSG(d.imm % 4 == 0 && word < local_words_,
                       "local access out of frame");
      std::uint32_t* const frame = ws.local + static_cast<std::size_t>(word) * 32u;
      if (d.is_store) {
        const std::uint32_t* const v = row(d.src_slot[1]);
        for_lanes([&](std::uint32_t l) { frame[l] = v[l]; });
      } else {
        std::uint32_t* const o = row(d.dst_slot);
        for_lanes([&](std::uint32_t l) { o[l] = frame[l]; });
      }
      break;
    }
    case Opcode::kLdShared:
    case Opcode::kStShared: {
      if (d.is_store) execute_pending_shared_loads(ws);
      res.width = d.width;
      res.is_store = d.is_store;
      res.mem_mask = exec;
      const std::uint32_t words = d.width_words;
      const std::uint32_t wbytes = d.width_bytes;
      const bool has_base = d.src_slot[0] != kNoSlot;
      const std::uint32_t* const ab = has_base ? row(d.src_slot[0]) : nullptr;
      if (converged && has_base && !d.is_store) {
        // Converged loads (the tile kernels' inner loop) skip the per-lane
        // checked accessors: one vectorizable pass computes every lane
        // address and aggregates alignment (OR of the low bits - wbytes is a
        // power of two), the broadcast test and the maximum for a single
        // warp-wide bounds check, then the data moves through the raw word
        // array. A broadcast (all lanes at one address - every tile read)
        // collapses the 32-lane gather to one load per word, splatted.
        std::uint32_t agg = 0, mx = 0, diff = 0;
        const std::uint32_t first = ab[0] + d.imm;
        for (std::uint32_t l = 0; l < warp_size; ++l) {
          const std::uint32_t addr = ab[l] + d.imm;
          res.lane_addrs[l] = addr;
          agg |= addr;
          diff |= addr ^ first;
          mx = std::max(mx, addr);
        }
        VGPU_EXPECTS_MSG((agg & (wbytes - 1u)) == 0, "misaligned shared access");
        VGPU_EXPECTS_MSG(static_cast<std::uint64_t>(mx) + 4ull * words <=
                             smem_.size_bytes(),
                         "shared load out of bounds");
        const std::uint32_t* const sp = smem_.words();
        std::uint32_t* const o = row(d.dst_slot);
        if (diff == 0) {
          for (std::uint32_t c = 0; c < words; ++c) {
            const std::uint32_t v = sp[first / 4u + c];
            for (std::uint32_t l = 0; l < warp_size; ++l) o[c * 32u + l] = v;
          }
        } else {
          for (std::uint32_t l = 0; l < warp_size; ++l) {
            const std::uint32_t w0 = res.lane_addrs[l] / 4u;
            for (std::uint32_t c = 0; c < words; ++c) {
              o[c * 32u + l] = sp[w0 + c];
            }
          }
        }
      } else if (d.is_store) {
        const std::uint32_t* const v = row(d.src_slot[1]);
        for_lanes([&](std::uint32_t l) {
          const std::uint32_t addr = (has_base ? ab[l] : 0u) + d.imm;
          VGPU_EXPECTS_MSG(addr % wbytes == 0, "misaligned shared access");
          res.lane_addrs[l] = addr;
          for (std::uint32_t c = 0; c < words; ++c) {
            smem_.store_u32(addr + 4u * c, v[c * 32u + l]);
          }
        });
      } else {
        std::uint32_t* const o = row(d.dst_slot);
        for_lanes([&](std::uint32_t l) {
          const std::uint32_t addr = (has_base ? ab[l] : 0u) + d.imm;
          VGPU_EXPECTS_MSG(addr % wbytes == 0, "misaligned shared access");
          res.lane_addrs[l] = addr;
          for (std::uint32_t c = 0; c < words; ++c) {
            o[c * 32u + l] = smem_.load_u32(addr + 4u * c);
          }
        });
      }
      // Serialization degree: same single definition as the reference path
      // (warp_bank_conflict_degree), optionally served from the pattern memo
      // - hits are exact, so the degree can never differ from a direct
      // computation.
      const std::span<const std::uint32_t> la(res.lane_addrs.data(), warp_size);
      res.shared_conflict_degree =
          cmemo_ != nullptr
              ? cmemo_->lookup(la, exec, words)
              : warp_bank_conflict_degree(la, exec, words, spec_.half_warp,
                                          spec_.shared_mem_banks);
      break;
    }

    // ---- control ---------------------------------------------------------------
    case Opcode::kBar:
      ws.at_barrier = true;
      ++ws.ip;
      return res;
    case Opcode::kExit:
      VGPU_EXPECTS_MSG(ws.stack.empty(), "exit with non-empty divergence stack");
      ws.done = true;
      return res;
    case Opcode::kBra:
      transfer(ws, d.target);
      return res;
    case Opcode::kBraCond: {
      Mask p = ws.preds[d.psrc0];
      if (d.branch_if_false) p = ~p;
      const Mask taken = ws.active & p;
      BlockId next;
      if (taken == ws.active) {
        next = d.target;
      } else if (taken == 0) {
        next = d.target2;
      } else {
        res.divergent_branch = true;
        const BlockId r = d.reconv;
        if (d.target == r) {
          park(ws, r, taken);
          ws.active &= ~taken;
          next = d.target2;
        } else if (d.target2 == r) {
          park(ws, r, ws.active & ~taken);
          ws.active = taken;
          next = d.target;
        } else {
          ws.stack.push_back(DivEntry{r, 0, ws.active & ~taken, d.target2});
          ws.active = taken;
          next = d.target;
        }
      }
      transfer(ws, next);
      return res;
    }

    // ---- the clock reads: the only instructions that read `now` ---------
    case Opcode::kClock:
    case Opcode::kMovSpecial:
      if (reads_clock(d)) {
        std::uint32_t* const o = row(d.dst_slot);
        const auto v = static_cast<std::uint32_t>(now);
        for_lanes([&](std::uint32_t l) { o[l] = v; });
        break;
      }
      [[fallthrough]];
    // ---- register ALU / predicates / moves: the compiled handler ---------
    default:
      exec_op(threaded_->ops[pc], ws.regs, ws.preds, handler_ctx(ws, exec));
      break;
  }

  ++ws.ip;
  return res;
}


// Batched dispatch over a pre-segmented straight-line run. Inside a run no
// instruction can read the clock, store, touch memory other than a
// warp-uniform shared load, branch or take a guard, so with a fully
// converged warp the per-step work of step_fast (guard evaluation,
// convergence test, StepResult construction) collapses to one call into the
// compiled run programs. The warp's mask cannot change within the run, so
// checking convergence once up front is exact, and the run's predicate
// writes cover the whole mask. The functional executor runs each warp to its
// barrier in the reference order, so a run's shared loads read what single
// steps would.
RunSteps BlockExec::step_run(std::uint32_t w) {
  RunSteps out;
  if (dec_ == nullptr) return out;
  WarpState& ws = warps_[w];
  if (ws.done || ws.at_barrier) return out;
  if ((ws.active & full_mask_) != full_mask_) return out;
  const std::uint32_t first = dec_->block_start[ws.block] + ws.ip;
  const DecodedRun& run = dec_->runs[first];
  if (run.len == 0) return out;
  out.run = &run;
  const DecodedInstr& term = dec_->instrs[first + run.len];
  for (;;) {
    exec_run(ws, first, run.len);
    ws.ip += run.len;
    ws.issued += run.len;
    ++out.times;
    // Back-edge continuation: step_fast's uniform branch - the same test
    // and the same transfer. A divergent bra.cond is left to step().
    BlockId next = kNoBlock;
    if (term.op == Opcode::kBra) {
      next = term.target;
    } else if (term.op == Opcode::kBraCond) {
      Mask p = ws.preds[term.psrc0];
      if (term.branch_if_false) p = ~p;
      const Mask taken = ws.active & p;
      if (taken == ws.active) {
        next = term.target;
      } else if (taken == 0) {
        next = term.target2;
      } else {
        return out;
      }
    } else {
      return out;
    }
    ++ws.issued;
    transfer(ws, next);
    ++out.branches;
    if ((ws.active & full_mask_) != full_mask_ ||
        dec_->block_start[ws.block] + ws.ip != first) {
      return out;
    }
  }
}

ThreadedCtx BlockExec::handler_ctx(const WarpState& ws, Mask active) const {
  ThreadedCtx ctx;
  ctx.params = bp_.params.data();
  ctx.block_id = bp_.block_id;
  ctx.block_threads = bp_.cfg.block_threads;
  ctx.grid_blocks = bp_.cfg.grid_blocks;
  ctx.sm_id = bp_.sm_id;
  ctx.warp_index = ws.index;
  ctx.base_thread = ws.index * spec_.warp_size;
  ctx.warp_size = spec_.warp_size;
  ctx.active = active;
  ctx.shared = smem_.words();
  ctx.shared_bytes = smem_.size_bytes();
  return ctx;
}

// Compiled dispatch: a whole run - every run step_run executes, and every
// pending range but the flush's - goes through its trace, one jump per
// trace *segment* (traces.cpp). A range the shared-store flush cut off
// mid-run, or the rest of that run after the cut, has no trace of its own
// and executes one compiled instruction at a time. Both are bit-identical
// to single-stepping the range through step_fast.
void BlockExec::exec_run(WarpState& ws, std::uint32_t first,
                         std::uint32_t len) {
  const ThreadedCtx ctx = handler_ctx(ws, ws.active);
  const std::uint32_t tr = traces_->trace_at[first];
  if (tr != kNoTrace && traces_->traces[tr].len == len) {
    exec_trace(*traces_, tr, ws.regs, ws.preds, ctx);
    ++*trace_hits_;
    return;
  }
  for (std::uint32_t k = first; k < first + len; ++k) {
    exec_op(threaded_->ops[k], ws.regs, ws.preds, ctx);
  }
}

// Shared memory is block-wide. A load another warp issued for timing only
// (issue_timing_only) executes at that warp's next step, and a shared store
// of this warp may come in between, so before it every other warp's pending
// range that holds a shared load executes: each load then reads what it
// read at its issue in the reference order. The range may end mid-run, so
// exec_run executes it one instruction at a time; the warp's later issues
// open a new pending range mid-run.
void BlockExec::execute_pending_shared_loads(const WarpState& storer) {
  const auto loads = [](const DecodedRun& r) {
    return r.shared_loads[0] + r.shared_loads[1] + r.shared_loads[2];
  };
  for (WarpState& other : warps_) {
    if (&other == &storer || other.pending_len == 0) continue;
    const std::uint32_t end = other.pending_first + other.pending_len;
    if (loads(dec_->runs[other.pending_first]) == loads(dec_->runs[end])) {
      continue;  // no shared load in the range
    }
    exec_run(other, other.pending_first, other.pending_len);
    other.pending_len = 0;
  }
}

}  // namespace vgpu
