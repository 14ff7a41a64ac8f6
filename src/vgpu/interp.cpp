#include "vgpu/interp.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "vgpu/check.hpp"
#include "vgpu/decode.hpp"
#include "vgpu/memo.hpp"
#include "vgpu/opclass.hpp"
#include "vgpu/threaded.hpp"
#include "vgpu/traces.hpp"

namespace vgpu {

namespace {

[[nodiscard]] float as_f32(std::uint32_t v) { return std::bit_cast<float>(v); }
[[nodiscard]] std::uint32_t as_u32(float v) { return std::bit_cast<std::uint32_t>(v); }

// Both interpreter paths and the threaded backend evaluate kSetp through
// the one shared eval_cmp (opclass.hpp); these aliases keep the call sites
// below readable.
[[nodiscard]] bool cmp_u32(CmpOp op, std::uint32_t a, std::uint32_t b) {
  return eval_cmp(op, a, b);
}

[[nodiscard]] bool cmp_f32(CmpOp op, float a, float b) {
  return eval_cmp(op, a, b);
}

}  // namespace

BlockExec::BlockExec(const Program& prog, const DeviceSpec& spec,
                     GlobalMemory& gmem, const BlockParams& bp,
                     const DecodedProgram* dec)
    : prog_(prog),
      spec_(spec),
      gmem_(gmem),
      bp_(bp),
      smem_(std::max(prog.shared_bytes, 4u), spec.shared_mem_banks),
      dec_(dec) {
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

const DecodedInstr* BlockExec::peek_decoded(std::uint32_t w) const {
  const WarpState& ws = warps_[w];
  if (ws.done || ws.at_barrier) return nullptr;
  return &dec_->at(ws.block, ws.ip);
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
      for_lanes([&](std::uint32_t l) {
        lane_reg(ws, in.dst, l) = as_u32(std::fmin(as_f32(lane_reg(ws, in.src[0], l)),
                                                   as_f32(lane_reg(ws, in.src[1], l))));
      });
      break;
    case Opcode::kFMax:
      for_lanes([&](std::uint32_t l) {
        lane_reg(ws, in.dst, l) = as_u32(std::fmax(as_f32(lane_reg(ws, in.src[0], l)),
                                                   as_f32(lane_reg(ws, in.src[1], l))));
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
      for_lanes([&](std::uint32_t l) {
        const float f = as_f32(lane_reg(ws, in.src[0], l));
        lane_reg(ws, in.dst, l) =
            f <= 0.0f ? 0u : static_cast<std::uint32_t>(f);
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
// the pre-decoded stream. Register accesses go through row pointers hoisted
// out of the lane loop (slot arithmetic done once per instruction, not per
// lane), and a converged warp skips per-lane mask tests entirely. Any
// observable divergence from step_ref is a bug; the differential fuzz and
// real-kernel equivalence tests compare both paths bit for bit.
StepResult BlockExec::step_fast(std::uint32_t w, std::uint64_t now) {
  WarpState& ws = warps_[w];
  VGPU_EXPECTS_MSG(!ws.done, "stepping a finished warp");
  VGPU_EXPECTS_MSG(!ws.at_barrier, "stepping a warp parked at a barrier");
  const DecodedInstr& d = dec_->at(ws.block, ws.ip);

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
  const std::uint32_t base_thread = ws.index * warp_size;
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

    // ---- register ALU / predicates / moves / clock -----------------------
    default:
      exec_alu(d, ws, exec, converged, base_thread, now);
      break;
  }

  ++ws.ip;
  return res;
}


// Batched dispatch over a pre-segmented straight-line run. Inside a run no
// instruction can read the clock, touch memory, branch, take a guard, or
// write a predicate, so with a fully converged warp the per-step work of
// step_fast (guard evaluation, convergence test, StepResult construction)
// collapses to one call into the compiled run programs. The warp's mask
// cannot change within the run, so checking convergence once up front is
// exact.
const DecodedRun* BlockExec::step_run(std::uint32_t w, StepResult& fused,
                                      bool& fused_done) {
  if (threaded_ == nullptr) return nullptr;
  WarpState& ws = warps_[w];
  if (ws.done || ws.at_barrier) return nullptr;
  if ((ws.active & full_mask_) != full_mask_) return nullptr;
  const std::size_t first = dec_->block_start[ws.block] + ws.ip;
  const DecodedRun& run = dec_->runs[first];
  if (run.len == 0) return nullptr;
  // Compiled dispatch: pre-resolved operand rows, dense handlers, one
  // indirect jump per instruction (threaded.cpp) - or, for a run starting
  // at a compiled trace head, one jump per trace *segment* (traces.cpp).
  // Both are bit-identical to stepping the run through exec_alu.
  ThreadedCtx ctx;
  ctx.params = bp_.params.data();
  ctx.block_id = bp_.block_id;
  ctx.block_threads = bp_.cfg.block_threads;
  ctx.grid_blocks = bp_.cfg.grid_blocks;
  ctx.sm_id = bp_.sm_id;
  ctx.warp_index = ws.index;
  ctx.base_thread = ws.index * spec_.warp_size;
  ctx.warp_size = spec_.warp_size;
  const std::uint32_t tr = traces_->trace_at[first];
  if (tr != kNoTrace) {
    exec_trace(*traces_, tr, ws.regs, ws.preds, ctx);
    ++*trace_hits_;
  } else {
    exec_threaded(threaded_->ops.data() + first, run.len, ws.regs, ws.preds,
                  ctx);
  }
  ws.ip += run.len;
  ws.issued += run.len;
  // Boundary-step fusion: a fusable terminating memory op executes in the
  // same dispatch. Ordering matches the separate step() call exactly: the
  // terminator sees the run's register writes, `issued` counts it after
  // the run.
  if (run.fuse_boundary) {
    ++ws.issued;
    exec_boundary(dec_->instrs[first + run.len], ws, fused);
    ++ws.ip;
    fused_done = true;
  }
  return &run;
}

// The memory cases of step_fast, specialized for the boundary-fusion
// preconditions decode() checked (fusable_boundary): a converged warp and
// an unguarded memory op with no predicate write. Guard evaluation and the
// per-lane mask tests drop out; every architectural effect and every
// StepResult field a pricing/accounting path reads is produced exactly as
// step_fast would. `out` is caller-owned and may be reused across calls, so
// every field step_fast's fresh StepResult would default is written here.
void BlockExec::exec_boundary(const DecodedInstr& d, WarpState& ws,
                              StepResult& out) {
  out.kind = d.kind;
  out.region = d.region;
  out.op = d.op;
  out.divergent_branch = false;
  out.width = d.width;
  out.is_store = d.is_store;
  const Mask exec = ws.active;
  out.mem_mask = exec;
  out.shared_conflict_degree = 0;
  const std::uint32_t warp_size = spec_.warp_size;
  std::uint32_t* const R = ws.regs;
  auto row = [&](std::uint32_t s) -> std::uint32_t* { return R + s * 32u; };
  const std::uint32_t words = d.width_words;
  const std::uint32_t wbytes = d.width_bytes;
  // Lanes past the warp size never execute; a fresh StepResult leaves their
  // addresses zero and `mem_mask` can carry their bits, so match that.
  for (std::uint32_t l = warp_size; l < 32u; ++l) out.lane_addrs[l] = 0;

  switch (d.op) {
    case Opcode::kLdGlobal:
    case Opcode::kStGlobal: {
      const bool has_base = d.src_slot[0] != kNoSlot;
      const std::uint32_t* const ab = has_base ? row(d.src_slot[0]) : nullptr;
      const std::uint32_t imm = d.imm;
      if (d.is_store) {
        const std::uint32_t* const v = row(d.src_slot[1]);
        for (std::uint32_t l = 0; l < warp_size; ++l) {
          const std::uint32_t addr = (has_base ? ab[l] : 0u) + imm;
          VGPU_EXPECTS_MSG(addr % wbytes == 0, "misaligned global access");
          out.lane_addrs[l] = addr;
          for (std::uint32_t c = 0; c < words; ++c) {
            gmem_.store_u32(addr + 4u * c, v[c * 32u + l]);
          }
        }
      } else {
        std::uint32_t* const o = row(d.dst_slot);
        for (std::uint32_t l = 0; l < warp_size; ++l) {
          const std::uint32_t addr = (has_base ? ab[l] : 0u) + imm;
          VGPU_EXPECTS_MSG(addr % wbytes == 0, "misaligned global access");
          out.lane_addrs[l] = addr;
          for (std::uint32_t c = 0; c < words; ++c) {
            o[c * 32u + l] = gmem_.load_u32(addr + 4u * c);
          }
        }
      }
      break;
    }
    case Opcode::kLdConst: {
      VGPU_EXPECTS_MSG(bp_.cmem != nullptr,
                       "kernel reads constant memory but none bound");
      const bool has_base = d.src_slot[0] != kNoSlot;
      const std::uint32_t* const ab = has_base ? row(d.src_slot[0]) : nullptr;
      std::uint32_t* const o = row(d.dst_slot);
      for (std::uint32_t l = 0; l < warp_size; ++l) {
        const std::uint32_t addr = (has_base ? ab[l] : 0u) + d.imm;
        out.lane_addrs[l] = addr;
        for (std::uint32_t c = 0; c < words; ++c) {
          o[c * 32u + l] = bp_.cmem->load_u32(addr + 4u * c);
        }
      }
      break;
    }
    case Opcode::kLdTex: {
      const bool has_base = d.src_slot[0] != kNoSlot;
      const std::uint32_t* const ab = has_base ? row(d.src_slot[0]) : nullptr;
      std::uint32_t* const o = row(d.dst_slot);
      for (std::uint32_t l = 0; l < warp_size; ++l) {
        const std::uint32_t addr = (has_base ? ab[l] : 0u) + d.imm;
        VGPU_EXPECTS_MSG(addr % wbytes == 0, "misaligned texture fetch");
        out.lane_addrs[l] = addr;
        for (std::uint32_t c = 0; c < words; ++c) {
          o[c * 32u + l] = gmem_.load_u32(addr + 4u * c);
        }
      }
      break;
    }
    case Opcode::kLdLocal:
    case Opcode::kStLocal: {
      const std::uint32_t word = d.imm / 4;
      VGPU_EXPECTS_MSG(d.imm % 4 == 0 && word < local_words_,
                       "local access out of frame");
      std::uint32_t* const frame =
          ws.local + static_cast<std::size_t>(word) * 32u;
      if (d.is_store) {
        const std::uint32_t* const v = row(d.src_slot[1]);
        for (std::uint32_t l = 0; l < warp_size; ++l) frame[l] = v[l];
      } else {
        std::uint32_t* const o = row(d.dst_slot);
        for (std::uint32_t l = 0; l < warp_size; ++l) o[l] = frame[l];
      }
      break;
    }
    case Opcode::kLdShared:
    case Opcode::kStShared: {
      const bool has_base = d.src_slot[0] != kNoSlot;
      const std::uint32_t* const ab = has_base ? row(d.src_slot[0]) : nullptr;
      if (has_base && !d.is_store) {
        // The converged-load fast path of step_fast: aggregate
        // alignment/bounds across the warp, then move data through the raw
        // word array, collapsing broadcasts to one load per word. A
        // broadcast (every lane at the same address, the dominant shape in
        // tiled kernels) additionally skips the lane-address array and the
        // conflict memo: with a full mask the degree is exactly
        // warp_bank_conflict_degree's ceil(words / banks) - `words`
        // consecutive word accesses from one address, each bank hit at most
        // that often - and nothing downstream reads kShared lane addresses.
        std::uint32_t agg = 0, mx = 0, diff = 0;
        const std::uint32_t first = ab[0] + d.imm;
        for (std::uint32_t l = 0; l < warp_size; ++l) {
          const std::uint32_t addr = ab[l] + d.imm;
          agg |= addr;
          diff |= addr ^ first;
          mx = std::max(mx, addr);
        }
        VGPU_EXPECTS_MSG((agg & (wbytes - 1u)) == 0,
                         "misaligned shared access");
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
          out.shared_conflict_degree =
              (words + spec_.shared_mem_banks - 1u) / spec_.shared_mem_banks;
          return;
        }
        for (std::uint32_t l = 0; l < warp_size; ++l) {
          const std::uint32_t addr = ab[l] + d.imm;
          out.lane_addrs[l] = addr;
          for (std::uint32_t c = 0; c < words; ++c) {
            o[c * 32u + l] = sp[addr / 4u + c];
          }
        }
      } else if (d.is_store) {
        const std::uint32_t* const v = row(d.src_slot[1]);
        for (std::uint32_t l = 0; l < warp_size; ++l) {
          const std::uint32_t addr = (has_base ? ab[l] : 0u) + d.imm;
          VGPU_EXPECTS_MSG(addr % wbytes == 0, "misaligned shared access");
          out.lane_addrs[l] = addr;
          for (std::uint32_t c = 0; c < words; ++c) {
            smem_.store_u32(addr + 4u * c, v[c * 32u + l]);
          }
        }
      } else {
        std::uint32_t* const o = row(d.dst_slot);
        for (std::uint32_t l = 0; l < warp_size; ++l) {
          const std::uint32_t addr = (has_base ? ab[l] : 0u) + d.imm;
          VGPU_EXPECTS_MSG(addr % wbytes == 0, "misaligned shared access");
          out.lane_addrs[l] = addr;
          for (std::uint32_t c = 0; c < words; ++c) {
            o[c * 32u + l] = smem_.load_u32(addr + 4u * c);
          }
        }
      }
      const std::span<const std::uint32_t> la(out.lane_addrs.data(),
                                              warp_size);
      out.shared_conflict_degree =
          cmemo_ != nullptr
              ? cmemo_->lookup(la, exec, words)
              : warp_bank_conflict_degree(la, exec, words, spec_.half_warp,
                                          spec_.shared_mem_banks);
      break;
    }
    default:
      VGPU_EXPECTS_MSG(false, "non-fusable boundary op");
  }
}

// The register-ALU subset of step_fast (single-step dispatch, any mask).
// Architectural effects are exactly those of the corresponding step_ref
// cases, and of the threaded handlers step_run dispatches converged runs
// through. `now` feeds only the clock reads.
void BlockExec::exec_alu(const DecodedInstr& d, WarpState& ws, Mask exec,
                         bool converged, std::uint32_t base_thread,
                         std::uint64_t now) {
  const std::uint32_t warp_size = spec_.warp_size;
  std::uint32_t* const R = ws.regs;
  auto row = [&](std::uint32_t s) -> std::uint32_t* { return R + s * 32u; };
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
    // ---- f32 -------------------------------------------------------------
    case Opcode::kFAdd: {
      std::uint32_t* const o = row(d.dst_slot);
      const std::uint32_t* const a = row(d.src_slot[0]);
      const std::uint32_t* const b = row(d.src_slot[1]);
      for_lanes([&](std::uint32_t l) { o[l] = as_u32(as_f32(a[l]) + as_f32(b[l])); });
      break;
    }
    case Opcode::kFSub: {
      std::uint32_t* const o = row(d.dst_slot);
      const std::uint32_t* const a = row(d.src_slot[0]);
      const std::uint32_t* const b = row(d.src_slot[1]);
      for_lanes([&](std::uint32_t l) { o[l] = as_u32(as_f32(a[l]) - as_f32(b[l])); });
      break;
    }
    case Opcode::kFMul: {
      std::uint32_t* const o = row(d.dst_slot);
      const std::uint32_t* const a = row(d.src_slot[0]);
      const std::uint32_t* const b = row(d.src_slot[1]);
      for_lanes([&](std::uint32_t l) { o[l] = as_u32(as_f32(a[l]) * as_f32(b[l])); });
      break;
    }
    case Opcode::kFFma: {
      std::uint32_t* const o = row(d.dst_slot);
      const std::uint32_t* const a = row(d.src_slot[0]);
      const std::uint32_t* const b = row(d.src_slot[1]);
      const std::uint32_t* const c = row(d.src_slot[2]);
      for_lanes([&](std::uint32_t l) {
        o[l] = as_u32(as_f32(a[l]) * as_f32(b[l]) + as_f32(c[l]));
      });
      break;
    }
    case Opcode::kFRcp: {
      std::uint32_t* const o = row(d.dst_slot);
      const std::uint32_t* const a = row(d.src_slot[0]);
      for_lanes([&](std::uint32_t l) { o[l] = as_u32(1.0f / as_f32(a[l])); });
      break;
    }
    case Opcode::kFRsqrt: {
      std::uint32_t* const o = row(d.dst_slot);
      const std::uint32_t* const a = row(d.src_slot[0]);
      for_lanes([&](std::uint32_t l) {
        o[l] = as_u32(1.0f / std::sqrt(as_f32(a[l])));
      });
      break;
    }
    case Opcode::kFNeg: {
      std::uint32_t* const o = row(d.dst_slot);
      const std::uint32_t* const a = row(d.src_slot[0]);
      for_lanes([&](std::uint32_t l) { o[l] = as_u32(-as_f32(a[l])); });
      break;
    }
    case Opcode::kFAbs: {
      std::uint32_t* const o = row(d.dst_slot);
      const std::uint32_t* const a = row(d.src_slot[0]);
      for_lanes([&](std::uint32_t l) { o[l] = as_u32(std::fabs(as_f32(a[l]))); });
      break;
    }
    case Opcode::kFMin: {
      std::uint32_t* const o = row(d.dst_slot);
      const std::uint32_t* const a = row(d.src_slot[0]);
      const std::uint32_t* const b = row(d.src_slot[1]);
      for_lanes([&](std::uint32_t l) {
        o[l] = as_u32(std::fmin(as_f32(a[l]), as_f32(b[l])));
      });
      break;
    }
    case Opcode::kFMax: {
      std::uint32_t* const o = row(d.dst_slot);
      const std::uint32_t* const a = row(d.src_slot[0]);
      const std::uint32_t* const b = row(d.src_slot[1]);
      for_lanes([&](std::uint32_t l) {
        o[l] = as_u32(std::fmax(as_f32(a[l]), as_f32(b[l])));
      });
      break;
    }

    // ---- u32 -------------------------------------------------------------
    case Opcode::kIAdd: {
      std::uint32_t* const o = row(d.dst_slot);
      const std::uint32_t* const a = row(d.src_slot[0]);
      const std::uint32_t* const b = row(d.src_slot[1]);
      for_lanes([&](std::uint32_t l) { o[l] = a[l] + b[l]; });
      break;
    }
    case Opcode::kISub: {
      std::uint32_t* const o = row(d.dst_slot);
      const std::uint32_t* const a = row(d.src_slot[0]);
      const std::uint32_t* const b = row(d.src_slot[1]);
      for_lanes([&](std::uint32_t l) { o[l] = a[l] - b[l]; });
      break;
    }
    case Opcode::kIMul: {
      std::uint32_t* const o = row(d.dst_slot);
      const std::uint32_t* const a = row(d.src_slot[0]);
      const std::uint32_t* const b = row(d.src_slot[1]);
      for_lanes([&](std::uint32_t l) { o[l] = a[l] * b[l]; });
      break;
    }
    case Opcode::kIMad: {
      std::uint32_t* const o = row(d.dst_slot);
      const std::uint32_t* const a = row(d.src_slot[0]);
      const std::uint32_t* const b = row(d.src_slot[1]);
      const std::uint32_t* const c = row(d.src_slot[2]);
      for_lanes([&](std::uint32_t l) { o[l] = a[l] * b[l] + c[l]; });
      break;
    }
    case Opcode::kIAddImm: {
      std::uint32_t* const o = row(d.dst_slot);
      const std::uint32_t* const a = row(d.src_slot[0]);
      const std::uint32_t imm = d.imm;
      for_lanes([&](std::uint32_t l) { o[l] = a[l] + imm; });
      break;
    }
    case Opcode::kShl: {
      std::uint32_t* const o = row(d.dst_slot);
      const std::uint32_t* const a = row(d.src_slot[0]);
      const std::uint32_t* const b = row(d.src_slot[1]);
      for_lanes([&](std::uint32_t l) { o[l] = a[l] << (b[l] & 31u); });
      break;
    }
    case Opcode::kShr: {
      std::uint32_t* const o = row(d.dst_slot);
      const std::uint32_t* const a = row(d.src_slot[0]);
      const std::uint32_t* const b = row(d.src_slot[1]);
      for_lanes([&](std::uint32_t l) { o[l] = a[l] >> (b[l] & 31u); });
      break;
    }
    case Opcode::kAnd: {
      std::uint32_t* const o = row(d.dst_slot);
      const std::uint32_t* const a = row(d.src_slot[0]);
      const std::uint32_t* const b = row(d.src_slot[1]);
      for_lanes([&](std::uint32_t l) { o[l] = a[l] & b[l]; });
      break;
    }
    case Opcode::kOr: {
      std::uint32_t* const o = row(d.dst_slot);
      const std::uint32_t* const a = row(d.src_slot[0]);
      const std::uint32_t* const b = row(d.src_slot[1]);
      for_lanes([&](std::uint32_t l) { o[l] = a[l] | b[l]; });
      break;
    }
    case Opcode::kXor: {
      std::uint32_t* const o = row(d.dst_slot);
      const std::uint32_t* const a = row(d.src_slot[0]);
      const std::uint32_t* const b = row(d.src_slot[1]);
      for_lanes([&](std::uint32_t l) { o[l] = a[l] ^ b[l]; });
      break;
    }
    case Opcode::kIMin: {
      std::uint32_t* const o = row(d.dst_slot);
      const std::uint32_t* const a = row(d.src_slot[0]);
      const std::uint32_t* const b = row(d.src_slot[1]);
      for_lanes([&](std::uint32_t l) { o[l] = std::min(a[l], b[l]); });
      break;
    }
    case Opcode::kIMax: {
      std::uint32_t* const o = row(d.dst_slot);
      const std::uint32_t* const a = row(d.src_slot[0]);
      const std::uint32_t* const b = row(d.src_slot[1]);
      for_lanes([&](std::uint32_t l) { o[l] = std::max(a[l], b[l]); });
      break;
    }

    // ---- moves / conversions ----------------------------------------------
    case Opcode::kMov: {
      std::uint32_t* const o = row(d.dst_slot);
      const std::uint32_t* const a = row(d.src_slot[0]);
      for_lanes([&](std::uint32_t l) { o[l] = a[l]; });
      break;
    }
    case Opcode::kMovImm: {
      std::uint32_t* const o = row(d.dst_slot);
      const std::uint32_t imm = d.imm;
      for_lanes([&](std::uint32_t l) { o[l] = imm; });
      break;
    }
    case Opcode::kMovParam: {
      std::uint32_t* const o = row(d.dst_slot);
      const std::uint32_t v = bp_.params[d.imm];
      for_lanes([&](std::uint32_t l) { o[l] = v; });
      break;
    }
    case Opcode::kMovSpecial: {
      std::uint32_t* const o = row(d.dst_slot);
      const auto s = static_cast<Special>(d.imm);
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
        o[l] = v;
      });
      break;
    }
    case Opcode::kClock: {
      std::uint32_t* const o = row(d.dst_slot);
      const auto v = static_cast<std::uint32_t>(now);
      for_lanes([&](std::uint32_t l) { o[l] = v; });
      break;
    }
    case Opcode::kI2F: {
      std::uint32_t* const o = row(d.dst_slot);
      const std::uint32_t* const a = row(d.src_slot[0]);
      for_lanes([&](std::uint32_t l) { o[l] = as_u32(static_cast<float>(a[l])); });
      break;
    }
    case Opcode::kF2I: {
      std::uint32_t* const o = row(d.dst_slot);
      const std::uint32_t* const a = row(d.src_slot[0]);
      for_lanes([&](std::uint32_t l) {
        const float f = as_f32(a[l]);
        o[l] = f <= 0.0f ? 0u : static_cast<std::uint32_t>(f);
      });
      break;
    }

    // ---- predicates --------------------------------------------------------
    case Opcode::kSetp: {
      Mask result = 0;
      const std::uint32_t* const a = row(d.src_slot[0]);
      const bool has_reg_b = d.src_slot[1] != kNoSlot;
      const std::uint32_t* const b = has_reg_b ? row(d.src_slot[1]) : nullptr;
      // The comparison op is dispatched once, outside the lane loop, to a
      // branchless cmp-specialized loop (result bits accumulate by shift-or,
      // not a data-dependent branch); semantics per case are exactly
      // eval_cmp's operators.
      auto cmp_loop = [&](auto cmpfn) {
        if (d.cmp_is_float) {
          if (has_reg_b) {
            for_lanes([&](std::uint32_t l) {
              result |= static_cast<Mask>(cmpfn(as_f32(a[l]), as_f32(b[l])))
                        << l;
            });
          } else {
            const float bi = as_f32(d.imm);
            for_lanes([&](std::uint32_t l) {
              result |= static_cast<Mask>(cmpfn(as_f32(a[l]), bi)) << l;
            });
          }
        } else {
          if (has_reg_b) {
            for_lanes([&](std::uint32_t l) {
              result |= static_cast<Mask>(cmpfn(a[l], b[l])) << l;
            });
          } else {
            const std::uint32_t bi = d.imm;
            for_lanes([&](std::uint32_t l) {
              result |= static_cast<Mask>(cmpfn(a[l], bi)) << l;
            });
          }
        }
      };
      switch (d.cmp) {
        case CmpOp::kEq: cmp_loop([](auto x, auto y) { return x == y; }); break;
        case CmpOp::kNe: cmp_loop([](auto x, auto y) { return x != y; }); break;
        case CmpOp::kLt: cmp_loop([](auto x, auto y) { return x < y; }); break;
        case CmpOp::kLe: cmp_loop([](auto x, auto y) { return x <= y; }); break;
        case CmpOp::kGt: cmp_loop([](auto x, auto y) { return x > y; }); break;
        case CmpOp::kGe: cmp_loop([](auto x, auto y) { return x >= y; }); break;
      }
      ws.preds[d.pdst] = (ws.preds[d.pdst] & ~exec) | (result & exec);
      break;
    }
    case Opcode::kPAnd:
      ws.preds[d.pdst] = (ws.preds[d.pdst] & ~exec) |
                         (ws.preds[d.psrc0] & ws.preds[d.psrc1] & exec);
      break;
    case Opcode::kPOr:
      ws.preds[d.pdst] = (ws.preds[d.pdst] & ~exec) |
                         ((ws.preds[d.psrc0] | ws.preds[d.psrc1]) & exec);
      break;
    case Opcode::kPNot:
      ws.preds[d.pdst] =
          (ws.preds[d.pdst] & ~exec) | (~ws.preds[d.psrc0] & exec);
      break;
    case Opcode::kSel: {
      std::uint32_t* const o = row(d.dst_slot);
      const std::uint32_t* const a = row(d.src_slot[0]);
      const std::uint32_t* const b = row(d.src_slot[1]);
      const Mask p = ws.preds[d.psrc0];
      for_lanes([&](std::uint32_t l) {
        o[l] = (p & (1u << l)) ? a[l] : b[l];
      });
      break;
    }
    default:
      break;  // memory/control ops never reach exec_alu
  }
}

}  // namespace vgpu
