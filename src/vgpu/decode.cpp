#include "vgpu/decode.hpp"

#include "vgpu/check.hpp"
#include "vgpu/opclass.hpp"

namespace vgpu {

namespace {

/// Divergence analysis (Coutinho, Sampaio, Pereira and Meira, "Divergence
/// Analysis and Optimizations", PACT 2011) over the program's virtual
/// registers. Operands stay virtual registers after allocate_registers, and
/// its interference keeps every read equal to its register's reaching
/// definition, so a register is uniform - all lanes of a warp hold the same
/// value wherever it is read - when every definition of it is. Predicates
/// likewise. Optimistic: everything starts uniform and is marked varying
/// until nothing changes. A definition keeps its register uniform when
///   * it reads only immediates, parameters, warp-invariant specials
///     (%ctaid, %ntid, %nctaid, %warpid, %smid) and uniform registers and
///     predicates - loads, %tid, %laneid and %clock vary;
///   * its guard, if any, is uniform; and
///   * it sits outside every block that a non-uniform branch reaches before
///     its reconvergence block, where part of the warp's lanes may run.
/// Lane storage starts zeroed, so a register with no definition is uniform.
struct Uniformity {
  std::vector<char> regs;   ///< by virtual register
  std::vector<char> preds;  ///< by predicate register
};

[[nodiscard]] bool reads_varying_input(const Instruction& in) {
  if (in.is_load() || in.op == Opcode::kClock) return true;
  if (in.op != Opcode::kMovSpecial) return false;
  const auto s = static_cast<Special>(in.imm);
  return s == Special::kTid || s == Special::kLane || s == Special::kClock;
}

[[nodiscard]] Uniformity analyze_uniformity(const Program& prog) {
  Uniformity u;
  u.regs.assign(prog.regs.size(), 1);
  u.preds.assign(prog.num_preds, 1);
  const auto reg_uniform = [&](const Operand& o) {
    return !o.valid() || u.regs[o.reg] != 0;
  };
  const auto pred_uniform = [&](PredId p) {
    return p == kNoPred || u.preds[p] != 0;
  };
  const std::size_t nblocks = prog.blocks.size();
  std::vector<char> divergent(nblocks, 0);
  std::vector<char> branch_marked(nblocks, 0);  // by the branch's block
  std::vector<std::uint32_t> seen(nblocks, 0);  // BFS stamp per branch
  std::vector<BlockId> work;
  bool changed = true;
  while (changed) {
    changed = false;
    // Mark the region of every branch found non-uniform so far: the blocks
    // it reaches before its reconvergence block.
    for (std::size_t b = 0; b < nblocks; ++b) {
      if (prog.blocks[b].instrs.empty() || branch_marked[b] != 0) continue;
      const Instruction& t = prog.blocks[b].terminator();
      if (t.op != Opcode::kBraCond || pred_uniform(t.psrc0)) continue;
      branch_marked[b] = 1;
      const auto stamp = static_cast<std::uint32_t>(b + 1);
      work.assign({t.target, t.target2});
      while (!work.empty()) {
        const BlockId x = work.back();
        work.pop_back();
        if (x >= nblocks || x == t.reconv || seen[x] == stamp) continue;
        seen[x] = stamp;
        divergent[x] = 1;
        if (prog.blocks[x].instrs.empty()) continue;
        const Instruction& xt = prog.blocks[x].terminator();
        if (xt.op == Opcode::kBra || xt.op == Opcode::kBraCond) {
          work.push_back(xt.target);
          work.push_back(xt.target2);
        }
      }
    }
    for (std::size_t b = 0; b < nblocks; ++b) {
      for (const Instruction& in : prog.blocks[b].instrs) {
        const bool reg_def = in.dst.valid() && u.regs[in.dst.reg] != 0;
        const bool pred_def = in.pdst != kNoPred && u.preds[in.pdst] != 0;
        if (!reg_def && !pred_def) continue;
        const bool uniform =
            divergent[b] == 0 && !reads_varying_input(in) &&
            pred_uniform(in.guard) && reg_uniform(in.src[0]) &&
            reg_uniform(in.src[1]) && reg_uniform(in.src[2]) &&
            pred_uniform(in.psrc0) && pred_uniform(in.psrc1);
        if (uniform) continue;
        if (reg_def) u.regs[in.dst.reg] = 0;
        if (pred_def) u.preds[in.pdst] = 0;
        changed = true;
      }
    }
  }
  return u;
}

/// True when the instruction can sit inside a converged straight-line run:
/// no guard, no control flow, no clock read (reads_clock), and either a
/// register ALU op or predicate writer (the opcode-level half lives in the
/// shared trait table, opclass.hpp, run_eligible) or a shared load whose
/// address is warp-uniform - a broadcast, priced without its lane
/// addresses.
[[nodiscard]] bool batchable(const DecodedInstr& d, bool uniform_address) {
  if (d.guard != kNoPred) return false;
  if (d.op == Opcode::kLdShared) return uniform_address;
  return op_traits(d.op).run_eligible && !reads_clock(d);
}

/// True when a run ending at this instruction counts it as a fused boundary
/// op (DecodedRun::fuse_boundary): an unguarded memory access with no
/// predicate write. Control flow, barriers and exits do not count.
[[nodiscard]] bool fusable_boundary(const DecodedInstr& d) {
  switch (d.kind) {
    case StepResult::Kind::kGlobal:
    case StepResult::Kind::kShared:
    case StepResult::Kind::kLocal:
    case StepResult::Kind::kConst:
    case StepResult::Kind::kTex:
      break;
    default:
      return false;
  }
  return d.guard == kNoPred && d.pdst == kNoPred;
}

}  // namespace

DecodedProgram decode(const Program& prog) {
  VGPU_EXPECTS_MSG(prog.reg_file_size > 0 || prog.regs.empty(),
                   "decode requires a finished register layout");
  DecodedProgram dec;
  dec.block_start.reserve(prog.blocks.size());
  dec.instrs.reserve(prog.instruction_count());

  auto slot_of = [&](const Operand& o) -> std::uint32_t {
    if (!o.valid()) return kNoSlot;
    return prog.reg_base[o.reg] + o.comp;
  };
  const Uniformity uni = analyze_uniformity(prog);
  std::vector<char> run_member;
  run_member.reserve(prog.instruction_count());

  for (const Block& blk : prog.blocks) {
    dec.block_start.push_back(static_cast<std::uint32_t>(dec.instrs.size()));
    for (const Instruction& in : blk.instrs) {
      DecodedInstr d;
      d.op = in.op;
      d.kind = op_traits(in.op).kind;
      d.region = blk.region;
      d.dst_slot = slot_of(in.dst);
      d.src_slot[0] = slot_of(in.src[0]);
      d.src_slot[1] = slot_of(in.src[1]);
      d.src_slot[2] = slot_of(in.src[2]);
      d.imm = in.imm;
      d.width = in.width;
      d.width_words = width_words(in.width);
      d.width_bytes = width_bytes(in.width);
      d.is_store = in.is_store();
      d.is_load = in.is_load();
      d.cmp = in.cmp;
      d.cmp_is_float = in.cmp_is_float;
      d.branch_if_false = in.branch_if_false;
      d.guard_negated = in.guard_negated;
      d.pdst = in.pdst;
      d.psrc0 = in.psrc0;
      d.psrc1 = in.psrc1;
      d.guard = in.guard;
      d.target = in.target;
      d.target2 = in.target2;
      d.reconv = in.reconv;

      // Scoreboard read-set, mirroring the timing executor's reference
      // dep_ready walk exactly: src[0] and src[2] are scalar reads, src[1]
      // carries the full store width, and the destination counts as a read
      // extent too (a load overwrites `width` words, a scalar def one word -
      // the in-order writeback hazard the reference models).
      auto add_reg_dep = [&](std::uint32_t slot, std::uint32_t words) {
        if (slot == kNoSlot || words == 0) return;
        d.deps[d.num_deps++] = DecodedInstr::RegDep{slot, words};
      };
      add_reg_dep(d.src_slot[0], 1);
      add_reg_dep(d.src_slot[1], d.is_store ? d.width_words : 1);
      add_reg_dep(d.src_slot[2], 1);
      d.dst_words = d.dst_slot == kNoSlot ? 0u : (d.is_load ? d.width_words : 1u);
      add_reg_dep(d.dst_slot, d.dst_words);

      auto add_pred_dep = [&](PredId p) {
        if (p != kNoPred) d.pred_deps[d.num_pred_deps++] = p;
      };
      add_pred_dep(d.psrc0);
      add_pred_dep(d.psrc1);
      add_pred_dep(d.guard);

      run_member.push_back(
          batchable(d, !in.src[0].valid() || uni.regs[in.src[0].reg] != 0));
      dec.instrs.push_back(d);
    }
  }

  // Segment each block into maximal straight-line runs with a backward scan:
  // a batchable instruction's run is itself plus the run that starts right
  // after it (still 0 past a non-batchable instruction or the block end).
  dec.runs.assign(dec.instrs.size(), DecodedRun{});
  for (std::size_t b = 0; b < prog.blocks.size(); ++b) {
    const std::size_t begin = dec.block_start[b];
    const std::size_t end = begin + prog.blocks[b].instrs.size();
    for (std::size_t i = end; i-- > begin;) {
      const DecodedInstr& d = dec.instrs[i];
      if (run_member[i] == 0) continue;
      DecodedRun& r = dec.runs[i];
      r.len = 1;
      r.region = d.region;
      ++r.class_counts[static_cast<std::size_t>(instr_class(d.op))];
      if (d.op == Opcode::kLdShared) {
        ++r.shared_loads[shared_width_index(d.width_words)];
      }
      if (i + 1 < end && dec.runs[i + 1].len != 0) {
        const DecodedRun& next = dec.runs[i + 1];
        r.len += next.len;
        for (std::size_t c = 0; c < r.class_counts.size(); ++c) {
          r.class_counts[c] += next.class_counts[c];
        }
        for (std::size_t k = 0; k < r.shared_loads.size(); ++k) {
          r.shared_loads[k] += next.shared_loads[k];
        }
      }
      // Every suffix of a maximal run shares the run's terminator; record
      // whether that terminator counts as a fused boundary op.
      const std::size_t bnd = i + r.len;
      r.fuse_boundary = bnd < end && fusable_boundary(dec.instrs[bnd]);
    }
  }
  return dec;
}

}  // namespace vgpu
