#include "vgpu/decode.hpp"

#include "vgpu/check.hpp"
#include "vgpu/opclass.hpp"

namespace vgpu {

namespace {

/// True when the instruction can sit inside a converged straight-line run:
/// a register ALU op with no guard, no predicate write, no control flow and
/// no clock read. The opcode-level half lives in the shared trait table
/// (opclass.hpp, run_eligible - which already excludes branches, predicate
/// writers and %clock); kMovSpecial additionally excludes the %clock
/// special, whose value depends on the issue cycle.
[[nodiscard]] bool batchable(const DecodedInstr& d) {
  if (!op_traits(d.op).run_eligible) return false;
  if (d.op == Opcode::kMovSpecial &&
      static_cast<Special>(d.imm) == Special::kClock) {
    return false;
  }
  if (d.guard != kNoPred) return false;
  if (d.pdst != kNoPred) return false;
  return true;
}

/// True when a run ending at this instruction may execute it fused into the
/// run's dispatch (boundary-step fusion): an unguarded memory access with no
/// predicate write. Control flow, barriers and exits still dispatch
/// separately - they change the warp's mask or scheduling state.
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
      if (!batchable(d)) continue;
      DecodedRun& r = dec.runs[i];
      r.len = 1;
      r.region = d.region;
      ++r.class_counts[static_cast<std::size_t>(instr_class(d.op))];
      if (i + 1 < end && dec.runs[i + 1].len != 0) {
        const DecodedRun& next = dec.runs[i + 1];
        r.len += next.len;
        for (std::size_t c = 0; c < r.class_counts.size(); ++c) {
          r.class_counts[c] += next.class_counts[c];
        }
      }
      // Every suffix of a maximal run shares the run's terminator; record
      // whether that terminator may be executed fused into the dispatch.
      const std::size_t bnd = i + r.len;
      r.fuse_boundary = bnd < end && fusable_boundary(dec.instrs[bnd]);
    }
  }
  return dec;
}

}  // namespace vgpu
