// opclass.hpp - the one shared opcode classification table.
//
// Before this table existed, the StepResult::Kind classification, the
// InstrClass profiling buckets, the load/store flags and the "may this sit
// inside a straight-line run" predicate were each re-derived in separate
// switch statements (decode.cpp, ir.cpp, interp.cpp) that could drift
// apart silently. Every consumer - decode(), the interpreter, the
// threaded-code backend (threaded.hpp) and the profilers - now reads the
// same constexpr table, and tests/vgpu/threaded_dispatch_test.cpp pins each
// column against an independently written oracle so a new opcode cannot be
// added with inconsistent metadata.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "vgpu/interp.hpp"
#include "vgpu/ir.hpp"
#include "vgpu/launch.hpp"

namespace vgpu {

inline constexpr std::size_t kOpcodeCount =
    static_cast<std::size_t>(Opcode::kClock) + 1;

/// Static per-opcode metadata. `run_eligible` is the opcode-level half of
/// decode.cpp's batchable(): the per-instruction checks (guard, the %clock
/// special) still apply on top of it. kLdShared is eligible per
/// instruction, not per opcode - only when its address is warp-uniform - so
/// its column stays false here.
struct OpTraits {
  StepResult::Kind kind = StepResult::Kind::kAlu;
  InstrClass klass = InstrClass::kOther;
  bool is_load = false;
  bool is_store = false;
  /// Block terminators plus the barrier - everything that can move or park
  /// the warp instead of writing registers.
  bool is_control = false;
  bool run_eligible = false;
};

namespace detail {

consteval std::array<OpTraits, kOpcodeCount> make_op_traits() {
  using K = StepResult::Kind;
  using C = InstrClass;
  std::array<OpTraits, kOpcodeCount> t{};
  const auto set = [&](Opcode op, OpTraits tr) {
    t[static_cast<std::size_t>(op)] = tr;
  };
  const auto alu = [&](Opcode op, C c) {
    set(op, OpTraits{K::kAlu, c, false, false, false, true});
  };
  // Register ALU (all run-eligible at the opcode level).
  alu(Opcode::kFAdd, C::kFloatAlu);
  alu(Opcode::kFSub, C::kFloatAlu);
  alu(Opcode::kFMul, C::kFloatAlu);
  alu(Opcode::kFFma, C::kFloatAlu);
  alu(Opcode::kFRcp, C::kFloatAlu);
  alu(Opcode::kFRsqrt, C::kFloatAlu);
  alu(Opcode::kFNeg, C::kFloatAlu);
  alu(Opcode::kFAbs, C::kFloatAlu);
  alu(Opcode::kFMin, C::kFloatAlu);
  alu(Opcode::kFMax, C::kFloatAlu);
  alu(Opcode::kI2F, C::kFloatAlu);
  alu(Opcode::kIAdd, C::kIntAlu);
  alu(Opcode::kISub, C::kIntAlu);
  alu(Opcode::kIMul, C::kIntAlu);
  alu(Opcode::kIMad, C::kIntAlu);
  alu(Opcode::kIAddImm, C::kIntAlu);
  alu(Opcode::kShl, C::kIntAlu);
  alu(Opcode::kShr, C::kIntAlu);
  alu(Opcode::kAnd, C::kIntAlu);
  alu(Opcode::kOr, C::kIntAlu);
  alu(Opcode::kXor, C::kIntAlu);
  alu(Opcode::kIMin, C::kIntAlu);
  alu(Opcode::kIMax, C::kIntAlu);
  alu(Opcode::kF2I, C::kIntAlu);
  alu(Opcode::kMov, C::kOther);
  alu(Opcode::kMovImm, C::kOther);
  alu(Opcode::kMovSpecial, C::kOther);  // %clock excluded per-instruction
  alu(Opcode::kMovParam, C::kOther);
  alu(Opcode::kSel, C::kOther);
  // Predicate writers: kAlu kind and run-eligible - a converged warp's
  // predicate write covers its whole active mask. They bucket with control
  // in the profiling classes - they exist to steer branches.
  alu(Opcode::kSetp, C::kControl);
  alu(Opcode::kPAnd, C::kControl);
  alu(Opcode::kPOr, C::kControl);
  alu(Opcode::kPNot, C::kControl);
  set(Opcode::kClock, OpTraits{K::kAlu, C::kOther});  // issue-cycle dependent
  // Memory.
  set(Opcode::kLdGlobal,
      OpTraits{K::kGlobal, C::kGlobalMemory, true, false});
  set(Opcode::kStGlobal,
      OpTraits{K::kGlobal, C::kGlobalMemory, false, true});
  set(Opcode::kLdShared,
      OpTraits{K::kShared, C::kSharedMemory, true, false});
  set(Opcode::kStShared,
      OpTraits{K::kShared, C::kSharedMemory, false, true});
  set(Opcode::kLdConst, OpTraits{K::kConst, C::kOther, true, false});
  // Texture fetches and local (spill) traffic hit DRAM; they bucket with
  // global memory in the profiling classes.
  set(Opcode::kLdTex, OpTraits{K::kTex, C::kGlobalMemory, true, false});
  set(Opcode::kLdLocal, OpTraits{K::kLocal, C::kGlobalMemory, true, false});
  set(Opcode::kStLocal, OpTraits{K::kLocal, C::kGlobalMemory, false, true});
  // Control flow.
  set(Opcode::kBra,
      OpTraits{K::kAlu, C::kControl, false, false, true});
  set(Opcode::kBraCond,
      OpTraits{K::kAlu, C::kControl, false, false, true});
  set(Opcode::kExit,
      OpTraits{K::kExit, C::kControl, false, false, true});
  set(Opcode::kBar,
      OpTraits{K::kBarrier, C::kControl, false, false, true});
  return t;
}

inline constexpr std::array<OpTraits, kOpcodeCount> kOpTraits =
    make_op_traits();

}  // namespace detail

[[nodiscard]] inline const OpTraits& op_traits(Opcode op) {
  return detail::kOpTraits[static_cast<std::size_t>(op)];
}

/// Inline definition of launch.hpp's instr_class: per-step accounting in
/// both executors calls this once per single-stepped instruction, so it
/// must compile down to one table load.
[[nodiscard]] inline InstrClass instr_class(Opcode op) {
  return op_traits(op).klass;
}

/// The kSetp comparison of the reference interpreter (instantiated for
/// std::uint32_t and float - the two compare domains the IR has); the fast
/// path's setp_lanes below applies the same operators lane by lane.
template <typename T>
[[nodiscard]] constexpr bool eval_cmp(CmpOp op, T a, T b) {
  switch (op) {
    case CmpOp::kEq: return a == b;
    case CmpOp::kNe: return a != b;
    case CmpOp::kLt: return a < b;
    case CmpOp::kLe: return a <= b;
    case CmpOp::kGt: return a > b;
    case CmpOp::kGe: return a >= b;
  }
  return false;
}

/// The kSetp lane loop of the kSetp* handlers (threaded_handlers.inc): the
/// comparison is dispatched once, outside the loop, to a branchless loop
/// that accumulates lane l's bit by shift-or - eval_cmp's operators, one
/// loop per operator. `at_a(l)`/`at_b(l)` give lane l's operands in the
/// compare domain; bits from `lanes` up stay clear.
template <typename AtA, typename AtB>
[[nodiscard]] inline std::uint32_t setp_lanes(CmpOp cmp, std::uint32_t lanes,
                                              AtA at_a, AtB at_b) {
  std::uint32_t r = 0;
  const auto loop = [&](auto f) {
    for (std::uint32_t l = 0; l < lanes; ++l) {
      r |= static_cast<std::uint32_t>(f(at_a(l), at_b(l))) << l;
    }
  };
  switch (cmp) {
    case CmpOp::kEq: loop([](auto x, auto y) { return x == y; }); break;
    case CmpOp::kNe: loop([](auto x, auto y) { return x != y; }); break;
    case CmpOp::kLt: loop([](auto x, auto y) { return x < y; }); break;
    case CmpOp::kLe: loop([](auto x, auto y) { return x <= y; }); break;
    case CmpOp::kGt: loop([](auto x, auto y) { return x > y; }); break;
    case CmpOp::kGe: loop([](auto x, auto y) { return x >= y; }); break;
  }
  return r;
}

/// kFMin and kFMax for the handlers (threaded_handlers.inc): C's fmin and
/// fmax as this host's libm computes them, with the operand order fixed. A
/// NaN operand yields the other operand, two NaNs the first, and otherwise
/// the result is a < b ? a : b (a > b ? a : b), so a tie of +0 and -0
/// gives b. std::fmin leaves those two cases open, and GCC treats it as
/// commutative, so dispatch loops compiled apart could return different
/// bits for them.
[[nodiscard]] inline float fmin_lane(float a, float b) {
  if (std::isnan(b)) return a;
  return a < b ? a : b;
}
[[nodiscard]] inline float fmax_lane(float a, float b) {
  if (std::isnan(b)) return a;
  return a > b ? a : b;
}

/// kF2I's conversion for the kF2I handler (threaded_handlers.inc), PTX
/// cvt.rzi.u32.f32: truncate toward zero and saturate - NaN and values
/// <= 0 give 0, values >= 2^32 (+inf included) give 0xFFFFFFFF. A plain
/// cast is undefined outside (-1, 2^32), and the x86 conversion sequences
/// of different instruction sets fill that gap differently, so the clamp
/// keeps the cast in range (4294967040 is the largest float below 2^32).
[[nodiscard]] inline std::uint32_t f2u_rz(float f) {
  const float in_range = f > 0.0f ? std::min(f, 4294967040.0f) : 0.0f;
  return f >= 4294967296.0f ? 0xFFFFFFFFu
                            : static_cast<std::uint32_t>(in_range);
}

}  // namespace vgpu
