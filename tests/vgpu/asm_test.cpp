// Assembler tests: hand-written listings, round trips on every real kernel
// of the repository, functional equivalence of reassembled programs, and
// error reporting.
#include <gtest/gtest.h>

#include "gravit/kernels.hpp"
#include "layout/microbench.hpp"
#include "vgpu/asm.hpp"
#include "vgpu/builder.hpp"
#include "vgpu/device.hpp"
#include "vgpu/opt.hpp"
#include "vgpu/regalloc.hpp"

namespace vgpu {
namespace {

TEST(Assembler, ParsesHandWrittenKernel) {
  const char* text = R"(
.kernel doubler  (params=1)
B0:   // region S
    mov.special r0, %tid
    mov.imm r1, 0x2
    shl r2, r0, r1
    mov.param r3, param[0]
    iadd r4, r3, r2
    ld.global.32b r5, [r4+0]
    fadd r6, r5, r5
    st.global.32b [r4+0], r6
    exit
)";
  Program prog = assemble(text);
  EXPECT_EQ(prog.name, "doubler");
  EXPECT_EQ(prog.num_params, 1u);
  allocate_registers(prog);

  Device dev(tiny_spec(), 1 << 16);
  std::vector<float> data(32);
  for (std::size_t k = 0; k < 32; ++k) data[k] = static_cast<float>(k) + 0.25f;
  Buffer buf = dev.upload<float>(data);
  const std::uint32_t params[1] = {buf.addr};
  dev.launch_functional(prog, LaunchConfig{1, 32}, params);
  std::vector<float> out(32);
  dev.download<float>(out, buf);
  for (std::size_t k = 0; k < 32; ++k) {
    EXPECT_FLOAT_EQ(out[k], 2.0f * (static_cast<float>(k) + 0.25f)) << k;
  }
}

TEST(Assembler, RoundTripsTheMicroBenchmarkKernels) {
  for (layout::SchemeKind scheme : layout::all_schemes()) {
    const auto phys = layout::plan_layout(layout::gravit_record(), scheme);
    const Program prog = layout::make_read_kernel(phys);
    std::string diff;
    EXPECT_TRUE(round_trips(prog, &diff)) << layout::to_string(scheme) << "\n"
                                          << diff;
  }
}

TEST(Assembler, RoundTripsTheFarfieldKernels) {
  for (const std::uint32_t unroll : {1u, 8u, 128u}) {
    gravit::KernelOptions opt;
    opt.unroll = unroll;
    const gravit::BuiltKernel built = gravit::make_farfield_kernel(opt);
    std::string diff;
    EXPECT_TRUE(round_trips(built.prog, &diff)) << "unroll=" << unroll << "\n"
                                                << diff;
  }
}

TEST(Assembler, RoundTripsSpilledKernels) {
  // register-capped kernels contain ld.local/st.local and a local frame
  gravit::KernelOptions opt;
  opt.max_regs = 16;
  const gravit::BuiltKernel built = gravit::make_farfield_kernel(opt);
  EXPECT_GT(built.prog.local_bytes, 0u);
  std::string diff;
  EXPECT_TRUE(round_trips(built.prog, &diff)) << diff;
  // the frame size survives the header round trip
  const Program re = assemble(disassemble(built.prog));
  EXPECT_EQ(re.local_bytes, built.prog.local_bytes);
}

TEST(Assembler, ReassembledKernelComputesIdentically) {
  // saxpy-style kernel: compare outputs of original vs reassembled
  KernelBuilder kb("rt", 2);
  Val i = kb.iadd(kb.imul(kb.ctaid(), kb.ntid()), kb.tid());
  Val addr = kb.iadd(kb.param_u32(0), kb.shl(i, 2));
  Val x = kb.ld_global_f32(addr);
  PVal big = kb.setp_f32(CmpOp::kGt, x, kb.imm_f32(0.5f));
  Val y = kb.var_f32(x);
  kb.if_then_else(big, [&] { kb.assign(y, kb.fmul(x, kb.imm_f32(3.0f))); },
                  [&] { kb.assign(y, kb.fadd(x, kb.imm_f32(1.0f))); });
  kb.st_global(kb.iadd(kb.param_u32(1), kb.shl(i, 2)), y);
  Program orig = std::move(kb).finish();

  Program re = assemble(disassemble(orig));
  allocate_registers(orig);
  allocate_registers(re);

  auto run = [](const Program& prog) {
    Device dev(tiny_spec(), 1 << 16);
    std::vector<float> in(64);
    for (std::size_t k = 0; k < in.size(); ++k) {
      in[k] = static_cast<float>(k % 10) * 0.11f;
    }
    Buffer bin = dev.upload<float>(in);
    Buffer bout = dev.malloc_n<float>(64);
    const std::uint32_t params[2] = {bin.addr, bout.addr};
    dev.launch_functional(prog, LaunchConfig{2, 32}, params);
    std::vector<float> out(64);
    dev.download<float>(out, bout);
    return out;
  };
  EXPECT_EQ(run(orig), run(re));
}

TEST(Assembler, ReportsErrorsWithLineNumbers) {
  EXPECT_THROW((void)assemble("garbage"), ContractViolation);
  EXPECT_THROW((void)assemble(".kernel k (params=1)\nB0:\n    bogus r1, r2\n"),
               ContractViolation);
  EXPECT_THROW((void)assemble(".kernel k (params=1)\n    exit\n"),
               ContractViolation);  // instruction before any block
  try {
    (void)assemble(".kernel k (params=1)\nB0:\n    fadd r1,\n    exit\n");
    FAIL() << "expected a parse error";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
  }
  // Indices and numbers are parsed over the whole token and range-checked:
  // none of these may truncate or wrap into a valid operand, and a huge
  // register index must not size the register table.
  for (const char* bad :
       {"mov.imm r10xyz, 0x1", "mov.imm r4294967306, 0x1",
        "fadd r1, r35.257, r0", "@p4294967297 mov.imm r1, 0x1",
        "bra B4294967299", "mov.imm r499999999992, 0x1",
        "mov.imm r1, 0x100000000"}) {
    const std::string text =
        std::string(".kernel k (params=1)\nB0:\n    mov.imm r0, 0x1\n    ") +
        bad + "\n    exit\n";
    try {
      (void)assemble(text);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
          << bad << ": " << e.what();
    }
  }
}

TEST(Assembler, PreservesRegionsAndGuards) {
  const char* text = R"(
.kernel guarded  (params=1, shared=64B)
B0:   // region P
    mov.special r0, %tid
    setp.lt.u32 p0, r0, 16
    @p0 mov.imm r1, 0x7
    @!p0 mov.imm r1, 0x9
    st.global.32b [r2+0], r1
    exit
)";
  Program prog = assemble(text);
  EXPECT_EQ(prog.blocks[0].region, Region::kInner);
  EXPECT_EQ(prog.shared_bytes, 64u);
  const auto& instrs = prog.blocks[0].instrs;
  EXPECT_EQ(instrs[2].guard, 0u);
  EXPECT_FALSE(instrs[2].guard_negated);
  EXPECT_EQ(instrs[3].guard, 0u);
  EXPECT_TRUE(instrs[3].guard_negated);
  std::string diff;
  EXPECT_TRUE(round_trips(prog, &diff)) << diff;
}

}  // namespace
}  // namespace vgpu
