#include "vgpu/progcache.hpp"

#include <mutex>
#include <vector>

#include "vgpu/check.hpp"

namespace vgpu {

namespace {

/// FNV-1a over the decode-relevant content of a Program, folded field by
/// field (raw struct bytes would hash padding). Consistent with
/// Program::operator==: equal programs hash equal.
class Fnv {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u32(std::uint32_t v) { u64(v); }
  void u8(std::uint8_t v) { u64(v); }
  void b(bool v) { u64(v ? 1u : 0u); }
  void str(const std::string& s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void byte(std::uint8_t v) {
    h_ ^= v;
    h_ *= 0x100000001b3ull;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

struct CacheSlot {
  std::uint64_t hash = 0;
  std::shared_ptr<const CompiledKernel> kernel;
};

struct Cache {
  std::mutex mu;
  std::vector<CacheSlot> slots;
};

Cache& cache() {
  static Cache c;
  return c;
}

}  // namespace

std::uint64_t program_content_hash(const Program& p) {
  Fnv f;
  f.str(p.name);
  f.u64(p.blocks.size());
  for (const Block& blk : p.blocks) {
    f.u8(static_cast<std::uint8_t>(blk.region));
    f.u64(blk.instrs.size());
    for (const Instruction& in : blk.instrs) {
      f.u8(static_cast<std::uint8_t>(in.op));
      f.u8(static_cast<std::uint8_t>(in.width));
      f.u8(static_cast<std::uint8_t>(in.cmp));
      f.b(in.cmp_is_float);
      f.b(in.branch_if_false);
      f.u32(in.dst.reg);
      f.u8(in.dst.comp);
      for (const Operand& s : in.src) {
        f.u32(s.reg);
        f.u8(s.comp);
      }
      f.u32(in.imm);
      f.u32(in.pdst);
      f.u32(in.psrc0);
      f.u32(in.psrc1);
      f.u32(in.guard);
      f.b(in.guard_negated);
      f.u32(in.target);
      f.u32(in.target2);
      f.u32(in.reconv);
    }
  }
  f.u64(p.regs.size());
  for (const RegInfo& r : p.regs) {
    f.u8(static_cast<std::uint8_t>(r.type));
    f.u8(r.width);
  }
  f.u32(p.num_preds);
  f.u32(p.num_params);
  f.u32(p.shared_bytes);
  f.u32(p.local_bytes);
  f.u64(p.loops.size());
  for (const LoopInfo& l : p.loops) {
    f.u32(l.preheader);
    f.u32(l.body);
    f.u32(l.exit);
    f.u32(l.iv);
    f.u32(l.start);
    f.u32(l.step);
    f.u32(l.trip_count);
  }
  f.u32(p.num_phys_regs);
  f.b(p.allocated);
  f.u64(p.reg_base.size());
  for (const std::uint32_t rb : p.reg_base) f.u32(rb);
  f.u32(p.reg_file_size);
  return f.value();
}

CompiledKernel::CompiledKernel(const Program& prog)
    : key_(prog),
      dec_(decode(prog)),
      threaded_(build_threaded(dec_)),
      traces_(build_traces(dec_, threaded_)) {}

std::shared_ptr<const CompiledKernel> acquire_compiled(const Program& prog,
                                                       bool use_cache,
                                                       bool* hit) {
  if (hit != nullptr) *hit = false;
  if (!use_cache) return std::make_shared<const CompiledKernel>(prog);

  const std::uint64_t h = program_content_hash(prog);
  Cache& c = cache();
  {
    const std::scoped_lock lock(c.mu);
    for (const CacheSlot& s : c.slots) {
      // Full structural verify behind the hash: a collision is a miss,
      // never a wrong program.
      if (s.hash == h && s.kernel->key() == prog) {
        if (hit != nullptr) *hit = true;
        return s.kernel;
      }
    }
  }
  // Compile outside the lock (decode + threaded build dominate; concurrent
  // first launches of the same kernel may both compile - the second insert
  // is then dropped in favour of the resident entry).
  auto ck = std::make_shared<const CompiledKernel>(prog);
  const std::scoped_lock lock(c.mu);
  for (const CacheSlot& s : c.slots) {
    if (s.hash == h && s.kernel->key() == prog) {
      if (hit != nullptr) *hit = true;
      return s.kernel;
    }
  }
  if (c.slots.size() >= kDecodeCacheCapacity) c.slots.clear();
  c.slots.push_back(CacheSlot{h, ck});
  return ck;
}

void decode_cache_clear() {
  Cache& c = cache();
  const std::scoped_lock lock(c.mu);
  c.slots.clear();
}

std::size_t decode_cache_size() {
  Cache& c = cache();
  const std::scoped_lock lock(c.mu);
  return c.slots.size();
}

}  // namespace vgpu
