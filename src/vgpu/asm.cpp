#include "vgpu/asm.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

#include "vgpu/check.hpp"
#include "vgpu/launch.hpp"
#include "vgpu/opclass.hpp"
#include "vgpu/verify.hpp"

namespace vgpu {

namespace {

/// Largest register or predicate index a listing may name. Register and
/// predicate tables are sized from the largest index, so this keeps a
/// malformed listing from asking for gigabytes; the repository's kernels
/// name fewer than a hundred of either.
constexpr std::uint32_t kMaxIndex = 0xFFFF;

/// Token-level cursor over one instruction line.
class Line {
 public:
  Line(std::string_view text, std::size_t number) : text_(text), number_(number) {}

  [[noreturn]] void fail(const std::string& why) const {
    throw ContractViolation("asm line " + std::to_string(number_) + ": " + why +
                            " in '" + std::string(text_) + "'");
  }

  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  [[nodiscard]] bool done() {
    skip_ws();
    return pos_ >= text_.size();
  }

  [[nodiscard]] bool peek(char c) {
    skip_ws();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  bool eat(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!eat(c)) fail(std::string("expected '") + c + "'");
  }

  bool eat_word(std::string_view w) {
    skip_ws();
    if (text_.substr(pos_, w.size()) == w) {
      pos_ += w.size();
      return true;
    }
    return false;
  }

  /// Mnemonic-ish token: letters, digits, dots, underscores.
  [[nodiscard]] std::string word() {
    skip_ws();
    std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '.' || c == '_' ||
          c == '%') {
        ++pos_;
      } else {
        break;
      }
    }
    if (start == pos_) fail("expected a token");
    return std::string(text_.substr(start, pos_ - start));
  }

  /// A decimal or 0x-prefixed hexadecimal 32-bit number.
  [[nodiscard]] std::uint32_t number() {
    skip_ws();
    int base = 10;
    if (text_.substr(pos_, 2) == "0x") {
      pos_ += 2;
      base = 16;
    }
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (base == 16 ? std::isxdigit(static_cast<unsigned char>(text_[pos_]))
                       : std::isdigit(static_cast<unsigned char>(text_[pos_])))) {
      ++pos_;
    }
    if (start == pos_) fail("expected a number");
    return parse_u32(text_.substr(start, pos_ - start), base,
                     std::numeric_limits<std::uint32_t>::max(), "number");
  }

  /// All of `digits` as a number no greater than `max`; anything else - an
  /// empty or partly numeric token, or one out of range - fails the line.
  [[nodiscard]] std::uint32_t parse_u32(std::string_view digits, int base,
                                        std::uint32_t max,
                                        const char* what) const {
    std::uint32_t value = 0;
    const char* const last = digits.data() + digits.size();
    const auto [end, ec] = std::from_chars(digits.data(), last, value, base);
    if (ec != std::errc{} || end != last || value > max) {
      fail(std::string("bad ") + what + " '" + std::string(digits) + "'");
    }
    return value;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t number_;
};

struct Parser {
  Program prog;
  /// widest component referenced per register (for width reconstruction)
  std::map<RegId, std::uint8_t> max_comp;
  std::map<RegId, std::uint8_t> load_width;
  std::map<RegId, VType> type_hint;
  std::uint32_t max_pred = 0;

  void note_reg(const Operand& o, VType t) {
    if (!o.valid()) return;
    auto& mc = max_comp[o.reg];
    mc = std::max(mc, o.comp);
    if (type_hint.find(o.reg) == type_hint.end()) type_hint[o.reg] = t;
  }
  void note_pred(PredId p) {
    if (p != kNoPred) max_pred = std::max(max_pred, p + 1);
  }

  Operand reg_operand(Line& line) {
    if (line.eat('_')) return Operand{};
    const std::string w = line.word();
    if (w[0] != 'r') line.fail("expected a register");
    const std::string_view index = std::string_view(w).substr(1);
    const std::size_t dot = index.find('.');
    Operand o;
    o.reg = line.parse_u32(index.substr(0, dot), 10, kMaxIndex, "register");
    if (dot != std::string_view::npos) {
      o.comp = static_cast<std::uint8_t>(
          line.parse_u32(index.substr(dot + 1), 10, 3, "register component"));
    }
    return o;
  }

  PredId pred_operand(Line& line, bool* negated = nullptr) {
    if (negated != nullptr) *negated = line.eat('!');
    const std::string w = line.word();
    if (w[0] != 'p') line.fail("expected a predicate");
    return line.parse_u32(std::string_view(w).substr(1), 10, kMaxIndex,
                          "predicate");
  }

  BlockId block_ref(Line& line) {
    const std::string w = line.word();
    if (w[0] != 'B') line.fail("expected a block label");
    return line.parse_u32(std::string_view(w).substr(1), 10, kNoBlock - 1,
                          "block label");
  }

  /// "[rX+imm]" or "[_+imm]"
  void address(Line& line, Instruction& in) {
    line.expect('[');
    in.src[0] = reg_operand(line);
    line.expect('+');
    in.imm = line.number();
    line.expect(']');
    note_reg(in.src[0], VType::kU32);
  }
};

const std::map<std::string, Opcode, std::less<>>& mnemonic_table() {
  static const std::map<std::string, Opcode, std::less<>> table = [] {
    std::map<std::string, Opcode, std::less<>> t;
    for (int k = 0; k <= static_cast<int>(Opcode::kClock); ++k) {
      const auto op = static_cast<Opcode>(k);
      t.emplace(to_string(op), op);
    }
    return t;
  }();
  return table;
}

[[nodiscard]] bool is_float_op(Opcode op) {
  switch (instr_class(op)) {
    case InstrClass::kFloatAlu: return op != Opcode::kI2F;
    default: return false;
  }
}

[[nodiscard]] CmpOp cmp_from(const std::string& s, Line& line) {
  for (int k = 0; k <= static_cast<int>(CmpOp::kGe); ++k) {
    const auto c = static_cast<CmpOp>(k);
    if (s == to_string(c)) return c;
  }
  line.fail("unknown comparison '" + s + "'");
}

[[nodiscard]] Special special_from(const std::string& s, Line& line) {
  for (int k = 0; k <= static_cast<int>(Special::kClock); ++k) {
    const auto sp = static_cast<Special>(k);
    if (s == to_string(sp)) return sp;
  }
  line.fail("unknown special register '" + s + "'");
}

}  // namespace

Program assemble(std::string_view text) {
  Parser ps;
  std::istringstream stream{std::string(text)};
  std::string raw;
  std::size_t line_no = 0;
  bool saw_header = false;

  while (std::getline(stream, raw)) {
    ++line_no;
    // strip comments
    const std::size_t comment = raw.find("//");
    std::string body = comment == std::string::npos ? raw : raw.substr(0, comment);
    // trim
    const auto first = body.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    const auto last = body.find_last_not_of(" \t\r");
    body = body.substr(first, last - first + 1);

    Line line(body, line_no);
    if (body.rfind(".kernel", 0) == 0) {
      saw_header = true;
      // the kernel name may contain '+' etc.: it spans from after ".kernel"
      // to the attribute list (or end of line)
      std::string after = body.substr(7);
      const std::size_t paren = after.find('(');
      std::string name_part =
          paren == std::string::npos ? after : after.substr(0, paren);
      const auto nb = name_part.find_first_not_of(" \t");
      const auto ne = name_part.find_last_not_of(" \t");
      VGPU_EXPECTS_MSG(nb != std::string::npos, "asm: missing kernel name");
      ps.prog.name = name_part.substr(nb, ne - nb + 1);
      Line hl(paren == std::string::npos ? std::string_view{}
                                         : std::string_view(after).substr(paren),
              line_no);
      // optional attribute list
      if (hl.eat('(')) {
        while (!hl.peek(')')) {
          const std::string key = hl.word();
          hl.expect('=');
          const std::uint32_t value = hl.number();
          (void)hl.eat('B');
          if (key == "params") ps.prog.num_params = value;
          if (key == "shared") ps.prog.shared_bytes = value;
          if (key == "local") ps.prog.local_bytes = value;
          if (!hl.eat(',')) break;
        }
      }
      continue;
    }
    if (body.size() >= 2 && body[0] == 'B' &&
        body.find(':') != std::string::npos &&
        std::isdigit(static_cast<unsigned char>(body[1]))) {
      // block label "Bn:" - blocks must appear in order
      Line bl(body, line_no);
      const BlockId id = ps.block_ref(bl);
      VGPU_EXPECTS_MSG(id == ps.prog.blocks.size(),
                       "asm: block labels must be sequential");
      ps.prog.blocks.emplace_back();
      // region comes from the stripped comment; recover it from `raw`
      if (comment != std::string::npos) {
        const std::string rest = raw.substr(comment + 2);
        for (std::size_t r = 0; r < kRegionCount; ++r) {
          const std::string tag = std::string("region ") + to_string(static_cast<Region>(r));
          if (rest.find(tag) != std::string::npos) {
            ps.prog.blocks.back().region = static_cast<Region>(r);
            break;
          }
        }
      }
      continue;
    }

    VGPU_EXPECTS_MSG(!ps.prog.blocks.empty(), "asm: instruction before any block");
    Instruction in;
    // guard prefix
    if (line.eat('@')) {
      in.guard = ps.pred_operand(line, &in.guard_negated);
      ps.note_pred(in.guard);
    }
    std::string mn = line.word();
    // split off width/cmp suffixes: "ld.global.128b", "setp.lt.u32"
    std::string base = mn;
    if (mn.rfind("ld.", 0) == 0 || mn.rfind("st.", 0) == 0 || mn.rfind("tex.", 0) == 0) {
      const std::size_t second_dot = mn.find('.', mn.find('.') + 1);
      if (second_dot != std::string::npos) {
        base = mn.substr(0, second_dot);
        const std::string width = mn.substr(second_dot + 1);
        if (width == "32b") in.width = MemWidth::kW32;
        else if (width == "64b") in.width = MemWidth::kW64;
        else if (width == "128b") in.width = MemWidth::kW128;
        else line.fail("unknown width suffix '" + width + "'");
      }
    } else if (mn.rfind("setp.", 0) == 0) {
      base = "setp";
      const std::string rest = mn.substr(5);  // e.g. "lt.u32"
      const std::size_t dot = rest.find('.');
      in.cmp = cmp_from(rest.substr(0, dot), line);
      in.cmp_is_float = dot != std::string::npos && rest.substr(dot + 1) == "f32";
    }
    const auto& table = mnemonic_table();
    const auto it = table.find(base);
    if (it == table.end()) line.fail("unknown mnemonic '" + base + "'");
    in.op = it->second;
    const VType vt = is_float_op(in.op) ? VType::kF32 : VType::kU32;

    switch (in.op) {
      case Opcode::kLdGlobal:
      case Opcode::kLdShared:
      case Opcode::kLdConst:
      case Opcode::kLdTex:
      case Opcode::kLdLocal:
        in.dst = ps.reg_operand(line);
        line.expect(',');
        ps.address(line, in);
        ps.note_reg(in.dst, VType::kF32);
        ps.load_width[in.dst.reg] = std::max(
            ps.load_width[in.dst.reg], static_cast<std::uint8_t>(width_words(in.width)));
        break;
      case Opcode::kStGlobal:
      case Opcode::kStShared:
      case Opcode::kStLocal:
        ps.address(line, in);
        line.expect(',');
        in.src[1] = ps.reg_operand(line);
        ps.note_reg(in.src[1], VType::kF32);
        if (width_words(in.width) > 1) {
          ps.load_width[in.src[1].reg] = std::max(
              ps.load_width[in.src[1].reg],
              static_cast<std::uint8_t>(width_words(in.width)));
        }
        break;
      case Opcode::kMovImm:
        in.dst = ps.reg_operand(line);
        line.expect(',');
        in.imm = line.number();
        ps.note_reg(in.dst, VType::kU32);
        break;
      case Opcode::kMovSpecial:
        in.dst = ps.reg_operand(line);
        line.expect(',');
        in.imm = static_cast<std::uint32_t>(special_from(line.word(), line));
        ps.note_reg(in.dst, VType::kU32);
        break;
      case Opcode::kMovParam: {
        in.dst = ps.reg_operand(line);
        line.expect(',');
        const std::string p = line.word();
        if (p != "param") line.fail("expected param[...]");
        line.expect('[');
        in.imm = line.number();
        line.expect(']');
        ps.note_reg(in.dst, VType::kU32);
        break;
      }
      case Opcode::kIAddImm:
        in.dst = ps.reg_operand(line);
        line.expect(',');
        in.src[0] = ps.reg_operand(line);
        line.expect(',');
        in.imm = line.number();
        ps.note_reg(in.dst, VType::kU32);
        ps.note_reg(in.src[0], VType::kU32);
        break;
      case Opcode::kSetp:
        in.pdst = ps.pred_operand(line);
        line.expect(',');
        in.src[0] = ps.reg_operand(line);
        line.expect(',');
        if (line.peek('r') || line.peek('_')) {
          in.src[1] = ps.reg_operand(line);
          ps.note_reg(in.src[1], vt);
        } else {
          in.imm = line.number();
        }
        ps.note_pred(in.pdst);
        ps.note_reg(in.src[0], vt);
        break;
      case Opcode::kPAnd:
      case Opcode::kPOr:
        in.pdst = ps.pred_operand(line);
        line.expect(',');
        in.psrc0 = ps.pred_operand(line);
        line.expect(',');
        in.psrc1 = ps.pred_operand(line);
        ps.note_pred(in.pdst);
        ps.note_pred(in.psrc0);
        ps.note_pred(in.psrc1);
        break;
      case Opcode::kPNot:
        in.pdst = ps.pred_operand(line);
        line.expect(',');
        in.psrc0 = ps.pred_operand(line);
        ps.note_pred(in.pdst);
        ps.note_pred(in.psrc0);
        break;
      case Opcode::kSel:
        in.dst = ps.reg_operand(line);
        line.expect(',');
        in.psrc0 = ps.pred_operand(line);
        line.expect(',');
        in.src[0] = ps.reg_operand(line);
        line.expect(',');
        in.src[1] = ps.reg_operand(line);
        ps.note_pred(in.psrc0);
        ps.note_reg(in.dst, vt);
        ps.note_reg(in.src[0], vt);
        ps.note_reg(in.src[1], vt);
        break;
      case Opcode::kBra:
        in.target = ps.block_ref(line);
        break;
      case Opcode::kBraCond: {
        in.branch_if_false = false;
        bool neg = false;
        in.psrc0 = ps.pred_operand(line, &neg);
        in.branch_if_false = neg;
        line.expect(',');
        in.target = ps.block_ref(line);
        line.expect(',');
        if (!line.eat_word("else")) line.fail("expected 'else'");
        in.target2 = ps.block_ref(line);
        line.expect(',');
        if (!line.eat_word("reconv")) line.fail("expected 'reconv'");
        in.reconv = ps.block_ref(line);
        ps.note_pred(in.psrc0);
        break;
      }
      case Opcode::kExit:
      case Opcode::kBar:
        break;
      case Opcode::kClock:
        in.dst = ps.reg_operand(line);
        ps.note_reg(in.dst, VType::kU32);
        break;
      default: {
        // generic "op dst, srcs..." form
        in.dst = ps.reg_operand(line);
        ps.note_reg(in.dst, vt);
        int s = 0;
        while (line.eat(',') && s < 3) {
          in.src[s] = ps.reg_operand(line);
          ps.note_reg(in.src[s], vt);
          ++s;
        }
        break;
      }
    }
    if (!line.done()) line.fail("trailing junk");
    ps.prog.blocks.back().instrs.push_back(in);
  }

  VGPU_EXPECTS_MSG(saw_header, "asm: missing .kernel header");
  VGPU_EXPECTS_MSG(!ps.prog.blocks.empty(), "asm: no blocks");

  // reconstruct the register table
  RegId max_reg = 0;
  for (const auto& [reg, comp] : ps.max_comp) max_reg = std::max(max_reg, reg);
  for (const auto& [reg, w] : ps.load_width) max_reg = std::max(max_reg, reg);
  ps.prog.regs.assign(max_reg + 1, RegInfo{});
  for (const auto& [reg, comp] : ps.max_comp) {
    ps.prog.regs[reg].width = std::max<std::uint8_t>(
        ps.prog.regs[reg].width, static_cast<std::uint8_t>(comp + 1));
  }
  for (const auto& [reg, w] : ps.load_width) {
    ps.prog.regs[reg].width = std::max(ps.prog.regs[reg].width, w);
  }
  for (auto& info : ps.prog.regs) {
    // widths are 1, 2 or 4
    if (info.width == 3) info.width = 4;
  }
  for (const auto& [reg, t] : ps.type_hint) ps.prog.regs[reg].type = t;
  ps.prog.num_preds = ps.max_pred;
  ps.prog.refresh_virtual_layout();
  verify(ps.prog);
  return ps.prog;
}

bool round_trips(const Program& prog, std::string* diff) {
  const std::string first = disassemble(prog);
  const Program again = assemble(first);
  const std::string second = disassemble(again);
  // the header line carries vreg counts that may legitimately differ
  // (unused registers are not reconstructible); compare bodies only.
  const auto body = [](const std::string& s) {
    const std::size_t nl = s.find('\n');
    return s.substr(nl + 1);
  };
  const std::string a = body(first);
  const std::string b = body(second);
  if (a == b) return true;
  if (diff != nullptr) *diff = "---- original ----\n" + a + "---- reparsed ----\n" + b;
  return false;
}

}  // namespace vgpu
