#include "isa/microop.hh"

#include <sstream>

#include "common/logging.hh"

namespace sb
{

Word
evalAlu(const MicroOp &uop, Word src1, Word src2)
{
    switch (uop.op) {
      case Op::MovImm:
        return static_cast<Word>(uop.imm);
      case Op::Add:
        return src1 + src2;
      case Op::AddImm:
        return src1 + static_cast<Word>(uop.imm);
      case Op::Sub:
        return src1 - src2;
      case Op::And:
        return src1 & src2;
      case Op::Or:
        return src1 | src2;
      case Op::Xor:
        return src1 ^ src2;
      case Op::Shl:
        return src1 << (src2 & 63);
      case Op::Shr:
        return src1 >> (src2 & 63);
      case Op::Mul:
        return src1 * src2;
      case Op::Div:
        return src2 == 0 ? ~Word(0) : src1 / src2;
      // FP ops are modelled on the integer datapath: the *latency* is
      // what matters for scheduling, not IEEE semantics.
      case Op::FAdd:
        return src1 + src2 + 1;
      case Op::FMul:
        return src1 * src2 + 1;
      case Op::FDiv:
        return src2 == 0 ? ~Word(0) : (src1 / src2) + 1;
      case Op::Slt:
        return static_cast<std::int64_t>(src1)
                       < static_cast<std::int64_t>(src2)
                   ? 1
                   : 0;
      case Op::Sltu:
        return src1 < src2 ? 1 : 0;
      case Op::Nop:
      case Op::Halt:
      case Op::Fence:
        return 0;
      default:
        sb_panic("evalAlu on non-ALU op ", uop.disassemble());
    }
}

bool
evalBranch(const MicroOp &uop, Word src1, Word src2)
{
    switch (uop.op) {
      case Op::Beq:
        return src1 == src2;
      case Op::Bne:
        return src1 != src2;
      case Op::Blt:
        return static_cast<std::int64_t>(src1)
               < static_cast<std::int64_t>(src2);
      case Op::Bge:
        return static_cast<std::int64_t>(src1)
               >= static_cast<std::int64_t>(src2);
      case Op::Jmp:
      case Op::JmpReg:
      case Op::JmpRegRet:
        return true;
      default:
        sb_panic("evalBranch on non-branch op");
    }
}

std::string
MicroOp::disassemble() const
{
    static const char *names[] = {
        "nop", "movi", "add", "addi", "sub", "and", "or", "xor", "shl",
        "shr", "mul", "div", "fadd", "fmul", "fdiv", "ld", "st", "beq",
        "bne", "blt", "bge", "jmp", "jr", "halt", "slt", "sltu",
        "fence", "jrr",
    };
    std::ostringstream oss;
    oss << names[static_cast<unsigned>(op)];
    if (hasDst())
        oss << " r" << dst;
    if (hasSrc1())
        oss << ", r" << src1;
    if (hasSrc2())
        oss << ", r" << src2;
    if (op == Op::MovImm || op == Op::AddImm || op == Op::Load
        || op == Op::Store) {
        oss << ", " << imm;
    }
    if (isBranch() && !isIndirect())
        oss << " -> " << target;
    return oss.str();
}

} // namespace sb
