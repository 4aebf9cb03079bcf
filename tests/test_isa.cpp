/**
 * @file
 * Unit tests for src/isa: micro-op semantics, transmitter
 * classification, program builder, and the memory image.
 */

#include <gtest/gtest.h>

#include "isa/microop.hh"
#include "isa/program.hh"

namespace
{

sb::MicroOp
op3(sb::Op op)
{
    sb::MicroOp u;
    u.op = op;
    u.dst = 1;
    u.src1 = 2;
    u.src2 = 3;
    return u;
}

TEST(MicroOp, AluSemantics)
{
    using sb::Op;
    EXPECT_EQ(sb::evalAlu(op3(Op::Add), 5, 7), 12u);
    EXPECT_EQ(sb::evalAlu(op3(Op::Sub), 5, 7),
              static_cast<sb::Word>(-2));
    EXPECT_EQ(sb::evalAlu(op3(Op::And), 0b1100, 0b1010), 0b1000u);
    EXPECT_EQ(sb::evalAlu(op3(Op::Or), 0b1100, 0b1010), 0b1110u);
    EXPECT_EQ(sb::evalAlu(op3(Op::Xor), 0b1100, 0b1010), 0b0110u);
    EXPECT_EQ(sb::evalAlu(op3(Op::Shl), 1, 4), 16u);
    EXPECT_EQ(sb::evalAlu(op3(Op::Shr), 16, 4), 1u);
    EXPECT_EQ(sb::evalAlu(op3(Op::Mul), 6, 7), 42u);
    EXPECT_EQ(sb::evalAlu(op3(Op::Div), 42, 6), 7u);
}

TEST(MicroOp, DivisionByZeroYieldsAllOnes)
{
    EXPECT_EQ(sb::evalAlu(op3(sb::Op::Div), 42, 0), ~sb::Word(0));
}

TEST(MicroOp, ShiftAmountsAreMasked)
{
    EXPECT_EQ(sb::evalAlu(op3(sb::Op::Shl), 1, 64), 1u);
    EXPECT_EQ(sb::evalAlu(op3(sb::Op::Shl), 1, 65), 2u);
}

TEST(MicroOp, MovImmUsesImmediate)
{
    sb::MicroOp u;
    u.op = sb::Op::MovImm;
    u.dst = 1;
    u.imm = -9;
    EXPECT_EQ(sb::evalAlu(u, 0, 0), static_cast<sb::Word>(-9));
}

TEST(MicroOp, BranchSemantics)
{
    using sb::Op;
    EXPECT_TRUE(sb::evalBranch(op3(Op::Beq), 4, 4));
    EXPECT_FALSE(sb::evalBranch(op3(Op::Beq), 4, 5));
    EXPECT_TRUE(sb::evalBranch(op3(Op::Bne), 4, 5));
    EXPECT_TRUE(sb::evalBranch(op3(Op::Blt),
                               static_cast<sb::Word>(-1), 0));
    EXPECT_FALSE(sb::evalBranch(op3(Op::Blt), 0,
                                static_cast<sb::Word>(-1)));
    EXPECT_TRUE(sb::evalBranch(op3(Op::Bge), 3, 3));
    EXPECT_TRUE(sb::evalBranch(op3(Op::Jmp), 0, 0));
}

TEST(MicroOp, TransmitterClassification)
{
    // Paper Sec. 3.1: loads, stores (addresses) and branches are
    // transmitters; plain arithmetic is invisible.
    EXPECT_TRUE(op3(sb::Op::Load).isTransmitter());
    EXPECT_TRUE(op3(sb::Op::Store).isTransmitter());
    EXPECT_TRUE(op3(sb::Op::Beq).isTransmitter());
    EXPECT_TRUE(op3(sb::Op::Jmp).isTransmitter());
    EXPECT_FALSE(op3(sb::Op::Add).isTransmitter());
    EXPECT_FALSE(op3(sb::Op::Mul).isTransmitter());
    EXPECT_FALSE(op3(sb::Op::FDiv).isTransmitter());
}

TEST(MicroOp, OpClassMapping)
{
    EXPECT_EQ(op3(sb::Op::Add).opClass(), sb::OpClass::IntAlu);
    EXPECT_EQ(op3(sb::Op::Mul).opClass(), sb::OpClass::IntMul);
    EXPECT_EQ(op3(sb::Op::Div).opClass(), sb::OpClass::IntDiv);
    EXPECT_EQ(op3(sb::Op::FAdd).opClass(), sb::OpClass::FpAlu);
    EXPECT_EQ(op3(sb::Op::FDiv).opClass(), sb::OpClass::FpDiv);
    EXPECT_EQ(op3(sb::Op::Load).opClass(), sb::OpClass::MemRead);
    EXPECT_EQ(op3(sb::Op::Store).opClass(), sb::OpClass::MemWrite);
    EXPECT_EQ(op3(sb::Op::Beq).opClass(), sb::OpClass::Branch);
}

TEST(MicroOp, DisassembleMentionsOpcode)
{
    EXPECT_NE(op3(sb::Op::Add).disassemble().find("add"),
              std::string::npos);
    EXPECT_NE(op3(sb::Op::Load).disassemble().find("ld"),
              std::string::npos);
}

TEST(MemoryImage, WriteReadRoundTrip)
{
    sb::MemoryImage mem;
    mem.write(0x1000, 42);
    EXPECT_EQ(mem.read(0x1000), 42u);
    EXPECT_TRUE(mem.contains(0x1000));
    EXPECT_FALSE(mem.contains(0x2000));
}

TEST(MemoryImage, SubWordAddressesAlias)
{
    sb::MemoryImage mem;
    mem.write(0x1000, 42);
    EXPECT_EQ(mem.read(0x1003), 42u); // Same 8-byte word.
    mem.write(0x1007, 7);
    EXPECT_EQ(mem.read(0x1000), 7u);
}

TEST(MemoryImage, BackgroundIsDeterministicAndVaried)
{
    sb::MemoryImage a;
    sb::MemoryImage b;
    EXPECT_EQ(a.read(0x5000), b.read(0x5000));
    EXPECT_NE(a.read(0x5000), a.read(0x5008));
}

TEST(MemoryImage, OverlayOverFrozenBaseMatchesFlatImage)
{
    // The same writes, once all into a flat image and once split
    // between a frozen base and an overlay that overwrites part of
    // it, must read, count and fingerprint identically.
    sb::MemoryImage flat;
    sb::MemoryImage layered;
    const auto expectSameView = [&] {
        EXPECT_EQ(layered.size(), flat.size());
        EXPECT_EQ(layered.fingerprint(), flat.fingerprint());
        for (sb::Addr i = 0; i < 320; ++i) {
            const sb::Addr a = 0x1000 + 8 * i;
            EXPECT_EQ(layered.read(a), flat.read(a)) << i;
            EXPECT_EQ(layered.contains(a), flat.contains(a)) << i;
        }
    };
    for (sb::Addr i = 0; i < 200; ++i) {
        flat.write(0x1000 + 8 * i, i);
        layered.write(0x1000 + 8 * i, i);
    }
    layered.freeze();
    expectSameView();

    // 50 writes shadow base words, 100 land on fresh words.
    for (sb::Addr i = 150; i < 300; ++i) {
        flat.write(0x1000 + 8 * i, 7 * i + 1);
        layered.write(0x1000 + 8 * i, 7 * i + 1);
    }
    EXPECT_EQ(flat.size(), 300u);
    expectSameView();
}

TEST(MemoryImage, RewritingABaseWordWithItsValueChangesNothing)
{
    sb::MemoryImage mem;
    mem.write(0x1000, 1);
    mem.write(0x2000, 2);
    mem.freeze();
    const sb::Word before = mem.fingerprint();
    mem.write(0x1000, 1);
    EXPECT_EQ(mem.size(), 2u);
    EXPECT_EQ(mem.fingerprint(), before);
    mem.write(0x1000, 3);
    EXPECT_NE(mem.fingerprint(), before);
}

TEST(MemoryImage, CopiesShareTheBaseButNotTheirWrites)
{
    sb::MemoryImage original;
    original.write(0x1000, 1);
    original.write(0x2000, 2);
    original.freeze();
    const sb::Word fp = original.fingerprint();

    sb::MemoryImage a = original;
    sb::MemoryImage b = original;
    a.write(0x1000, 10);
    a.write(0x3000, 30);
    EXPECT_EQ(a.read(0x1000), 10u);
    EXPECT_EQ(a.size(), 3u);
    EXPECT_EQ(original.read(0x1000), 1u);
    EXPECT_FALSE(original.contains(0x3000));
    EXPECT_EQ(b.read(0x1000), 1u);
    EXPECT_FALSE(b.contains(0x3000));

    b.write(0x2000, 20);
    EXPECT_EQ(a.read(0x2000), 2u);
    EXPECT_EQ(original.read(0x2000), 2u);

    // A copy of a copy carries its source's overlay.
    const sb::MemoryImage c = a;
    EXPECT_EQ(c.read(0x1000), 10u);
    EXPECT_EQ(c.fingerprint(), a.fingerprint());

    EXPECT_EQ(original.fingerprint(), fp);
    EXPECT_EQ(original.size(), 2u);
}

TEST(ProgramBuilder, BuildFreezesTheImage)
{
    sb::ProgramBuilder b;
    b.memory().write(0x1000, 5);
    b.halt();
    const sb::Program p = b.build();
    sb::Program copy = p;
    copy.memory.write(0x1000, 6);
    EXPECT_EQ(p.memory.read(0x1000), 5u);
    EXPECT_EQ(copy.memory.read(0x1000), 6u);
    EXPECT_EQ(copy.memory.size(), 1u);
}

TEST(ProgramBuilder, BackwardBranchTargets)
{
    sb::ProgramBuilder b;
    b.movi(1, 0);
    const auto loop = b.here();
    b.addi(1, 1, 1);
    b.blt(1, 2, loop);
    const sb::Program p = b.build();
    ASSERT_EQ(p.size(), 3u);
    EXPECT_EQ(p.code[2].target, loop);
}

TEST(ProgramBuilder, ForwardLabelsBackpatch)
{
    sb::ProgramBuilder b;
    const auto skip = b.futureLabel();
    b.beq(1, 2, skip);
    b.addi(3, 3, 1);
    b.bind(skip);
    b.halt();
    const sb::Program p = b.build();
    EXPECT_EQ(p.code[0].target, 2u);
}

TEST(ProgramBuilder, UnboundLabelDies)
{
    sb::ProgramBuilder b;
    const auto skip = b.futureLabel();
    b.beq(1, 2, skip);
    EXPECT_DEATH(b.build(), "unbound label");
}

TEST(ProgramBuilder, EmitterEncodings)
{
    sb::ProgramBuilder b;
    b.load(1, 2, 16);
    b.store(3, 4, -8);
    const sb::Program p = b.build();
    EXPECT_EQ(p.code[0].op, sb::Op::Load);
    EXPECT_EQ(p.code[0].dst, 1);
    EXPECT_EQ(p.code[0].src1, 2);
    EXPECT_EQ(p.code[0].imm, 16);
    EXPECT_EQ(p.code[1].op, sb::Op::Store);
    EXPECT_EQ(p.code[1].src1, 3); // Address operand.
    EXPECT_EQ(p.code[1].src2, 4); // Data operand.
    EXPECT_EQ(p.code[1].imm, -8);
}

TEST(ProgramBuilder, DisassembleWholeProgram)
{
    sb::ProgramBuilder b;
    b.movi(1, 5);
    b.halt();
    const sb::Program p = b.build("demo");
    const std::string d = p.disassemble();
    EXPECT_NE(d.find("movi"), std::string::npos);
    EXPECT_NE(d.find("halt"), std::string::npos);
}

} // anonymous namespace
