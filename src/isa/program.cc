#include "isa/program.hh"

#include <sstream>

#include "common/hash.hh"
#include "common/logging.hh"

namespace sb
{

const MemoryImage::Slot *
MemoryImage::Table::find(Addr aligned) const
{
    if (slots.empty())
        return nullptr;
    const std::size_t mask = slots.size() - 1;
    std::size_t i = probeStart(aligned, mask);
    while (slots[i].addr != emptySlot) {
        if (slots[i].addr == aligned)
            return &slots[i];
        i = (i + 1) & mask;
    }
    return nullptr;
}

MemoryImage::Slot &
MemoryImage::Table::insert(Addr aligned, bool &inserted)
{
    // Keep the load factor under ~70% (count is pre-incremented for
    // the possible insert).
    if ((count + 1) * 10 >= slots.size() * 7)
        grow(2 * slots.size() + ((count + 1) * 2));

    const std::size_t mask = slots.size() - 1;
    std::size_t i = probeStart(aligned, mask);
    while (slots[i].addr != emptySlot) {
        if (slots[i].addr == aligned) {
            inserted = false;
            return slots[i];
        }
        i = (i + 1) & mask;
    }
    slots[i].addr = aligned;
    ++count;
    inserted = true;
    return slots[i];
}

void
MemoryImage::Table::grow(std::size_t min_capacity)
{
    std::size_t cap = 64;
    while (cap < min_capacity)
        cap <<= 1;
    std::vector<Slot> old;
    old.swap(slots);
    slots.assign(cap, Slot{});
    const std::size_t mask = cap - 1;
    for (const Slot &s : old) {
        if (s.addr == emptySlot)
            continue;
        std::size_t i = probeStart(s.addr, mask);
        while (slots[i].addr != emptySlot)
            i = (i + 1) & mask;
        slots[i] = s;
    }
}

void
MemoryImage::write(Addr addr, Word value)
{
    const Addr a = align(addr);
    bool inserted = false;
    overlay.insert(a, inserted).value = value;
    if (inserted && base && base->table.find(a))
        ++shadowed;
}

Word
MemoryImage::read(Addr addr) const
{
    const Addr a = align(addr);
    if (const Slot *s = overlay.find(a))
        return s->value;
    if (base) {
        if (const Slot *s = base->table.find(a))
            return s->value;
    }
    return backgroundValue(a);
}

bool
MemoryImage::contains(Addr addr) const
{
    const Addr a = align(addr);
    return overlay.find(a) || (base && base->table.find(a));
}

namespace
{

/** One (address, word) pair's term in the fingerprint fold. */
Word
pairHash(Addr addr, Word value)
{
    return fnv1aWord(fnv1aWord(fnv1aBasis, addr), value);
}

} // anonymous namespace

Word
MemoryImage::fingerprint() const
{
    // Hash each (addr, value) pair independently and combine with a
    // commutative fold, so neither the tables' slot order (which
    // differs with capacity and insertion history) nor the split
    // between base and overlay can leak into the digest. The base's
    // fold is precomputed at freeze; an overlay word that shadows a
    // base word takes the base term back out (sum is modular, mix is
    // self-inverse), which costs O(overlay), not O(image).
    Word sum = 0x9ae16a3b2f90404fULL;
    Word mix = 0;
    if (base) {
        sum += base->sum;
        mix ^= base->mix;
    }
    for (const Slot &s : overlay.slots) {
        if (s.addr == emptySlot)
            continue;
        if (base) {
            if (const Slot *old = base->table.find(s.addr)) {
                const Word h = pairHash(old->addr, old->value);
                sum -= h;
                mix ^= h;
            }
        }
        const Word h = pairHash(s.addr, s.value);
        sum += h;
        mix ^= h;
    }
    return (sum ^ (mix * 0xff51afd7ed558ccdULL)) + size();
}

void
MemoryImage::freeze()
{
    sb_assert(!base, "memory image frozen twice");
    if (overlay.count == 0)
        return;
    auto frozen = std::make_shared<Base>();
    frozen->table = std::move(overlay);
    for (const Slot &s : frozen->table.slots) {
        if (s.addr == emptySlot)
            continue;
        const Word h = pairHash(s.addr, s.value);
        frozen->sum += h;
        frozen->mix ^= h;
    }
    base = std::move(frozen);
    overlay = Table{};
}

Word
MemoryImage::backgroundValue(Addr addr)
{
    // splitmix64 finaliser: deterministic pseudo-data per address.
    Word z = addr + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::string
Program::disassemble() const
{
    std::ostringstream oss;
    for (std::size_t i = 0; i < code.size(); ++i)
        oss << i << ":\t" << code[i].disassemble() << '\n';
    return oss.str();
}

ProgramBuilder::Label
ProgramBuilder::futureLabel()
{
    futureTargets.push_back(-1);
    return unboundBase + static_cast<std::uint32_t>(futureTargets.size() - 1);
}

void
ProgramBuilder::bind(Label label)
{
    sb_assert(label >= unboundBase, "bind() of a non-future label");
    const std::size_t idx = label - unboundBase;
    sb_assert(idx < futureTargets.size(), "bind() of unknown label");
    sb_assert(futureTargets[idx] < 0, "label bound twice");
    futureTargets[idx] = static_cast<std::int64_t>(code.size());
}

std::uint32_t
ProgramBuilder::emit(MicroOp uop)
{
    code.push_back(uop);
    return static_cast<std::uint32_t>(code.size() - 1);
}

std::uint32_t
ProgramBuilder::emitBranch(Op op, ArchReg src1, ArchReg src2, Label target)
{
    MicroOp uop;
    uop.op = op;
    uop.src1 = src1;
    uop.src2 = src2;
    uop.target = target;
    return emit(uop);
}

std::uint32_t
ProgramBuilder::nop()
{
    return emit(MicroOp{});
}

std::uint32_t
ProgramBuilder::movi(ArchReg dst, std::int64_t imm)
{
    MicroOp uop;
    uop.op = Op::MovImm;
    uop.dst = dst;
    uop.imm = imm;
    return emit(uop);
}

std::uint32_t
ProgramBuilder::addi(ArchReg dst, ArchReg src1, std::int64_t imm)
{
    MicroOp uop;
    uop.op = Op::AddImm;
    uop.dst = dst;
    uop.src1 = src1;
    uop.imm = imm;
    return emit(uop);
}

namespace
{

MicroOp
threeReg(Op op, ArchReg dst, ArchReg src1, ArchReg src2)
{
    MicroOp uop;
    uop.op = op;
    uop.dst = dst;
    uop.src1 = src1;
    uop.src2 = src2;
    return uop;
}

} // anonymous namespace

std::uint32_t
ProgramBuilder::add(ArchReg dst, ArchReg src1, ArchReg src2)
{
    return emit(threeReg(Op::Add, dst, src1, src2));
}

std::uint32_t
ProgramBuilder::sub(ArchReg dst, ArchReg src1, ArchReg src2)
{
    return emit(threeReg(Op::Sub, dst, src1, src2));
}

std::uint32_t
ProgramBuilder::and_(ArchReg dst, ArchReg src1, ArchReg src2)
{
    return emit(threeReg(Op::And, dst, src1, src2));
}

std::uint32_t
ProgramBuilder::or_(ArchReg dst, ArchReg src1, ArchReg src2)
{
    return emit(threeReg(Op::Or, dst, src1, src2));
}

std::uint32_t
ProgramBuilder::xor_(ArchReg dst, ArchReg src1, ArchReg src2)
{
    return emit(threeReg(Op::Xor, dst, src1, src2));
}

std::uint32_t
ProgramBuilder::shl(ArchReg dst, ArchReg src1, ArchReg src2)
{
    return emit(threeReg(Op::Shl, dst, src1, src2));
}

std::uint32_t
ProgramBuilder::shr(ArchReg dst, ArchReg src1, ArchReg src2)
{
    return emit(threeReg(Op::Shr, dst, src1, src2));
}

std::uint32_t
ProgramBuilder::mul(ArchReg dst, ArchReg src1, ArchReg src2)
{
    return emit(threeReg(Op::Mul, dst, src1, src2));
}

std::uint32_t
ProgramBuilder::div(ArchReg dst, ArchReg src1, ArchReg src2)
{
    return emit(threeReg(Op::Div, dst, src1, src2));
}

std::uint32_t
ProgramBuilder::slt(ArchReg dst, ArchReg src1, ArchReg src2)
{
    return emit(threeReg(Op::Slt, dst, src1, src2));
}

std::uint32_t
ProgramBuilder::sltu(ArchReg dst, ArchReg src1, ArchReg src2)
{
    return emit(threeReg(Op::Sltu, dst, src1, src2));
}

std::uint32_t
ProgramBuilder::fadd(ArchReg dst, ArchReg src1, ArchReg src2)
{
    return emit(threeReg(Op::FAdd, dst, src1, src2));
}

std::uint32_t
ProgramBuilder::fmul(ArchReg dst, ArchReg src1, ArchReg src2)
{
    return emit(threeReg(Op::FMul, dst, src1, src2));
}

std::uint32_t
ProgramBuilder::fdiv(ArchReg dst, ArchReg src1, ArchReg src2)
{
    return emit(threeReg(Op::FDiv, dst, src1, src2));
}

std::uint32_t
ProgramBuilder::load(ArchReg dst, ArchReg base, std::int64_t offset)
{
    MicroOp uop;
    uop.op = Op::Load;
    uop.dst = dst;
    uop.src1 = base;
    uop.imm = offset;
    return emit(uop);
}

std::uint32_t
ProgramBuilder::store(ArchReg base, ArchReg data, std::int64_t offset)
{
    MicroOp uop;
    uop.op = Op::Store;
    uop.src1 = base;
    uop.src2 = data;
    uop.imm = offset;
    return emit(uop);
}

std::uint32_t
ProgramBuilder::beq(ArchReg src1, ArchReg src2, Label target)
{
    return emitBranch(Op::Beq, src1, src2, target);
}

std::uint32_t
ProgramBuilder::bne(ArchReg src1, ArchReg src2, Label target)
{
    return emitBranch(Op::Bne, src1, src2, target);
}

std::uint32_t
ProgramBuilder::blt(ArchReg src1, ArchReg src2, Label target)
{
    return emitBranch(Op::Blt, src1, src2, target);
}

std::uint32_t
ProgramBuilder::bge(ArchReg src1, ArchReg src2, Label target)
{
    return emitBranch(Op::Bge, src1, src2, target);
}

std::uint32_t
ProgramBuilder::jmp(Label target)
{
    return emitBranch(Op::Jmp, invalidArchReg, invalidArchReg, target);
}

std::uint32_t
ProgramBuilder::jr(ArchReg target_reg)
{
    MicroOp uop;
    uop.op = Op::JmpReg;
    uop.src1 = target_reg;
    return emit(uop);
}

std::uint32_t
ProgramBuilder::jrr(ArchReg target_reg)
{
    MicroOp uop;
    uop.op = Op::JmpRegRet;
    uop.src1 = target_reg;
    return emit(uop);
}

std::uint32_t
ProgramBuilder::fence()
{
    MicroOp uop;
    uop.op = Op::Fence;
    return emit(uop);
}

std::uint32_t
ProgramBuilder::halt()
{
    MicroOp uop;
    uop.op = Op::Halt;
    return emit(uop);
}

void
ProgramBuilder::markSecret(Addr base, std::uint64_t bytes, TenantId owner)
{
    if (bytes == 0)
        return;
    secrets.push_back({base, bytes, owner});
}

void
ProgramBuilder::tenantEntry(TenantId t)
{
    for (const TenantEntry &e : tenantStarts)
        sb_assert(e.tenant != t, "tenant entry recorded twice");
    tenantStarts.push_back({t, here()});
}

std::uint32_t
ProgramBuilder::switchTenant(TenantId to)
{
    const std::uint32_t pc = nop();
    switches.push_back({pc, to});
    return pc;
}

Program
ProgramBuilder::build(std::string name)
{
    // Resolve future labels. JmpReg carries no static target: its
    // destination is the runtime value of src1.
    for (auto &uop : code) {
        if (uop.isIndirect())
            continue;
        if (uop.isBranch() && uop.target >= unboundBase) {
            const std::size_t idx = uop.target - unboundBase;
            sb_assert(idx < futureTargets.size(), "unknown label in branch");
            sb_assert(futureTargets[idx] >= 0,
                      "unbound label referenced by branch");
            uop.target = static_cast<std::uint32_t>(futureTargets[idx]);
        }
    }
    for (const auto &uop : code) {
        if (uop.isBranch() && !uop.isIndirect()) {
            sb_assert(uop.target < code.size(),
                      "branch target out of range");
        }
    }
    Program p;
    p.code = std::move(code);
    p.memory = std::move(mem);
    p.memory.freeze();
    p.name = std::move(name);
    p.secretRegions = std::move(secrets);
    p.switchPoints = std::move(switches);
    p.tenantEntries = std::move(tenantStarts);
    return p;
}

} // namespace sb
