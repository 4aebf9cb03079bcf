#include "trace/server_mix.hh"

#include "common/logging.hh"

namespace sb
{

namespace
{

// Architectural register map (1..27; 0 and 28..31 stay unused).
constexpr ArchReg rTab = 1;     ///< Tenant's hash-table base.
constexpr ArchReg rIn = 2;      ///< Tenant's parse-input base.
constexpr ArchReg rCpyS = 3;    ///< memcpy source base.
constexpr ArchReg rCpyD = 4;    ///< memcpy destination base.
constexpr ArchReg rSec = 5;     ///< Tenant's own secret base.
constexpr ArchReg rScr = 6;     ///< Crypto scratch output base.
constexpr ArchReg rProbe = 7;   ///< Gadget probe-array base.
constexpr ArchReg rBndA = 8;    ///< Gadget bounds-array base.
constexpr ArchReg rK = 9;       ///< Hash multiplier constant.
constexpr ArchReg rMaskTab = 10; ///< Table-offset mask (0xFF8).
constexpr ArchReg rMask = 11;   ///< Byte mask (0xFF).
constexpr ArchReg rThree = 12;  ///< Shift-by-3 constant.
constexpr ArchReg rZero = 13;
constexpr ArchReg rOne = 14;
constexpr ArchReg rIdx = 15;    ///< Rolling hash state.
constexpr ArchReg rAddr = 16;   ///< Address temp.
constexpr ArchReg rVal = 17;    ///< Load temp.
constexpr ArchReg rAcc = 18;    ///< Public accumulator.
constexpr ArchReg rT = 19;      ///< Scratch temp.
constexpr ArchReg rMix = 20;    ///< Crypto state (secret-derived).
constexpr ArchReg rBound = 21;  ///< Gadget: loaded bound.
constexpr ArchReg rIdx2 = 22;   ///< Gadget: loaded index.
constexpr ArchReg rVict = 23;   ///< Gadget: victim-table base.
constexpr ArchReg rCnt = 24;    ///< Gadget: loop counter.
constexpr ArchReg rLim = 25;    ///< Gadget: loop limit.
constexpr ArchReg rIdxT = 26;   ///< Gadget: index-table base.
constexpr ArchReg rBndOff = 27; ///< Gadget: rolling bound offset.

// Per-tenant memory map: regions are spread so no two tenants share a
// word, and the gadget's malicious index is a compile-time constant.
constexpr Addr tableBase(unsigned t) { return 0x2000000 + Addr(t) * 0x100000; }
constexpr Addr inputBase(unsigned t) { return 0x3000000 + Addr(t) * 0x100000; }
constexpr Addr copySrcBase(unsigned t) { return 0x4000000 + Addr(t) * 0x100000; }
constexpr Addr copyDstBase(unsigned t) { return 0x4080000 + Addr(t) * 0x100000; }
constexpr Addr secretBase(unsigned t) { return 0x5000000 + Addr(t) * 0x10000; }
constexpr Addr scratchBase(unsigned t) { return 0x5800000 + Addr(t) * 0x10000; }
constexpr Addr probeBase(unsigned t) { return 0x6000000 + Addr(t) * 0x10000; }
constexpr Addr boundBase(unsigned t) { return 0x7000000 + Addr(t) * 0x10000; }
constexpr Addr idxTableBase = 0x7800000;

constexpr std::uint64_t secretBytes = 512; ///< 64 words per tenant.
constexpr unsigned gadgetIters = 8;        ///< 7 trainings + 1 attack.
constexpr std::uint64_t gadgetBound = 512; ///< Victim table bytes.
constexpr std::uint64_t hashMul = 2654435761ULL;

/** Hash-table lookup service: W dependent-probe iterations. */
void
emitHashRequest(ProgramBuilder &b, unsigned work)
{
    for (unsigned i = 0; i < work; ++i) {
        b.mul(rIdx, rIdx, rK);
        b.and_(rT, rIdx, rMaskTab);
        b.add(rAddr, rTab, rT);
        b.load(rVal, rAddr, 0);
        b.xor_(rAcc, rAcc, rVal);
    }
}

/** Input parsing: sequential scan with a data-dependent branch per
 *  element (the background image makes the condition ~50/50 noisy). */
void
emitParseRequest(ProgramBuilder &b, unsigned work)
{
    for (unsigned i = 0; i < work; ++i) {
        const std::int64_t off = (i * 8) & 0x7F8;
        b.load(rVal, rIn, off);
        b.and_(rT, rVal, rOne);
        const auto skip = b.futureLabel();
        b.beq(rT, rZero, skip);
        b.addi(rAcc, rAcc, 1);
        b.bind(skip);
    }
}

/** Buffer copy: W load/store pairs over the tenant's copy region. */
void
emitCopyRequest(ProgramBuilder &b, unsigned work)
{
    for (unsigned i = 0; i < work; ++i) {
        const std::int64_t off = (i * 8) & 0xFF8;
        b.load(rVal, rCpyS, off);
        b.store(rCpyD, rVal, off);
    }
}

/**
 * Crypto-style service over the tenant's *own* secret: absorb key
 * words into a multiply-xor sponge and store the (secret-derived)
 * digest words to public scratch. The secret stays in the data path —
 * it never reaches an address or branch operand — and the state
 * register is scrubbed afterwards so no secret label outlives the
 * request.
 */
void
emitCryptoRequest(ProgramBuilder &b, unsigned work)
{
    for (unsigned i = 0; i < work; ++i) {
        const std::int64_t off = (i * 8) & 0x1F8;
        b.load(rVal, rSec, off);
        b.xor_(rMix, rMix, rVal);
        b.mul(rMix, rMix, rK);
        b.store(rScr, rMix, off);
    }
    b.movi(rMix, 0);
}

/**
 * The hostile tenant's service: a Spectre-v1 bounds-check loop. Each
 * iteration reads its array index and its bound-line offset from a
 * per-request table row. Training iterations (everything except the
 * last) use offset 0 — a line that is warm after the first touch —
 * so they resolve and commit quickly, keeping the ROB drained. The
 * last iteration's offset points at a never-touched line, so its
 * bounds check resolves a full cold-miss latency after the index is
 * ready, with the whole backend free for the wrong path.
 *
 * The index stays in bounds in every iteration of every gadget
 * request except the very last iteration of the run's *final* gadget
 * request, which lands on tenant 1's secret. A periodic attack (say
 * every 8th iteration) would be *predicted* by TAGE's tagged
 * histories and never go transient; firing once, at a branch history
 * identical to dozens of not-taken training instances, guarantees
 * the mispredict. The secret load and dependent probe then execute
 * in the cold-miss window before the squash, which the contract
 * shadow attributes as a cross-tenant transmit (owner 1, stream
 * tenant 0).
 */
void
emitGadgetRequest(ProgramBuilder &b, unsigned request)
{
    b.movi(rIdxT, std::int64_t(idxTableBase + Addr(request) * 128));
    b.movi(rCnt, 0);
    const auto loop = b.here();
    b.shl(rT, rCnt, rThree);
    b.add(rAddr, rIdxT, rT);
    b.load(rBndOff, rAddr, 64); // Bound-line offset (warm).
    b.load(rIdx2, rAddr, 0);    // Array index (warm).
    b.add(rAddr, rBndA, rBndOff);
    b.load(rBound, rAddr, std::int64_t(request) * 512);
    const auto skip = b.futureLabel();
    b.bge(rIdx2, rBound, skip);
    b.add(rAddr, rVict, rIdx2);
    b.load(rVal, rAddr, 0);
    b.and_(rVal, rVal, rMask);
    b.shl(rVal, rVal, rThree);
    b.add(rAddr, rProbe, rVal);
    b.load(rT, rAddr, 0);
    b.bind(skip);
    b.addi(rCnt, rCnt, 1);
    b.blt(rCnt, rLim, loop);
}

/** Per-tenant constants, run once at the tenant's first scheduling. */
void
emitTenantSetup(ProgramBuilder &b, unsigned t, const ServerMixParams &p)
{
    b.movi(rTab, std::int64_t(tableBase(t)));
    b.movi(rIn, std::int64_t(inputBase(t)));
    b.movi(rCpyS, std::int64_t(copySrcBase(t)));
    b.movi(rCpyD, std::int64_t(copyDstBase(t)));
    b.movi(rSec, std::int64_t(secretBase(t)));
    b.movi(rScr, std::int64_t(scratchBase(t)));
    b.movi(rProbe, std::int64_t(probeBase(t)));
    b.movi(rBndA, std::int64_t(boundBase(t)));
    b.movi(rK, std::int64_t(hashMul));
    b.movi(rMaskTab, 0xFF8);
    b.movi(rMask, 0xFF);
    b.movi(rThree, 3);
    b.movi(rZero, 0);
    b.movi(rOne, 1);
    b.movi(rIdx,
           std::int64_t(((p.seed + 1) * hashMul + (t + 1) * 0x9E3779B9ULL)
                        & 0x3FFFFFFFFFFFFFFFULL));
    b.movi(rAcc, std::int64_t(t + 1));
    b.movi(rMix, 0);
    if (p.hostile && t == 0) {
        b.movi(rVict, std::int64_t(tableBase(0)));
        b.movi(rLim, gadgetIters);
    }
}

} // anonymous namespace

bool
serverMixParamsValid(const ServerMixParams &p)
{
    return p.tenants >= 2 && p.tenants <= 16 && p.requests >= 1
           && p.requests <= 128 && p.work >= 1 && p.work <= 256;
}

ServerMixProgram
buildServerMix(const ServerMixParams &p)
{
    sb_assert(serverMixParamsValid(p),
              "server mix needs 2..16 tenants, 1..128 requests and "
              "1..256 work, got ",
              p.tenants, "/", p.requests, "/", p.work);

    ProgramBuilder b;

    // Per-tenant secret key material (owned, labelled regions).
    for (unsigned t = 0; t < p.tenants; ++t) {
        for (std::uint64_t w = 0; w < secretBytes / 8; ++w) {
            b.memory().write(secretBase(t) + w * 8,
                             (p.seed + t * 131 + w) * hashMul);
        }
        b.markSecret(secretBase(t), secretBytes, TenantId(t));
    }

    if (p.hostile) {
        // Per-request gadget rows (128 B): words 0..7 hold the array
        // indices, words 8..15 the bound-line offsets. Indices are
        // all in-bounds except the final gadget request's last slot,
        // which holds the byte distance from tenant 0's table to
        // tenant 1's secret (the run's single transient firing); the
        // last slot's bound offset selects the cold line (see
        // emitGadgetRequest).
        unsigned lastGadget = 0;
        for (unsigned r = 0; r < p.requests; ++r) {
            if (r % 4 != 0)
                continue;
            lastGadget = r;
            const Addr row = idxTableBase + Addr(r) * 128;
            for (unsigned i = 0; i < gadgetIters; ++i) {
                b.memory().write(row + Addr(i) * 8,
                                 (r + i) * 8 % gadgetBound);
                b.memory().write(row + 64 + Addr(i) * 8,
                                 i + 1 == gadgetIters ? 256 : 0);
            }
            // The warm (training) and cold (attack) bound lines.
            b.memory().write(boundBase(0) + Addr(r) * 512,
                             gadgetBound);
            b.memory().write(boundBase(0) + Addr(r) * 512 + 256,
                             gadgetBound);
        }
        b.memory().write(idxTableBase + Addr(lastGadget) * 128
                             + Addr(gadgetIters - 1) * 8,
                         secretBase(1) - tableBase(0));
    }

    ServerMixProgram out;
    out.tenants = p.tenants;
    out.totalRequests = p.tenants * p.requests;
    out.requestEnds.reserve(out.totalRequests);

    // One contiguous block per tenant. A tenant switched out at its
    // marker resumes at marker+1 — the tenant's own next request — so
    // round-robin scheduling emerges from the per-block layout alone.
    for (unsigned t = 0; t < p.tenants; ++t) {
        b.tenantEntry(TenantId(t));
        emitTenantSetup(b, t, p);
        for (unsigned r = 0; r < p.requests; ++r) {
            const unsigned service = r % 4;
            if (service == 0) {
                if (p.hostile && t == 0)
                    emitGadgetRequest(b, r);
                else
                    emitHashRequest(b, p.work);
            } else if (service == 1) {
                emitParseRequest(b, p.work);
            } else if (service == 2) {
                emitCopyRequest(b, p.work);
            } else {
                emitCryptoRequest(b, p.work);
            }
            out.requestEnds.push_back(
                b.switchTenant(TenantId((t + 1) % p.tenants)));
        }
        // Tenant 0 resumes here after the final round's last switch;
        // the other tenants' halts are unreachable terminators.
        b.halt();
    }

    out.program = b.build("server-mix");
    return out;
}

} // namespace sb
