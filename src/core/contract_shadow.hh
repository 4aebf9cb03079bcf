/**
 * @file
 * In-core label engine: the ground-truth obligation monitor and the
 * contract shadow, over one register-label vector and one set of
 * core hooks.
 *
 * **Obligation half (always on).** Independently of any scheme's own
 * bookkeeping, every register label tracks the true speculative data
 * flow through the physical register file, and the engine counts
 * violations of the paper's two obligations (Sec. 2):
 *
 *  - STT: no *transmitter* (load/store address, branch) executes with
 *    an operand that transitively derives from a load that is still
 *    speculative ("tainted") — transmitViolations().
 *  - NDA: no instruction at all consumes a value produced directly by
 *    a load that is still speculative — consumeViolations().
 *
 * The unprotected baseline is expected to violate both; STT designs
 * must have zero transmitter violations; NDA must have zero
 * consumption violations (which implies zero transmitter violations).
 * This half is a fixed-size array walk with no hash-map traffic, so
 * it runs in every build.
 *
 * **Contract half (gated on on()).** A shadow copy of architectural
 * state that tracks the contract-permitted observation set cycle by
 * cycle, after Tan et al., "RTL Verification for Secure Speculation
 * Using Contract Shadow Logic". Program data carries secret labels
 * (Program::secretRegions seeds them; the register file and memory
 * image propagate them taint-style alongside values), and at every
 * transmitter site the engine checks whether the observed operand is
 * inside the active contract's permitted set. On violation it records
 * (cycle, seqNum, pc) — the pinpointed repro behind the differential
 * verifier's verdict. Two contracts are modelled simultaneously:
 *
 *  - **sandboxing** — the leak-freedom notion the differential
 *    verifier polices: a transmitter may not execute with an operand
 *    carrying a secret acquired through a still-speculative load
 *    (out-of-sandbox transient access).
 *  - **constant-time** — ProSpeCT (Daniel et al.): secret-labelled
 *    data may never reach a transmitter operand at all, even
 *    architecturally.
 *
 * Like the invariant checkers the contract half defaults on in debug
 * builds and off in release, with SB_INVARIANTS=0/1 forcing either
 * way. The engine is a pure observer: no result feeds timing, so
 * goldens and the obligation counts are bit-identical with the
 * contract half on or off.
 */

#ifndef SB_CORE_CONTRACT_SHADOW_HH
#define SB_CORE_CONTRACT_SHADOW_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "core/dyn_inst.hh"

namespace sb
{

/** One pinpointed contract violation: the exact retire-stream
 *  coordinates of the offending transmitter execution. */
struct ContractViolation
{
    Cycle cycle = 0;
    SeqNum seq = invalidSeqNum;
    std::uint32_t pc = 0;

    bool valid() const { return seq != invalidSeqNum; }
};

/** Register-label tracker: obligation monitor + contract checker. */
class ContractShadow
{
  public:
    explicit ContractShadow(unsigned num_phys_regs);

    /** Mirror of InvariantChecker::defaultActive(): SB_INVARIANTS=1
     *  forces the contract half on even in release builds. */
    static bool defaultActive();

    /** Is the contract half on? (The obligation half always is.) */
    bool on() const { return active; }
    void setActive(bool enable) { active = enable; }

    /** Seed memory labels from a program secret region; @p owner is
     *  the protection domain the secret belongs to. */
    void markSecretRegion(Addr base, std::uint64_t bytes,
                          TenantId owner = 0);

    /** True if the word containing @p addr is secret-labelled. */
    bool memSecret(Addr addr) const;

    /** Owning tenant of a secret word (invalidTenant if not secret). */
    TenantId memOwner(Addr addr) const;

    // --- Core hooks ----------------------------------------------------
    // onAllocate, onLoadData and onConsume always maintain the
    // obligation half; everything else is a no-op unless on().

    /** A physical register was newly allocated: clear its label. */
    void onAllocate(PhysReg reg);

    /** A load's value was read from memory / forwarded from a store
     *  (Core::finishLoad): capture the value's label, keyed by seq,
     *  until the result drains to the register file. */
    void onLoadValue(const DynInst &load, SeqNum forward_source);

    /** The load's result reached the register file: taint its dest
     *  if still speculative, and apply the label captured by
     *  onLoadValue, rooted at the load itself if so. */
    void onLoadData(const DynInst &load, bool still_speculative);

    /** A store's data half executed: capture the data label. */
    void onStoreData(const DynInst &store);

    /** A store committed: move its captured data label into the
     *  memory labels (clean data scrubs a previously secret word). */
    void onStoreCommit(const DynInst &store);

    /**
     * An instruction consumed operands. @p now is the current cycle
     * and @p vp the visibility point (a root older than it is
     * bound-to-commit, hence architecturally sanctioned).
     * @p use_src1 / @p use_src2 select which operands this event
     * reads; @p transmits marks observable uses (load/store address,
     * branch), where the STT obligation and both contracts are
     * checked. The NDA obligation is checked on every use.
     */
    void onConsume(const DynInst &inst, Cycle now, SeqNum vp,
                   bool use_src1, bool use_src2, bool transmits);

    /** Squash: purge captured labels of killed loads/stores. */
    void onSquash(SeqNum youngest_surviving);

    // --- Register labels (context-switch banking) ---------------------
    // Core::performContextSwitch saves the outgoing tenant's
    // architectural labels and restores (or clears) the incoming
    // tenant's through regLabel/setRegLabel.

    /** Per-register label. The first three fields are the contract
     *  half (maintained only while on()); the last two are the
     *  obligation half (always maintained). The two roots differ:
     *  secretRoot joins over secret sources only, taintRoot over all
     *  sources. */
    struct Label
    {
        bool secret = false;
        /** Youngest still-speculative load the secret flowed through;
         *  invalidSeqNum = architecturally acquired. */
        SeqNum secretRoot = invalidSeqNum;
        /** Protection domain the secret belongs to (meaningful only
         *  while secret is set). */
        TenantId owner = 0;
        /** Youngest speculative-load root this value derives from. */
        SeqNum taintRoot = invalidSeqNum;
        /** Load that directly produced this value, if any. */
        SeqNum producerLoad = invalidSeqNum;
    };

    Label regLabel(PhysReg reg) const { return regs[reg]; }
    void setRegLabel(PhysReg reg, Label label) { regs[reg] = label; }

    // --- Verdicts ------------------------------------------------------

    /** STT obligation: transmitters that executed with a tainted
     *  operand (always counted). */
    std::uint64_t transmitViolations() const { return transmitViol; }
    /** NDA obligation: uses of a value produced directly by a
     *  still-speculative load (always counted). */
    std::uint64_t consumeViolations() const { return consumeViol; }

    std::uint64_t sandboxViolations() const { return sandboxViol; }
    std::uint64_t ctViolations() const { return ctViol; }
    /** Transmitters that executed with a secret operand owned by a
     *  *different* tenant than the executing instruction's — the
     *  protection-domain escalation of a constant-time violation. */
    std::uint64_t crossTenantViolations() const { return crossTenantViol; }
    const ContractViolation &firstSandboxViolation() const
    {
        return firstSandbox;
    }
    const ContractViolation &firstCtViolation() const { return firstCt; }
    const ContractViolation &firstCrossTenantViolation() const
    {
        return firstCrossTenant;
    }

  private:
    static Addr alignWord(Addr addr) { return addr & ~Addr(7); }

    void setMemSecret(Addr addr, bool secret, TenantId owner);

    /** @p root if it is still live at @p vp, invalid otherwise. */
    static SeqNum liveRoot(SeqNum root, SeqNum vp)
    {
        return root != invalidSeqNum && root > vp ? root : invalidSeqNum;
    }

    bool active = false;
    std::vector<Label> regs;

    /** 8-aligned word addresses currently holding secret data, mapped
     *  to the protection domain that owns the secret. */
    std::unordered_map<Addr, TenantId> secretWords;

    /** Labels captured at finishLoad, pending writeback (by seq). */
    std::unordered_map<SeqNum, Label> pendingLoads;

    /** Store data labels captured at executeStoreData (by seq). */
    std::unordered_map<SeqNum, Label> storeData;

    std::uint64_t transmitViol = 0;
    std::uint64_t consumeViol = 0;
    std::uint64_t sandboxViol = 0;
    std::uint64_t ctViol = 0;
    std::uint64_t crossTenantViol = 0;
    ContractViolation firstSandbox;
    ContractViolation firstCt;
    ContractViolation firstCrossTenant;
};

} // namespace sb

#endif // SB_CORE_CONTRACT_SHADOW_HH
