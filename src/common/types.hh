/**
 * @file
 * Fundamental scalar types shared by every ShadowBinding module.
 *
 * The simulator models a BOOM-class out-of-order core, so the vocabulary
 * mirrors the hardware: cycles, sequence numbers (ROB order), architectural
 * and physical register indices, and memory addresses.
 */

#ifndef SB_COMMON_TYPES_HH
#define SB_COMMON_TYPES_HH

#include <cstdint>
#include <limits>

namespace sb
{

/** Simulated clock cycle count. */
using Cycle = std::uint64_t;

/** "No timed event pending" (TimingWheel::nextDue and friends). */
constexpr Cycle neverCycle = std::numeric_limits<Cycle>::max();

/** Global dynamic-instruction sequence number (program order). */
using SeqNum = std::uint64_t;

/** Architectural (ISA-visible) register index. */
using ArchReg = std::uint16_t;

/** Physical register index (post-rename). */
using PhysReg = std::uint16_t;

/** Byte address in the simulated memory space. */
using Addr = std::uint64_t;

/** 64-bit data value flowing through the simulated datapath. */
using Word = std::uint64_t;

/** Sentinel for "no register". */
constexpr ArchReg invalidArchReg = std::numeric_limits<ArchReg>::max();

/** Sentinel for "no physical register". */
constexpr PhysReg invalidPhysReg = std::numeric_limits<PhysReg>::max();

/** Sentinel for "no sequence number" / "not speculative". */
constexpr SeqNum invalidSeqNum = std::numeric_limits<SeqNum>::max();

/**
 * Youngest Root of Taint (STT): the sequence number of the youngest
 * speculative load an instruction (transitively) depends on.
 * invalidSeqNum means "untainted".
 */
using YRoT = SeqNum;

/** Number of integer architectural registers in the modelled ISA. */
constexpr unsigned numArchRegs = 32;

/**
 * Protection-domain (tenant) identifier. Every instruction executes on
 * behalf of exactly one tenant, and every secret region is owned by
 * one; context switches (program switch points) move the core between
 * them. Single-tenant programs run entirely as tenant 0.
 */
using TenantId = std::uint16_t;

/** Sentinel for "no tenant" (e.g. an unowned label). */
constexpr TenantId invalidTenant = std::numeric_limits<TenantId>::max();

} // namespace sb

#endif // SB_COMMON_TYPES_HH
