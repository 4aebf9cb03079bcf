/**
 * @file
 * Multi-tenant server-mix workload generator.
 *
 * Models a request-serving core shared by several protection domains:
 * each tenant handles a stream of requests drawn from a small service
 * mix (hash-table lookups, input parsing, buffer copies, and a
 * crypto-style kernel over the tenant's own secret key material), and
 * the core round-robins between tenants with a commit-time context
 * switch after every request. Every request ends on a switch marker,
 * so the harness can histogram per-request service times (tail
 * latency) straight off the commit stream.
 *
 * The *hostile* variant arms tenant 0 with a Spectre-v1 bounds-check
 * gadget whose transient out-of-bounds index reaches tenant 1's
 * secret region: the contract shadow engine attributes the transient
 * transmit to tenant 0 while the label's owner is tenant 1, so every
 * successful transient firing is a cross-tenant violation — the
 * leakage column of the multi_tenant report.
 */

#ifndef SB_TRACE_SERVER_MIX_HH
#define SB_TRACE_SERVER_MIX_HH

#include <cstdint>
#include <vector>

#include "isa/program.hh"

namespace sb
{

/** Parameters for the server-mix generator. */
struct ServerMixParams
{
    /** Protection domains sharing the core (2..16). */
    unsigned tenants = 4;
    /** Requests served per tenant (round-robin rounds). */
    unsigned requests = 24;
    /** Unrolled kernel iterations per request (work per request). */
    unsigned work = 24;
    /** Arm tenant 0 with the cross-tenant v1 gadget. */
    bool hostile = true;
    /** Perturbs per-tenant initial hash state and table contents. */
    std::uint64_t seed = 7;
};

/** A built server-mix program plus its request-accounting metadata. */
struct ServerMixProgram
{
    Program program;
    /** PCs of the per-request context-switch markers: one commit of
     *  any of these = one request completed (the tail-latency
     *  sampling points). */
    std::vector<std::uint32_t> requestEnds;
    unsigned tenants = 0;
    /** Total requests across all tenants (== requestEnds.size()). */
    unsigned totalRequests = 0;
};

/** Does buildServerMix() accept @p p? (2..16 tenants, 1..128
 *  requests, 1..256 work.) */
bool serverMixParamsValid(const ServerMixParams &p);

ServerMixProgram buildServerMix(const ServerMixParams &p);

} // namespace sb

#endif // SB_TRACE_SERVER_MIX_HH
