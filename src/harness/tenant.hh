/**
 * @file
 * Multi-tenant experiment tier.
 *
 * Wraps the server-mix workload (trace/server_mix.hh) as ordinary
 * RunSpec cells — workload strings of the form
 * "mt:tenants=4:requests=24:work=24:hostile=1:seed=7" — so
 * multi-tenant runs flow through the ExperimentEngine's dedup and
 * content-addressed result cache like every other cell. A cell's
 * RunOutcome carries the service-quality profile (throughput and
 * p50/p95/p99 tail latency in cycles, sampled per request off the
 * commit stream) and the cross-tenant leakage verdict from the
 * contract shadow engine, so the "multi_tenant" scenario can report
 * what each secure-speculation scheme costs a consolidated
 * request-serving core — and which ones actually stop the hostile
 * tenant.
 */

#ifndef SB_HARNESS_TENANT_HH
#define SB_HARNESS_TENANT_HH

#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "trace/server_mix.hh"

namespace sb
{

class ScenarioRegistry;

/**
 * Workload-name encoding of one server-mix run. RunSpec::specKey()
 * hashes the workload string, so every generator parameter is part of
 * the cell's cache address.
 */
std::string tenantWorkloadName(const ServerMixParams &p);

/** Is @p workload a multi-tenant server-mix cell? */
bool isTenantWorkload(const std::string &workload);

/**
 * Decode a tenantWorkloadName(). Returns false, leaving @p out
 * untouched, unless @p workload is exactly the canonical name of a
 * buildServerMix()-valid parameter set.
 */
bool parseTenantWorkload(const std::string &workload,
                         ServerMixParams &out);

/**
 * Execute one server-mix cell (ExperimentRunner::runOne dispatches
 * here for "mt:" workloads). Per-request latencies, quantiles, and
 * the cross-tenant violation counts land in RunOutcome::stats under
 * "mt_*" keys; warmup/measure counts are ignored (the mix is a
 * complete program, measured whole).
 */
RunOutcome runServerMixCell(const RunSpec &spec);

/**
 * Cross-domain verdict of a batch of server-mix outcomes, derived
 * from each scheme's SecurityContract. The hostile tenant's gadget
 * trains entirely inside its own requests, so the predictor-flush
 * switch policy alone cannot close it: only schemes with a dataflow
 * obligation (transmitter- or consume-safe) must stop the transient
 * transmit. Sandboxing-only schemes (Delay-on-Miss) never promised
 * to — the victim keeps its own secret L1-hot, and DoM only delays
 * *missing* speculative loads — so they are exempt.
 */
struct TenantVerdict
{
    /** Some Baseline cell showed a cross-tenant transmit (the
     *  hostile tenant is armed). */
    bool baselineLeaks = false;
    /** Some dataflow-obligated scheme showed one. */
    bool dataflowLeaks = false;

    bool ok() const { return baselineLeaks && !dataflowLeaks; }
};

TenantVerdict tenantVerdict(const std::vector<RunOutcome> &outcomes);

/** Register the "multi_tenant" scenario (schemes x switch policies
 *  over the hostile server mix) into @p registry. */
void registerTenantScenarios(ScenarioRegistry &registry);

} // namespace sb

#endif // SB_HARNESS_TENANT_HH
