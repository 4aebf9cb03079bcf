#include "gate.hh"

#include <cstdio>

#include "common/hash.hh"
#include "core/security_contract.hh"
#include "harness/tenant.hh"
#include "harness/verify.hh"
#include "secure/factory.hh"

namespace sbbench
{

namespace
{

struct Golden
{
    sb::Scheme scheme;
    const char *workload;
    std::uint64_t cycles;
    std::uint64_t instructions;
};

// The goldens of tests/test_parity.cpp (mega core, warmup 10000,
// measure 50000). A modelling change that recaptures them there must
// recapture them here too.
const Golden parityGoldens[] = {
    {sb::Scheme::Baseline, "505.mcf", 207956ull, 50002ull},
    {sb::Scheme::Baseline, "541.leela", 54131ull, 50002ull},
    {sb::Scheme::Baseline, "519.lbm", 33330ull, 50000ull},
    {sb::Scheme::SttRename, "505.mcf", 227054ull, 50002ull},
    {sb::Scheme::SttRename, "541.leela", 55254ull, 50002ull},
    {sb::Scheme::SttRename, "519.lbm", 33330ull, 50000ull},
    {sb::Scheme::SttIssue, "505.mcf", 225993ull, 50002ull},
    {sb::Scheme::SttIssue, "541.leela", 55278ull, 50002ull},
    {sb::Scheme::SttIssue, "519.lbm", 33330ull, 50000ull},
    {sb::Scheme::Nda, "505.mcf", 229176ull, 50002ull},
    {sb::Scheme::Nda, "541.leela", 55865ull, 50000ull},
    {sb::Scheme::Nda, "519.lbm", 33330ull, 50000ull},
    {sb::Scheme::DelayOnMiss, "505.mcf", 224932ull, 50002ull},
    {sb::Scheme::DelayOnMiss, "541.leela", 294305ull, 50000ull},
    {sb::Scheme::DelayOnMiss, "519.lbm", 33330ull, 50000ull},
    {sb::Scheme::DelayAll, "505.mcf", 230237ull, 50002ull},
    {sb::Scheme::DelayAll, "541.leela", 299681ull, 50000ull},
    {sb::Scheme::DelayAll, "519.lbm", 33330ull, 50000ull},
};

std::string
cellName(const sb::RunSpec &spec)
{
    return std::string(sb::schemeName(spec.scheme.scheme)) + "/"
           + spec.core.name + "/" + spec.workload;
}

sb::SecurityContract
contractOf(sb::Scheme scheme)
{
    sb::SchemeConfig config;
    config.scheme = scheme;
    return sb::makeScheme(config)->contract();
}

bool
obligesDataflow(const sb::SecurityContract &c)
{
    return c.obligesTransmitterSafety || c.obligesConsumeSafety;
}

/** Checks every cell family shares: a real result whose IPC is its
 *  own instructions over cycles, and the monitor obligations of the
 *  scheme's declared contract. */
void
checkCell(const sb::RunSpec &spec, const sb::RunOutcome &o, Gate &gate)
{
    const std::string name = cellName(spec);
    gate.require(!cellFailed(spec, o), name + ": no result");
    gate.require(o.workload == spec.workload
                     && o.coreName == spec.core.name
                     && o.scheme == spec.scheme.scheme,
                 name + ": outcome answers another spec");
    const double ipc =
        o.cycles == 0 ? 0.0
                      : static_cast<double>(o.instructions)
                            / static_cast<double>(o.cycles);
    gate.require(o.ipc == ipc, name + ": ipc != instructions/cycles");
    const sb::SecurityContract contract = contractOf(spec.scheme.scheme);
    if (familyOf(spec) != Family::Gadget) {
        // Gadget cells are judged as pairs by foldVerifyOutcomes.
        if (contract.obligesTransmitterSafety)
            gate.require(o.transmitViolations == 0,
                         name + ": transmitter-safety violated");
        if (contract.obligesConsumeSafety)
            gate.require(o.consumeViolations == 0,
                         name + ": consume-safety violated");
    }
}

void
checkWindowed(const sb::RunSpec &spec, const sb::RunOutcome &o,
              Gate &gate)
{
    const std::string name = cellName(spec);
    gate.require(o.cycles > 0 && o.cycles == o.stat("cycles"),
                 name + ": cycles disagree with the cycle counter");
    gate.require(o.instructions == o.stat("committed_insts"),
                 name + ": instructions disagree with the commit counter");
    gate.require(o.instructions >= spec.measureInsts
                     && o.instructions
                            < spec.measureInsts + spec.core.coreWidth,
                 name + ": measurement window not fully committed");
}

void
checkTenant(const sb::RunSpec &spec, const sb::RunOutcome &o,
            Gate &gate)
{
    const std::string name = cellName(spec);
    sb::ServerMixParams params;
    gate.require(sb::parseTenantWorkload(spec.workload, params),
                 name + ": malformed server-mix workload");
    const std::uint64_t expected =
        std::uint64_t(params.tenants) * params.requests;
    gate.require(o.stat("mt_halted") == 1, name + ": did not halt");
    gate.require(o.stat("mt_total_requests") == expected
                     && o.stat("mt_requests") == expected,
                 name + ": not every request was served");
    gate.require(o.stat("mt_context_switches") > 0,
                 name + ": no context switch");
    if (obligesDataflow(contractOf(spec.scheme.scheme)))
        gate.require(o.stat("mt_cross_viol") == 0,
                     name + ": dataflow scheme leaked across tenants");
}

} // anonymous namespace

void
Gate::require(bool ok, const std::string &what)
{
    if (!ok)
        failures.push_back(what);
}

bool
cellFailed(const sb::RunSpec &spec, const sb::RunOutcome &outcome)
{
    if (!sb::outcomeIsCacheable(outcome))
        return true;
    switch (familyOf(spec)) {
      case Family::Fuzz:
        return outcome.stat("fuzz_halted") == 0
               || outcome.stat("fuzz_watchdog") != 0;
      case Family::Tenant:
        return outcome.stat("mt_halted") == 0;
      default:
        return false;
    }
}

bool
sameOutcome(const sb::RunOutcome &a, const sb::RunOutcome &b)
{
    return a.workload == b.workload && a.coreName == b.coreName
           && a.scheme == b.scheme && a.cycles == b.cycles
           && a.instructions == b.instructions && a.ipc == b.ipc
           && a.transmitViolations == b.transmitViolations
           && a.consumeViolations == b.consumeViolations
           && a.stats == b.stats;
}

std::uint64_t
digestOutcomes(const std::vector<sb::RunOutcome> &outcomes)
{
    std::uint64_t h = sb::fnv1aBasis;
    for (const sb::RunOutcome &o : outcomes) {
        h = sb::fnv1aString(h, o.workload);
        h = sb::fnv1aString(h, o.coreName);
        h = sb::fnv1aWord(h, static_cast<std::uint64_t>(o.scheme));
        h = sb::fnv1aWord(h, o.cycles);
        h = sb::fnv1aWord(h, o.instructions);
        h = sb::fnv1aWord(h, o.transmitViolations);
        h = sb::fnv1aWord(h, o.consumeViolations);
        for (const auto &kv : o.stats) {
            h = sb::fnv1aString(h, kv.first);
            h = sb::fnv1aWord(h, kv.second);
        }
    }
    return h;
}

void
checkWorkload(const Plan &plan,
              const std::vector<std::vector<sb::RunOutcome>> &outcomes,
              Gate &gate)
{
    for (std::size_t u = 0; u < plan.units.size(); ++u) {
        const Unit &unit = plan.units[u];
        for (std::size_t i = 0; i < unit.specs.size(); ++i) {
            const sb::RunSpec &spec = unit.specs[i];
            const sb::RunOutcome &o = outcomes[u][i];
            checkCell(spec, o, gate);
            if (familyOf(spec) == Family::Windowed)
                checkWindowed(spec, o, gate);
            else if (familyOf(spec) == Family::Tenant)
                checkTenant(spec, o, gate);
        }
        checkVerdict(unit, outcomes[u], gate);
    }
}

void
checkVerdict(const Unit &unit, const std::vector<sb::RunOutcome> &outcomes,
             Gate &gate)
{
    if (unit.verdict == Verdict::Fuzz) {
        const sb::FuzzReport report =
            sb::foldFuzzOutcomes(unit.campaign, outcomes);
        for (const sb::FuzzFailure &f : report.failures)
            std::fprintf(stderr, "fuzz failure: %s: %s\n", f.kind.c_str(),
                         f.repro("mega").c_str());
        gate.require(report.ok(),
                     std::string("fuzz campaign (mitigation ")
                         + sb::mitigationName(unit.campaign.mitigation)
                         + ") verdict is not PASS");
    } else if (unit.verdict == Verdict::Battery) {
        gate.require(sb::foldVerifyOutcomes(outcomes).ok(),
                     "gadget battery verify matrix fails");
    }
}

void
checkParityGoldens(sb::ExperimentEngine &engine, Gate &gate)
{
    std::vector<sb::RunSpec> specs;
    for (const Golden &g : parityGoldens) {
        sb::RunSpec spec;
        spec.core = sb::CoreConfig::mega();
        spec.scheme.scheme = g.scheme;
        spec.workload = g.workload;
        spec.warmupInsts = 10000;
        spec.measureInsts = 50000;
        specs.push_back(spec);
    }
    const std::vector<sb::RunOutcome> outcomes = engine.run(specs);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const Golden &g = parityGoldens[i];
        gate.require(outcomes[i].cycles == g.cycles
                         && outcomes[i].instructions == g.instructions,
                     "parity golden " + cellName(specs[i]) + ": got "
                         + std::to_string(outcomes[i].cycles) + "/"
                         + std::to_string(outcomes[i].instructions)
                         + " cycles/instructions, want "
                         + std::to_string(g.cycles) + "/"
                         + std::to_string(g.instructions));
    }
}

void
checkTenantArmed(sb::ExperimentEngine &engine, Gate &gate)
{
    std::vector<sb::RunSpec> specs;
    for (const sb::CoreConfig &core :
         {sb::CoreConfig::mega(), sb::CoreConfig::megaFlush()}) {
        for (const sb::SchemeConfig &scheme : sb::allSchemeConfigs()) {
            sb::RunSpec spec;
            spec.core = core;
            spec.scheme = scheme;
            spec.workload = sb::tenantWorkloadName(sb::ServerMixParams{});
            spec.warmupInsts = 0;
            spec.measureInsts = 0;
            specs.push_back(spec);
        }
    }
    const std::vector<sb::RunOutcome> outcomes = engine.run(specs);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const sb::SecurityContract contract =
            contractOf(specs[i].scheme.scheme);
        checkCell(specs[i], outcomes[i], gate);
        checkTenant(specs[i], outcomes[i], gate);
        if (contract.policy == sb::ContractPolicy::None)
            gate.require(outcomes[i].stat("mt_cross_viol") > 0,
                         cellName(specs[i])
                             + ": Baseline did not leak across tenants");
    }
}

} // namespace sbbench
