#include "plan.hh"

#include "common/rng.hh"
#include "harness/tenant.hh"
#include "harness/verify.hh"
#include "trace/spec_suite.hh"

namespace sbbench
{

namespace
{

/** Grid cells: the 7-scheme roster x the SPEC stand-ins on Mega. The
 *  seed moves the window start by up to 3k instructions, so other
 *  seeds measure other stretches of the same kernels at nearly the
 *  same cost per cell. */
Plan
specRoster(std::uint64_t seed, bool quick)
{
    Plan plan;
    std::uint64_t shift = 0;
    if (seed != defaultSeed)
        shift = 100 * (1 + sb::Rng(seed).below(30));
    std::vector<std::string> names = sb::SpecSuite::benchmarkNames();
    if (quick)
        names.resize(3);
    for (const sb::SchemeConfig &scheme : sb::allSchemeConfigs()) {
        for (const std::string &name : names) {
            sb::RunSpec spec;
            spec.core = sb::CoreConfig::mega();
            spec.scheme = scheme;
            spec.workload = name;
            spec.warmupInsts += shift;
            Unit unit;
            unit.specs = {spec};
            plan.units.push_back(std::move(unit));
        }
    }
    return plan;
}

/** The hostile mix at 16 tenants: every scheme under both switch
 *  policies, over several seed-derived generator seeds. */
Plan
serverMix(std::uint64_t seed, bool quick)
{
    Plan plan;
    sb::Rng rng(seed);
    const unsigned mixes = quick ? 1 : 3;
    for (unsigned m = 0; m < mixes; ++m) {
        sb::ServerMixParams params;
        params.tenants = 16;
        params.requests = quick ? 16 : 32;
        params.hostile = true;
        params.seed = rng.next();
        for (const sb::CoreConfig &core :
             {sb::CoreConfig::mega(), sb::CoreConfig::megaFlush()}) {
            for (const sb::SchemeConfig &scheme : sb::allSchemeConfigs()) {
                sb::RunSpec spec;
                spec.core = core;
                spec.scheme = scheme;
                spec.workload = sb::tenantWorkloadName(params);
                spec.warmupInsts = 0;
                spec.measureInsts = 0;
                Unit unit;
                unit.specs = {spec};
                plan.units.push_back(std::move(unit));
            }
        }
    }
    return plan;
}

/** Oracle cells as a developer reruns them: fuzz campaigns over all
 *  schemes, SLH-transformed campaigns judged against the unmitigated
 *  oracle, and the gadget battery, each run cold into a fresh result
 *  cache and then replayed warm. */
Plan
oracleSweep(std::uint64_t seed, bool quick)
{
    Plan plan;
    sb::Rng rng(seed);
    const auto campaign = [&](unsigned programs, sb::Mitigation m) {
        Unit unit;
        unit.cacheRoundTrip = true;
        unit.verdict = Verdict::Fuzz;
        unit.campaign.baseSeed = rng.next();
        unit.campaign.programs = programs;
        unit.campaign.mitigation = m;
        unit.campaign.jobs = 1;
        unit.specs = sb::fuzzSpecs(unit.campaign);
        plan.units.push_back(std::move(unit));
    };
    // 96 + 24 random programs a pass, so one seed's programs cost
    // about what another seed's do.
    for (unsigned i = 0; i < (quick ? 1 : 8); ++i)
        campaign(quick ? 6 : 12, sb::Mitigation::None);
    for (unsigned i = 0; i < (quick ? 1 : 4); ++i)
        campaign(quick ? 2 : 6, sb::Mitigation::Slh);

    Unit battery;
    battery.cacheRoundTrip = true;
    battery.verdict = Verdict::Battery;
    battery.specs = sb::verifyBatterySpecs(sb::CoreConfig::mega(),
                                           sb::allSchemeConfigs());
    plan.units.push_back(std::move(battery));
    return plan;
}

} // anonymous namespace

bool
workloadFromName(const std::string &name, WorkloadKind &out)
{
    for (WorkloadKind kind :
         {WorkloadKind::SpecRoster, WorkloadKind::ServerMix,
          WorkloadKind::OracleSweep}) {
        if (name == workloadName(kind)) {
            out = kind;
            return true;
        }
    }
    return false;
}

const char *
workloadName(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::SpecRoster: return "spec_roster";
      case WorkloadKind::ServerMix: return "server_mix";
      case WorkloadKind::OracleSweep: return "oracle_sweep";
    }
    return "?";
}

Family
familyOf(const sb::RunSpec &spec)
{
    if (sb::isGadgetWorkload(spec.workload))
        return Family::Gadget;
    if (sb::isFuzzWorkload(spec.workload))
        return Family::Fuzz;
    if (sb::isTenantWorkload(spec.workload))
        return Family::Tenant;
    return Family::Windowed;
}

const char *
familyName(Family family)
{
    switch (family) {
      case Family::Windowed: return "windowed";
      case Family::Gadget: return "gadget";
      case Family::Fuzz: return "fuzz";
      case Family::Tenant: return "mt";
    }
    return "?";
}

Plan
makePlan(WorkloadKind kind, std::uint64_t seed, bool quick)
{
    Plan plan;
    switch (kind) {
      case WorkloadKind::SpecRoster: plan = specRoster(seed, quick); break;
      case WorkloadKind::ServerMix: plan = serverMix(seed, quick); break;
      case WorkloadKind::OracleSweep: plan = oracleSweep(seed, quick); break;
    }
    plan.kind = kind;
    return plan;
}

std::uint64_t
simulatedInstructions(const sb::RunSpec &spec,
                      const sb::RunOutcome &outcome)
{
    if (familyOf(spec) == Family::Windowed)
        return spec.warmupInsts + outcome.instructions;
    return outcome.instructions;
}

} // namespace sbbench
