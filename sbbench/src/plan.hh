/**
 * @file
 * The benchmark's three workloads as lists of engine batches.
 *
 * Every workload is a fixed, seed-derived list of Units. The
 * measurement loop times each Unit as one ExperimentEngine::run()
 * call (cold, jobs=1), so a workload's host speed is the sum of its
 * units' median times and its simulated output is the concatenation
 * of its units' outcomes.
 */

#ifndef SBBENCH_PLAN_HH
#define SBBENCH_PLAN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/conformance.hh"
#include "harness/experiment.hh"

namespace sbbench
{

enum class WorkloadKind { SpecRoster, ServerMix, OracleSweep };

/** The CLI names: spec_roster, server_mix, oracle_sweep. */
bool workloadFromName(const std::string &name, WorkloadKind &out);
const char *workloadName(WorkloadKind kind);

/** The seed whose spec_roster window is exactly the grid's window. */
constexpr std::uint64_t defaultSeed = 1;

/** The folded verdict a unit's outcomes must pass. */
enum class Verdict { None, Fuzz, Battery };

/** One timed engine batch. */
struct Unit
{
    std::vector<sb::RunSpec> specs;
    /** Run cold into a fresh result-cache directory, then replay the
     *  same specs warm through a second engine (oracle_sweep). */
    bool cacheRoundTrip = false;
    Verdict verdict = Verdict::None;
    /** The campaign behind the specs when verdict == Fuzz. */
    sb::FuzzParams campaign;
};

/** Cell family, for per-family latency percentiles. */
enum class Family { Windowed, Gadget, Fuzz, Tenant };
constexpr unsigned numFamilies = 4;
Family familyOf(const sb::RunSpec &spec);
const char *familyName(Family family);

struct Plan
{
    WorkloadKind kind = WorkloadKind::SpecRoster;
    std::vector<Unit> units;
};

/**
 * Build @p kind's units from @p seed. @p quick shrinks every
 * workload to a few seconds (the benchmark's own test).
 */
Plan makePlan(WorkloadKind kind, std::uint64_t seed, bool quick);

/** Simulated committed instructions a cell's outcome stands for,
 *  warmup included (windowed warmup counted at its nominal length). */
std::uint64_t simulatedInstructions(const sb::RunSpec &spec,
                                    const sb::RunOutcome &outcome);

} // namespace sbbench

#endif // SBBENCH_PLAN_HH
