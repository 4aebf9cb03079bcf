/**
 * @file
 * The correctness gate. Every check here depends only on simulated
 * results, never on host speed: the engine runs without a wall-clock
 * cell deadline, so a slow host can delay a verdict but not change it.
 */

#ifndef SBBENCH_GATE_HH
#define SBBENCH_GATE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/engine.hh"
#include "plan.hh"

namespace sbbench
{

/** Collected gate failures; the gate passes when none were recorded. */
class Gate
{
  public:
    void require(bool ok, const std::string &what);
    bool passed() const { return failures.empty(); }
    const std::vector<std::string> &failed() const { return failures; }

  private:
    std::vector<std::string> failures;
};

/** A cell that produced no result: watchdog, quarantine, interrupt or
 *  deadlock. These count against fail_frac. */
bool cellFailed(const sb::RunSpec &spec, const sb::RunOutcome &outcome);

/** Field-for-field equality, the IPC double compared exactly. */
bool sameOutcome(const sb::RunOutcome &a, const sb::RunOutcome &b);

/** FNV-1a digest of every simulated field of @p outcomes, in order. */
std::uint64_t digestOutcomes(const std::vector<sb::RunOutcome> &outcomes);

/**
 * Checks that hold for any seed, over one workload's outcomes
 * (@p outcomes[u] answers plan.units[u]).
 */
void checkWorkload(const Plan &plan,
                   const std::vector<std::vector<sb::RunOutcome>> &outcomes,
                   Gate &gate);

/** The folded verdict of @p unit (fuzz campaign PASS, or a passing
 *  verify matrix) over its outcomes. */
void checkVerdict(const Unit &unit, const std::vector<sb::RunOutcome> &outcomes,
                  Gate &gate);

/** Re-run the 18 timing-parity golden cells of tests/test_parity.cpp
 *  and require bit-identical cycles and instructions. */
void checkParityGoldens(sb::ExperimentEngine &engine, Gate &gate);

/** The scenario's canonical hostile mix (4 tenants x 24 requests):
 *  Baseline must leak across tenants under both switch policies and
 *  every dataflow scheme must close the leak. */
void checkTenantArmed(sb::ExperimentEngine &engine, Gate &gate);

} // namespace sbbench

#endif // SBBENCH_GATE_HH
