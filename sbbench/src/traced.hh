/**
 * @file
 * The traced run: every cell of a plan replayed through the layers'
 * public calls, with a span around each call, so the per-layer
 * metrics say where host time goes. Spans stay in memory until the
 * run ends. Each replayed outcome must equal the engine's outcome
 * for the same spec, so the per-layer numbers describe the path the
 * untraced run measured.
 */

#ifndef SBBENCH_TRACED_HH
#define SBBENCH_TRACED_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gate.hh"
#include "plan.hh"

namespace sbbench
{

using Clock = std::chrono::steady_clock;

/** One timed call. Spans of one cell share its cell index. */
struct Span
{
    const char *name;
    std::uint32_t parent; ///< Enclosing span's id (index + 1); 0 = none.
    std::uint32_t cell;
    double start;
    double end;
};

class Tracer
{
  public:
    explicit Tracer(Clock::time_point origin) : origin(origin) {}

    /** Open a span inside the innermost open one; returns its id. */
    std::uint32_t begin(const char *name, std::uint32_t cell);
    /** Close span @p id (the innermost open one); returns seconds. */
    double end(std::uint32_t id);

    /** Summed duration of every span called @p name. */
    double total(const std::string &name) const;
    /** (cell, seconds) of every span called @p name. */
    std::vector<std::pair<std::uint32_t, double>>
    durations(const std::string &name) const;
    /** Write every span as a JSON array; false on an I/O error. */
    bool write(const std::string &path) const;

  private:
    double now() const;

    Clock::time_point origin;
    std::vector<Span> spans;
    std::vector<std::uint32_t> open;
};

/** RAII span. */
class Scoped
{
  public:
    Scoped(Tracer &tracer, const char *name, std::uint32_t cell)
        : tracer(tracer), id(tracer.begin(name, cell))
    {
    }
    ~Scoped() { tracer.end(id); }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

  private:
    Tracer &tracer;
    std::uint32_t id;
};

/** Simulated counts and host time of the replayed cores. */
struct Tally
{
    struct PerScheme
    {
        double runSeconds = 0;        ///< Host time in Core::run.
        std::uint64_t cycles = 0;     ///< All simulated cycles.
        std::uint64_t windowCycles = 0;
        std::uint64_t windowInsts = 0;
    };
    std::map<sb::Scheme, PerScheme> perScheme;
    /** Core counters summed over every replayed core's stats window. */
    std::map<std::string, std::uint64_t> counters;
    std::uint64_t cycles = 0;       ///< Warmup included.
    std::uint64_t instructions = 0; ///< Warmup included.
    std::uint64_t specMakeCalls = 0;
    std::set<std::string> specPrograms;
};

/**
 * Replay unit @p u of @p plan with spans into @p tracer (its cells
 * numbered from @p first_cell), tallying into @p tally; a replayed
 * outcome that differs from the engine's outcome @p want fails
 * @p gate. Returns the replay's wall time in seconds.
 */
double tracedUnit(const Plan &plan, std::size_t u,
                  const std::vector<sb::RunOutcome> &want,
                  std::uint32_t first_cell, Tracer &tracer, Tally &tally,
                  Gate &gate);

} // namespace sbbench

#endif // SBBENCH_TRACED_HH
