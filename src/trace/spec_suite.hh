/**
 * @file
 * SPEC CPU2017 stand-in suite.
 *
 * One synthetic workload per benchmark the paper evaluates (Figure 6).
 * The real suite cannot be redistributed or run on this substrate, so
 * each benchmark is mapped to a kernel whose microarchitectural
 * character matches the behaviour the paper reports for it (see
 * DESIGN.md "Substitutions"). Parameters were calibrated against the
 * paper's per-benchmark normalised IPC.
 */

#ifndef SB_TRACE_SPEC_SUITE_HH
#define SB_TRACE_SPEC_SUITE_HH

#include <string>
#include <vector>

#include "isa/program.hh"

namespace sb
{

/** A named, runnable benchmark stand-in. */
struct Workload
{
    std::string name;
    Program program;
};

/** Factory for the 22-benchmark stand-in suite. */
class SpecSuite
{
  public:
    /** Names in the paper's presentation order (Figure 6). */
    static std::vector<std::string> benchmarkNames();

    /**
     * The stand-in for one benchmark (fatal on unknown name). Built
     * once per process on first use and memoized; each call returns a
     * copy, which is cheap because the program's memory image shares
     * its frozen base. Thread-safe.
     */
    static Workload make(const std::string &name);

    /** Build the stand-in afresh, bypassing the memo (what make()
     *  runs on a name's first use). */
    static Workload build(const std::string &name);

    /** Build every benchmark. */
    static std::vector<Workload> all();
};

} // namespace sb

#endif // SB_TRACE_SPEC_SUITE_HH
