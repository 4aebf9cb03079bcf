/**
 * @file
 * sbbench: the simulator's benchmark program.
 *
 *   sbbench --workload spec_roster|server_mix|oracle_sweep --seed N
 *           --seconds S --trace 0|1 [--quick] [--spans PATH]
 *           [--corrupt-cell I]
 *
 * Runs one workload's engine batches (jobs=1, no wall-clock cell
 * deadline) in a loop for S seconds of host time, checks the
 * simulated outcomes with a host-independent gate, and prints the
 * metrics. The last stdout line is one JSON object: the end-to-end
 * metrics with --trace 0, the per-layer metrics of a traced replay
 * with --trace 1. Exits 1 when the gate fails, 2 on bad usage.
 *
 * --corrupt-cell I adds one cycle to cell I's outcome before the gate
 * (the gate must then fail).
 */

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <sched.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/config.hh"
#include "harness/engine.hh"
#include "gate.hh"
#include "plan.hh"
#include "traced.hh"

extern char **environ;

namespace
{

using namespace sbbench;

struct Args
{
    WorkloadKind workload = WorkloadKind::SpecRoster;
    std::uint64_t seed = defaultSeed;
    double seconds = 10;
    bool trace = false;
    bool quick = false;
    long corruptCell = -1;
    std::string spansPath;
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: sbbench --workload spec_roster|server_mix|"
                 "oracle_sweep --seed N --seconds S --trace 0|1 "
                 "[--quick] [--spans PATH] [--corrupt-cell I]\n");
    return 2;
}

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            args.quick = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const char *value = argv[++i];
        char *end = nullptr;
        errno = 0;
        if (arg == "--workload") {
            if (!workloadFromName(value, args.workload))
                return false;
        } else if (arg == "--seed") {
            args.seed = std::strtoull(value, &end, 10);
        } else if (arg == "--seconds") {
            args.seconds = std::strtod(value, &end);
            if (end != value && !(args.seconds > 0 && args.seconds <= 600))
                return false;
        } else if (arg == "--trace") {
            const long v = std::strtol(value, &end, 10);
            if (v != 0 && v != 1)
                return false;
            args.trace = v == 1;
        } else if (arg == "--spans") {
            args.spansPath = value;
        } else if (arg == "--corrupt-cell") {
            args.corruptCell = std::strtol(value, &end, 10);
        } else {
            return false;
        }
        if (end && (end == value || *end != '\0' || errno != 0))
            return false;
    }
    return true;
}

/** The simulator reads SB_JOBS, SB_INVARIANTS and SB_FAULT; none may
 *  leak in from the caller's shell. */
void
scrubEnvironment()
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e) {
        const std::string entry = *e;
        if (entry.rfind("SB_", 0) == 0)
            names.push_back(entry.substr(0, entry.find('=')));
    }
    for (const std::string &name : names)
        unsetenv(name.c_str());
}

/** Nearest-rank percentile. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(std::ceil(q * v.size()));
    return v[std::min(std::max<std::size_t>(rank, 1), v.size()) - 1];
}

/** Peak resident set of this process image. VmHWM, unlike
 *  getrusage's ru_maxrss, does not carry the peak of the process that
 *  exec'd this program. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    return 0;
}

std::string
schemeKey(sb::Scheme scheme)
{
    std::string key = sb::schemeName(scheme);
    for (char &c : key)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return key;
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("metric %-34s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit);
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit);
    std::printf("}}\n");
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Host time of one unit execution. */
struct UnitTimes
{
    std::vector<double> total;
    std::vector<double> warm;  ///< Warm replay share (cache round trips).
    std::vector<double> probe; ///< hostProbe() just before each sample.
};

/** The host speed every time metric is scaled to: a hostProbe() time
 *  (see METRICS.md). A fixed constant, so parent and change agree. */
constexpr double probeNominalSeconds = 0.004;

/** Set-up samples behind setup_s. */
constexpr int setupSamples = 15;

[[noreturn]] void
die(const char *what)
{
    std::perror(what);
    std::exit(2);
}

/**
 * Run @p fn in a forked child on the CPU this thread last ran on and
 * return the number it computes. The child's memory stays out of this
 * process's peak RSS. The engine's idle worker thread may hold
 * allocator locks at the fork, so once an engine has run, @p fn must
 * not allocate through malloc.
 */
template <typename Fn>
double
inChild(Fn fn)
{
    int fds[2];
    if (pipe(fds) != 0)
        die("sbbench: pipe");
    const int cpu = sched_getcpu();
    const pid_t pid = fork();
    if (pid < 0)
        die("sbbench: fork");
    if (pid == 0) {
        close(fds[0]);
        if (cpu >= 0) {
            cpu_set_t set;
            CPU_ZERO(&set);
            CPU_SET(cpu, &set);
            sched_setaffinity(0, sizeof set, &set); // best effort
        }
        const double value = fn();
        const bool sent = write(fds[1], &value, sizeof value) ==
                          static_cast<ssize_t>(sizeof value);
        _exit(sent ? 0 : 1);
    }
    close(fds[1]);
    double value = 0;
    ssize_t got;
    do {
        got = read(fds[0], &value, sizeof value);
    } while (got < 0 && errno == EINTR);
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (got != static_cast<ssize_t>(sizeof value) || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
        std::fprintf(stderr, "sbbench: measuring child failed\n");
        std::exit(2);
    }
    return value;
}

/**
 * A fixed kernel: random read-modify-writes over 8 MiB, then
 * data-dependent branches over a 256 KiB table, in a fresh mapping
 * (no malloc, see inChild()). Other tenants on the host's shared
 * cores slow it as they slow the simulator, so its time measures the
 * host's speed at that moment; simulator changes cannot move it.
 */
double
hostProbe()
{
    constexpr std::size_t bigWords = 1u << 20;
    constexpr std::size_t tableWords = 1u << 15;
    constexpr std::size_t bytes = (bigWords + tableWords) * 8;
    void *mem = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
    if (mem == MAP_FAILED)
        die("sbbench: mmap");
    std::uint64_t *big = static_cast<std::uint64_t *>(mem);
    std::uint64_t *table = big + bigWords;
    const Clock::time_point t0 = Clock::now();
    std::uint64_t x = 1;
    std::uint64_t acc = 0;
    for (long i = 0; i < 300000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        big[(x >> 40) & (bigWords - 1)] += x;
    }
    for (long i = 0; i < 500000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        std::uint64_t &v = table[(x >> 45) & (tableWords - 1)];
        if ((x >> 33) & 1)
            acc += v;
        else
            v ^= acc + static_cast<std::uint64_t>(i);
    }
    table[0] += acc;
    const double seconds = secondsSince(t0);
    munmap(mem, bytes);
    return seconds;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** A unit's host time at the nominal host speed: the median over its
 *  executions of time x nominal probe / probe before it. */
double
normalizedSeconds(const UnitTimes &t)
{
    std::vector<double> v;
    for (std::size_t i = 0; i < t.total.size(); ++i)
        v.push_back(t.total[i] * probeNominalSeconds / t.probe[i]);
    return median(v);
}

/** One worker thread and no wall-clock cell deadline, whatever the
 *  host: a slow host delays cells but cannot change their outcome. */
sb::ExperimentEngine::Options
engineOptions(const std::string &cache_dir)
{
    sb::ExperimentEngine::Options options;
    options.jobs = 1;
    options.cacheDir = cache_dir;
    return options;
}

class Runner
{
  public:
    explicit Runner(Gate &gate) : gate(gate) {}

    sb::ExperimentEngine &mainEngine() { return engine; }

    std::vector<sb::RunOutcome>
    run(const Unit &unit, UnitTimes &times)
    {
        if (!unit.cacheRoundTrip) {
            const Clock::time_point t0 = Clock::now();
            std::vector<sb::RunOutcome> out = engine.run(unit.specs);
            times.total.push_back(secondsSince(t0));
            return out;
        }
        // A fresh cache per execution: the cold batch writes it, a
        // second engine (a rerun of the same command) replays it.
        const sb::ExperimentEngine::Options options =
            engineOptions("cache-" + std::to_string(cacheSerial++));
        std::vector<sb::RunOutcome> cold;
        std::vector<sb::RunOutcome> warm;
        const Clock::time_point t0 = Clock::now();
        {
            sb::ExperimentEngine coldEngine(options);
            cold = coldEngine.run(unit.specs);
        }
        const Clock::time_point t1 = Clock::now();
        std::uint64_t hits = 0;
        {
            sb::ExperimentEngine warmEngine(options);
            warm = warmEngine.run(unit.specs);
            hits = warmEngine.stats().cacheHits;
        }
        times.warm.push_back(secondsSince(t1));
        times.total.push_back(secondsSince(t0));
        std::error_code ec;
        std::filesystem::remove_all(options.cacheDir, ec);

        bool same = hits == unit.specs.size() && warm.size() == cold.size();
        for (std::size_t i = 0; same && i < cold.size(); ++i)
            same = sameOutcome(cold[i], warm[i]);
        gate.require(same, "warm replay differs from the cold run");
        return cold;
    }

  private:
    Gate &gate;
    sb::ExperimentEngine engine{engineOptions("")};
    unsigned cacheSerial = 0;
};

/**
 * Set-up time at the nominal host speed: the median over
 * setupSamples children, forked before any set-up ran, of the time
 * to build the plan, the gate and the engine, each scaled by a host
 * probe run just before it in the same child.
 */
double
setupSeconds(const Args &args)
{
    std::vector<double> samples;
    for (int i = 0; i < setupSamples; ++i) {
        samples.push_back(inChild([&] {
            const double probe = hostProbe();
            const Clock::time_point t0 = Clock::now();
            const Plan plan = makePlan(args.workload, args.seed, args.quick);
            Gate gate;
            Runner runner(gate);
            return secondsSince(t0) * probeNominalSeconds / probe;
        }));
    }
    return median(samples);
}

std::vector<Metric>
perLayerMetrics(const Plan &plan, const Tracer &tracer, const Tally &tally,
                const std::vector<UnitTimes> &times, double untraced_pass_s,
                double traced_pass_s)
{
    std::vector<Metric> m;
    const auto perK = [](std::uint64_t count, std::uint64_t insts) {
        return insts == 0 ? 0.0 : 1000.0 * count / insts;
    };
    const auto counter = [&](const char *name) {
        auto it = tally.counters.find(name);
        return it == tally.counters.end() ? std::uint64_t(0) : it->second;
    };
    const double runS =
        tracer.total("core.warmup") + tracer.total("core.measure");
    const std::uint64_t committed = counter("committed_insts");
    const std::uint64_t squashed = counter("squashed_insts");

    m.push_back({"core.measure_s", tracer.total("core.measure"), "s"});
    m.push_back({"core.warmup_s", tracer.total("core.warmup"), "s"});
    m.push_back({"core.ctor_s", tracer.total("core.ctor"), "s"});
    m.push_back({"core.ns_per_cycle",
                 tally.cycles ? 1e9 * runS / tally.cycles : 0.0, "ns"});
    m.push_back({"core.ns_per_inst",
                 tally.instructions ? 1e9 * runS / tally.instructions : 0.0,
                 "ns"});
    m.push_back({"core.useful_frac",
                 committed + squashed
                     ? double(committed) / double(committed + squashed)
                     : 0.0,
                 "ratio"});
    m.push_back({"core.squashes_pki", perK(counter("squashes"), committed),
                 "1/kinst"});
    m.push_back({"core.context_switches",
                 double(counter("context_switches")), "count"});
    m.push_back({"core.ipc",
                 counter("cycles") ? double(committed) / counter("cycles")
                                   : 0.0,
                 "inst/cycle"});

    const Tally::PerScheme base = tally.perScheme.count(sb::Scheme::Baseline)
                                      ? tally.perScheme.at(sb::Scheme::Baseline)
                                      : Tally::PerScheme{};
    const double baseIpc =
        base.windowCycles ? double(base.windowInsts) / base.windowCycles : 0;
    for (sb::Scheme scheme : sb::allSchemes()) {
        auto it = tally.perScheme.find(scheme);
        const Tally::PerScheme ps =
            it == tally.perScheme.end() ? Tally::PerScheme{} : it->second;
        m.push_back({"secure." + schemeKey(scheme) + ".ns_per_cycle",
                     ps.cycles ? 1e9 * ps.runSeconds / ps.cycles : 0.0,
                     "ns"});
        const double ipc =
            ps.windowCycles ? double(ps.windowInsts) / ps.windowCycles : 0;
        m.push_back({"secure." + schemeKey(scheme) + ".norm_ipc",
                     baseIpc > 0 ? ipc / baseIpc : 0.0, "ratio"});
    }
    m.push_back({"secure.select_blocks_pki",
                 perK(counter("scheme_select_blocks"), committed),
                 "1/kinst"});
    m.push_back({"secure.miss_delays_pki",
                 perK(counter("scheme_miss_delays"), committed), "1/kinst"});

    m.push_back({"trace.spec_make_s", tracer.total("trace.spec_make"), "s"});
    m.push_back({"trace.spec_make_calls", double(tally.specMakeCalls),
                 "count"});
    m.push_back({"trace.spec_unique_programs",
                 double(tally.specPrograms.size()), "count"});
    m.push_back({"trace.server_mix_s", tracer.total("trace.server_mix"),
                 "s"});
    m.push_back({"isa.generate_s", tracer.total("isa.generate"), "s"});
    m.push_back({"isa.transform_s", tracer.total("isa.transform"), "s"});

    m.push_back({"memory.l1_miss_pki",
                 perK(counter("load_l1_misses"), committed), "1/kinst"});
    m.push_back({"memory.mshr_retry_pki",
                 perK(counter("mshr_retries"), committed), "1/kinst"});
    m.push_back({"memory.load_forward_pki",
                 perK(counter("load_forwards"), committed), "1/kinst"});
    m.push_back({"branch.mispredict_pki",
                 perK(counter("branch_mispredicts"), committed), "1/kinst"});

    m.push_back({"harness.speckey_s", tracer.total("harness.speckey"), "s"});
    m.push_back({"harness.cache_write_s",
                 tracer.total("harness.cache_write"), "s"});
    m.push_back({"harness.cache_read_s", tracer.total("harness.cache_read"),
                 "s"});
    m.push_back({"harness.fold_s", tracer.total("harness.fold"), "s"});
    double replay = 0; // The traced run's single pass.
    for (const UnitTimes &t : times)
        for (double w : t.warm)
            replay += w;
    m.push_back({"harness.cache_replay_s", replay, "s"});

    std::vector<Family> families;
    for (const Unit &unit : plan.units)
        for (const sb::RunSpec &spec : unit.specs)
            families.push_back(familyOf(spec));
    std::vector<std::vector<double>> cellMs(numFamilies);
    for (const auto &d : tracer.durations("harness.cell"))
        cellMs[static_cast<unsigned>(families.at(d.first))].push_back(
            1e3 * d.second);
    for (unsigned f = 0; f < numFamilies; ++f) {
        const std::string fam = familyName(static_cast<Family>(f));
        m.push_back({"harness.cell_ms_p50." + fam,
                     percentile(cellMs[f], 0.50), "ms"});
        m.push_back({"harness.cell_ms_p90." + fam,
                     percentile(cellMs[f], 0.90), "ms"});
    }
    m.push_back({"harness.trace_overhead_frac",
                 untraced_pass_s > 0 ? traced_pass_s / untraced_pass_s - 1
                                     : 0.0,
                 "ratio"});
    return m;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const Clock::time_point processStart = Clock::now();
    Args args;
    if (!parseArgs(argc, argv, args))
        return usage();
    scrubEnvironment();
    const double setupS = args.trace ? 0.0 : setupSeconds(args);

    const Plan plan = makePlan(args.workload, args.seed, args.quick);
    Gate gate;
    Runner runner(gate);

    // Measure: passes over the units until the time is spent. A
    // traced run makes one pass, replaying each unit with spans right
    // after its untraced execution so both see the same host load.
    std::vector<std::vector<sb::RunOutcome>> outcomes(plan.units.size());
    std::vector<UnitTimes> times(plan.units.size());
    Tracer tracer(processStart);
    Tally tally;
    double tracedSeconds = 0;
    std::uint32_t cellBase = 0;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    bool deterministic = true;
    const Clock::time_point loopStart = Clock::now();
    const auto expired = [&] {
        return secondsSince(loopStart) >= args.seconds;
    };
    for (unsigned pass = 0;; ++pass) {
        for (std::size_t u = 0; u < plan.units.size(); ++u) {
            if (pass > 0 && expired())
                break;
            const Unit &unit = plan.units[u];
            times[u].probe.push_back(inChild(hostProbe));
            std::vector<sb::RunOutcome> out = runner.run(unit, times[u]);
            attempted += out.size();
            for (std::size_t i = 0; i < out.size(); ++i)
                failed += cellFailed(unit.specs[i], out[i]) ? 1 : 0;
            if (pass > 0) {
                for (std::size_t i = 0; i < out.size(); ++i)
                    deterministic &= sameOutcome(out[i], outcomes[u][i]);
                continue;
            }
            outcomes[u] = std::move(out);
            if (args.trace) {
                tracedSeconds += tracedUnit(plan, u, outcomes[u], cellBase,
                                            tracer, tally, gate);
                cellBase += static_cast<std::uint32_t>(unit.specs.size());
            }
        }
        if (args.trace || expired())
            break;
    }
    const double peakRss = peakRssMb();
    gate.require(deterministic, "a repeated cell changed its outcome");

    if (args.corruptCell >= 0) {
        std::size_t left = static_cast<std::size_t>(args.corruptCell);
        for (auto &unitOut : outcomes) {
            if (left < unitOut.size()) {
                unitOut[left].cycles += 1;
                break;
            }
            left -= unitOut.size();
        }
    }

    // Host-independent correctness gate.
    checkWorkload(plan, outcomes, gate);
    checkParityGoldens(runner.mainEngine(), gate);
    if (plan.kind == WorkloadKind::ServerMix)
        checkTenantArmed(runner.mainEngine(), gate);

    std::vector<sb::RunOutcome> flat;
    for (const auto &unitOut : outcomes)
        flat.insert(flat.end(), unitOut.begin(), unitOut.end());
    std::printf("digest %s seed=%" PRIu64 " cells=%zu %016" PRIx64 "\n",
                workloadName(plan.kind), args.seed, flat.size(),
                digestOutcomes(flat));

    // One pass at the host's nominal speed. The host shares its cores
    // with other tenants, whose load changes its speed by up to 2.4x
    // for minutes at a time; scaling each execution by the probe run
    // just before it keeps that out of the metric.
    double passSeconds = 0;
    std::vector<double> probes;
    std::uint64_t work = 0;
    std::size_t cells = 0;
    for (std::size_t u = 0; u < plan.units.size(); ++u) {
        passSeconds += normalizedSeconds(times[u]);
        probes.insert(probes.end(), times[u].probe.begin(),
                      times[u].probe.end());
        cells += plan.units[u].specs.size();
        for (std::size_t i = 0; i < outcomes[u].size(); ++i)
            work += simulatedInstructions(plan.units[u].specs[i],
                                          outcomes[u][i]);
    }

    std::vector<Metric> metrics;
    if (args.trace) {
        metrics = perLayerMetrics(plan, tracer, tally, times, passSeconds,
                                  tracedSeconds);
        if (!args.spansPath.empty() && !tracer.write(args.spansPath))
            std::fprintf(stderr, "sbbench: cannot write %s\n",
                         args.spansPath.c_str());
    } else {
        std::printf("host probe median %.6g s (nominal %.6g s)\n",
                    median(probes), probeNominalSeconds);
        metrics.push_back({"sim_mips", work / passSeconds / 1e6, "MIPS"});
        metrics.push_back({"cells_per_s", cells / passSeconds, "1/s"});
        metrics.push_back({"peak_rss_mb", peakRss, "MB"});
        metrics.push_back({"setup_s", setupS, "s"});
    }

    for (const std::string &f : gate.failed())
        std::printf("gate FAIL: %s\n", f.c_str());
    std::printf("gate %s: %s seed=%" PRIu64 ", %zu cells attempted, "
                "%zu failed\n",
                gate.passed() ? "PASS" : "FAIL", workloadName(plan.kind),
                args.seed, attempted, failed);
    // fail_frac is carried by the result's attempted/failed fields.
    std::printf("metric %-34s %.6g ratio\n", "fail_frac",
                attempted ? double(failed) / attempted : 0.0);
    printResult(gate.passed(), attempted, failed, metrics);
    return gate.passed() ? 0 : 1;
}
