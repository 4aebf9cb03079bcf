#include "traced.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>

#include "common/hash.hh"
#include "core/core.hh"
#include "harness/conformance.hh"
#include "harness/result_cache.hh"
#include "harness/tenant.hh"
#include "harness/verify.hh"
#include "isa/generator.hh"
#include "isa/transform.hh"
#include "secure/factory.hh"
#include "trace/server_mix.hh"
#include "trace/spec_suite.hh"

namespace sbbench
{

std::uint32_t
Tracer::begin(const char *name, std::uint32_t cell)
{
    const std::uint32_t parent = open.empty() ? 0 : open.back();
    spans.push_back(Span{name, parent, cell, now(), 0.0});
    const auto id = static_cast<std::uint32_t>(spans.size());
    open.push_back(id);
    return id;
}

double
Tracer::end(std::uint32_t id)
{
    Span &span = spans[id - 1];
    span.end = now();
    open.pop_back();
    return span.end - span.start;
}

double
Tracer::now() const
{
    return std::chrono::duration<double>(Clock::now() - origin).count();
}

double
Tracer::total(const std::string &name) const
{
    double sum = 0;
    for (const auto &d : durations(name))
        sum += d.second;
    return sum;
}

std::vector<std::pair<std::uint32_t, double>>
Tracer::durations(const std::string &name) const
{
    std::vector<std::pair<std::uint32_t, double>> out;
    for (const Span &s : spans)
        if (name == s.name)
            out.emplace_back(s.cell, s.end - s.start);
    return out;
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream f(path);
    f << "[";
    char buf[256];
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::snprintf(buf, sizeof buf,
                      "%s\n{\"id\":%zu,\"parent\":%u,\"cell\":%u,"
                      "\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f}",
                      i ? "," : "", i + 1, s.parent, s.cell, s.name,
                      s.start, s.end);
        f << buf;
    }
    f << "\n]\n";
    return static_cast<bool>(f);
}

namespace
{

struct Replay
{
    Tracer &tracer;
    Tally &tally;
    std::uint32_t cell = 0;

    std::unique_ptr<sb::Core>
    construct(const sb::RunSpec &spec, const sb::Program &program)
    {
        std::unique_ptr<sb::SecureScheme> scheme;
        {
            Scoped s(tracer, "secure.make_scheme", cell);
            scheme = sb::makeScheme(spec.scheme);
        }
        Scoped s(tracer, "core.ctor", cell);
        return std::make_unique<sb::Core>(spec.core, spec.scheme,
                                          std::move(scheme), program);
    }

    /** Core::run under a span, billed to the scheme's host time. */
    sb::RunResult
    run(sb::Core &core, const char *span, std::uint64_t insts,
        std::uint64_t max_cycles)
    {
        const std::uint32_t id = tracer.begin(span, cell);
        const sb::RunResult r = core.run(insts, max_cycles);
        tally.perScheme[core.schemeConfig().scheme].runSeconds +=
            tracer.end(id);
        return r;
    }

    /** Fold a finished core's totals and stats window into the tally. */
    void
    account(sb::Core &core, std::uint64_t window_cycles,
            std::uint64_t window_insts)
    {
        Tally::PerScheme &ps = tally.perScheme[core.schemeConfig().scheme];
        ps.cycles += core.now();
        ps.windowCycles += window_cycles;
        ps.windowInsts += window_insts;
        tally.cycles += core.now();
        tally.instructions += core.committedInstructions();
        for (const auto &kv : core.stats().counters())
            tally.counters[kv.first] += kv.second.value();
    }

    /** ExperimentRunner::runOne's windowed path, call by call. */
    sb::RunOutcome
    windowed(const sb::RunSpec &spec)
    {
        sb::Workload workload;
        {
            Scoped s(tracer, "trace.spec_make", cell);
            workload = sb::SpecSuite::make(spec.workload);
        }
        ++tally.specMakeCalls;
        tally.specPrograms.insert(spec.workload);
        sb::TransformedProgram transformed;
        {
            Scoped s(tracer, "isa.transform", cell);
            transformed =
                sb::applyMitigation(spec.mitigation.kind, workload.program);
        }
        const std::unique_ptr<sb::Core> core =
            construct(spec, transformed.program);
        std::uint64_t useful = 0;
        if (spec.mitigation.enabled()) {
            core->setCommitHook([&](const sb::DynInst &inst, sb::Cycle) {
                if (transformed.origin(inst.pc) >= 0)
                    ++useful;
            });
        }

        run(*core, "core.warmup", spec.warmupInsts, spec.maxCycles);
        core->stats().reset();
        const sb::Cycle cycles0 = core->now();
        const std::uint64_t insts0 = core->committedInstructions();
        const std::uint64_t useful0 = useful;
        run(*core, "core.measure", spec.measureInsts, spec.maxCycles);

        sb::RunOutcome out;
        out.workload = spec.workload;
        out.coreName = spec.core.name;
        out.scheme = spec.scheme.scheme;
        out.cycles = core->now() - cycles0;
        out.instructions = core->committedInstructions() - insts0;
        out.ipc = out.cycles == 0
                      ? 0.0
                      : static_cast<double>(out.instructions)
                            / static_cast<double>(out.cycles);
        out.transmitViolations = core->monitor().transmitViolations();
        out.consumeViolations = core->monitor().consumeViolations();
        for (const auto &kv : core->stats().counters())
            out.stats[kv.first] = kv.second.value();
        if (spec.mitigation.enabled())
            out.stats["useful_instructions"] = useful - useful0;
        if (core->watchdogTripped())
            out.stats["watchdog_tripped"] = 1;
        account(*core, out.cycles, out.instructions);
        return out;
    }

    /** runFuzzCell + runConformanceCell, call by call. */
    sb::RunOutcome
    fuzz(const sb::RunSpec &spec)
    {
        sb::GeneratorParams gen;
        if (!sb::parseFuzzWorkload(spec.workload, gen.profile, gen.seed,
                                   gen.outerIterations))
            return sb::RunOutcome{};
        sb::Program program;
        {
            Scoped s(tracer, "isa.generate", cell);
            program = sb::generateProgram(gen);
        }
        sb::TransformedProgram mitigated;
        const bool transform = spec.mitigation.enabled();
        if (transform) {
            Scoped s(tracer, "isa.transform", cell);
            mitigated = sb::applyMitigation(spec.mitigation.kind, program);
        }
        const std::unique_ptr<sb::Core> core =
            construct(spec, transform ? mitigated.program : program);
        core->setInvariantsEnabled(true);
        core->setContractShadowEnabled(true);
        core->setSoftWatchdog(100000);
        std::uint64_t commit_hash = sb::fnv1aBasis;
        std::uint64_t useful = 0;
        core->setCommitHook([&](const sb::DynInst &inst, sb::Cycle) {
            std::int64_t opc = inst.pc;
            if (transform) {
                opc = mitigated.origin(inst.pc);
                if (opc < 0)
                    return;
            }
            commit_hash =
                sb::fnv1aWord(commit_hash, static_cast<std::uint64_t>(opc));
            ++useful;
        });
        const sb::RunResult r =
            run(*core, "core.measure",
                std::numeric_limits<std::uint64_t>::max() / 2,
                spec.maxCycles);

        sb::RunOutcome out;
        out.workload = spec.workload;
        out.coreName = spec.core.name;
        out.scheme = spec.scheme.scheme;
        out.cycles = r.cycles;
        out.instructions = transform ? useful : r.instructions;
        out.ipc = out.cycles == 0
                      ? 0.0
                      : static_cast<double>(out.instructions)
                            / static_cast<double>(out.cycles);
        out.transmitViolations = core->monitor().transmitViolations();
        out.consumeViolations = core->monitor().consumeViolations();
        std::uint64_t reg_hash = sb::fnv1aBasis;
        for (sb::ArchReg reg = 0; reg < sb::numArchRegs; ++reg)
            reg_hash = sb::fnv1aWord(reg_hash, core->readArchReg(reg));
        const sb::ContractShadow &shadow = core->contractShadow();
        const sb::ContractViolation &first = shadow.firstSandboxViolation();
        out.stats["fuzz_reg_hash"] = reg_hash;
        out.stats["fuzz_mem_hash"] = core->memoryImage().fingerprint();
        out.stats["fuzz_commit_hash"] = commit_hash;
        out.stats["fuzz_halted"] = r.halted ? 1 : 0;
        out.stats["fuzz_watchdog"] = r.watchdogTripped ? 1 : 0;
        out.stats["fuzz_invariant_violations"] =
            core->invariants().violations();
        out.stats["fuzz_sandbox_viol"] = shadow.sandboxViolations();
        out.stats["fuzz_ct_viol"] = shadow.ctViolations();
        out.stats["fuzz_first_sandbox_cycle"] =
            first.valid() ? first.cycle : 0;
        out.stats["fuzz_first_sandbox_pc"] = first.valid() ? first.pc : 0;
        account(*core, r.cycles, r.instructions);
        return out;
    }

    /** runServerMixCell, call by call. Returns whether the replay
     *  matches @p engine on everything but the latency histogram
     *  (the commit hook that samples it does not touch timing). */
    bool
    tenant(const sb::RunSpec &spec, const sb::RunOutcome &engine)
    {
        sb::ServerMixParams params;
        if (!sb::parseTenantWorkload(spec.workload, params))
            return false;
        sb::ServerMixProgram mix;
        {
            Scoped s(tracer, "trace.server_mix", cell);
            mix = sb::buildServerMix(params);
        }
        const std::unique_ptr<sb::Core> core = construct(spec, mix.program);
        core->setContractShadowEnabled(true);
        const sb::RunResult r = run(*core, "core.measure",
                                    100'000'000'000ULL, spec.maxCycles);
        account(*core, r.cycles, r.instructions);
        return r.cycles == engine.cycles
               && r.instructions == engine.instructions
               && r.ipc() == engine.ipc
               && core->monitor().transmitViolations()
                      == engine.transmitViolations
               && core->monitor().consumeViolations()
                      == engine.consumeViolations
               && core->contextSwitchCount()
                      == engine.stat("mt_context_switches")
               && core->contractShadow().crossTenantViolations()
                      == engine.stat("mt_cross_viol")
               && (r.halted ? 1u : 0u) == engine.stat("mt_halted");
    }
};

} // anonymous namespace

double
tracedUnit(const Plan &plan, std::size_t u,
           const std::vector<sb::RunOutcome> &want, std::uint32_t first_cell,
           Tracer &tracer, Tally &tally, Gate &gate)
{
    const Clock::time_point t0 = Clock::now();
    const Unit &unit = plan.units[u];
    Replay replay{tracer, tally, first_cell};
    for (std::size_t i = 0; i < unit.specs.size(); ++i, ++replay.cell) {
        const sb::RunSpec &spec = unit.specs[i];
        {
            Scoped s(tracer, "harness.speckey", replay.cell);
            spec.specKey();
        }
        Scoped cellSpan(tracer, "harness.cell", replay.cell);
        bool same = false;
        switch (familyOf(spec)) {
          case Family::Windowed:
            same = sameOutcome(replay.windowed(spec), want[i]);
            break;
          case Family::Fuzz:
            same = sameOutcome(replay.fuzz(spec), want[i]);
            break;
          case Family::Tenant:
            same = replay.tenant(spec, want[i]);
            break;
          case Family::Gadget:
            same = sameOutcome(sb::runGadgetCell(spec), want[i]);
            break;
        }
        gate.require(same, "traced replay of " + spec.workload + " ("
                               + sb::schemeName(spec.scheme.scheme) + "/"
                               + spec.core.name + ") differs from the engine");
    }

    if (unit.cacheRoundTrip) {
        // The engine's cache traffic for this unit, call by call.
        const std::string dir = "traced-cache-" + std::to_string(u);
        sb::ResultCache cache(dir);
        std::vector<std::string> keys;
        for (const sb::RunSpec &spec : unit.specs)
            keys.push_back(spec.specKey());
        for (std::size_t i = 0; i < unit.specs.size(); ++i) {
            Scoped s(tracer, "harness.cache_write", first_cell + i);
            cache.store(keys[i], want[i]);
        }
        for (std::size_t i = 0; i < unit.specs.size(); ++i) {
            sb::RunOutcome back;
            bool hit = false;
            {
                Scoped s(tracer, "harness.cache_read", first_cell + i);
                hit = cache.lookup(keys[i], back);
            }
            gate.require(hit && sameOutcome(back, want[i]),
                         "result-cache round trip changed "
                             + unit.specs[i].workload);
        }
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }

    if (unit.verdict != Verdict::None) {
        Gate unused;
        Scoped s(tracer, "harness.fold", first_cell);
        checkVerdict(unit, want, unused);
    }
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

} // namespace sbbench
