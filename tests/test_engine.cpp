/**
 * @file
 * Engine / scenario-stack tests: specKey() content addressing, the
 * ExperimentEngine's dedup and bit-exact equivalence with the simple
 * runner across thread counts, the on-disk result cache round-trip,
 * the SB_JOBS policy, the JSON value type, and the scenario registry.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>

#include "common/json.hh"
#include "harness/engine.hh"
#include "harness/reporting.hh"
#include "harness/result_cache.hh"
#include "harness/scenario.hh"

namespace
{

sb::RunSpec
quickSpec(const std::string &bench, sb::Scheme scheme)
{
    sb::RunSpec s;
    s.core = sb::CoreConfig::medium();
    sb::SchemeConfig scfg;
    scfg.scheme = scheme;
    s.scheme = scfg;
    s.workload = bench;
    s.warmupInsts = 5000;
    s.measureInsts = 15000;
    return s;
}

void
expectSameOutcome(const sb::RunOutcome &a, const sb::RunOutcome &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.coreName, b.coreName);
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.transmitViolations, b.transmitViolations);
    EXPECT_EQ(a.consumeViolations, b.consumeViolations);
    EXPECT_EQ(a.stats, b.stats);
}

TEST(SpecKey, StableForIdenticalSpecs)
{
    const auto a = quickSpec("557.xz", sb::Scheme::Baseline);
    const auto b = quickSpec("557.xz", sb::Scheme::Baseline);
    EXPECT_EQ(a.canonical(), b.canonical());
    EXPECT_EQ(a.specKey(), b.specKey());
    EXPECT_EQ(a.specKey().size(), 16u);
}

TEST(SpecKey, ChangesWhenAnyFieldChanges)
{
    const auto base = quickSpec("557.xz", sb::Scheme::SttRename);
    std::set<std::string> keys{base.specKey()};

    const auto expectNew = [&keys](const sb::RunSpec &spec) {
        EXPECT_TRUE(keys.insert(spec.specKey()).second)
            << "key collision for " << spec.canonical();
    };

    auto s = base;
    s.core.name = "renamed";
    expectNew(s);
    s = base;
    s.core.fetchWidth += 1;
    expectNew(s);
    s = base;
    s.core.coreWidth += 1;
    expectNew(s);
    s = base;
    s.core.issueWidth += 1;
    expectNew(s);
    s = base;
    s.core.memPorts += 1;
    expectNew(s);
    s = base;
    s.core.robEntries += 1;
    expectNew(s);
    s = base;
    s.core.iqEntries += 1;
    expectNew(s);
    s = base;
    s.core.numPhysRegs += 1;
    expectNew(s);
    s = base;
    s.core.maxBranches += 1;
    expectNew(s);
    s = base;
    s.core.aluLatency += 1;
    expectNew(s);
    s = base;
    s.core.l1d.sizeBytes *= 2;
    expectNew(s);
    s = base;
    s.core.l1d.latency += 1;
    expectNew(s);
    s = base;
    s.core.l1d.stridePrefetcher = !s.core.l1d.stridePrefetcher;
    expectNew(s);
    s = base;
    s.core.l2.latency += 1;
    expectNew(s);
    s = base;
    s.core.memLatency += 1;
    expectNew(s);
    s = base;
    s.core.speculativeScheduling = !s.core.speculativeScheduling;
    expectNew(s);
    s = base;
    s.core.frontendStages += 1;
    expectNew(s);
    s = base;
    s.scheme.scheme = sb::Scheme::SttIssue;
    expectNew(s);
    s = base;
    s.scheme.twoTaintStores = !s.scheme.twoTaintStores;
    expectNew(s);
    s = base;
    s.scheme.ndaKeepSpeculativeScheduling =
        !s.scheme.ndaKeepSpeculativeScheduling;
    expectNew(s);
    s = base;
    s.workload = "541.leela";
    expectNew(s);
    s = base;
    s.warmupInsts += 1;
    expectNew(s);
    s = base;
    s.measureInsts += 1;
    expectNew(s);
    s = base;
    s.maxCycles += 1;
    expectNew(s);
}

TEST(ResolveJobs, ExplicitThenEnvThenHardware)
{
    EXPECT_EQ(sb::resolveJobs(5), 5u);

    ::setenv("SB_JOBS", "3", 1);
    EXPECT_EQ(sb::resolveJobs(0), 3u);
    EXPECT_EQ(sb::resolveJobs(2), 2u); // Explicit beats the env var.

    // Malformed values fall through to the hardware default; the
    // numeric prefix is large enough that a buggy partial parse
    // could not be mistaken for any real hardware concurrency.
    ::unsetenv("SB_JOBS");
    const unsigned hw = sb::resolveJobs(0);
    for (const char *bad : {"1000000;", "1000000 8", "abc", "-2", "0",
                            "4294967296", "99999999999999999999"}) {
        ::setenv("SB_JOBS", bad, 1);
        EXPECT_EQ(sb::resolveJobs(0), hw) << bad;
    }

    ::unsetenv("SB_JOBS");
    EXPECT_GE(sb::resolveJobs(0), 1u);
}

sb::ExperimentEngine::Options
engineOpts(unsigned jobs, std::string cacheDir = "")
{
    sb::ExperimentEngine::Options options;
    options.jobs = jobs;
    options.cacheDir = std::move(cacheDir);
    return options;
}

TEST(Engine, MatchesRunnerBitExact)
{
    const auto spec = quickSpec("557.xz", sb::Scheme::SttIssue);
    const auto direct = sb::ExperimentRunner::runOne(spec);

    sb::ExperimentEngine engine(engineOpts(2));
    const auto got = engine.run({spec});
    ASSERT_EQ(got.size(), 1u);
    expectSameOutcome(got[0], direct);
}

TEST(Engine, DedupsIdenticalSpecsInBatch)
{
    const auto a = quickSpec("557.xz", sb::Scheme::Baseline);
    const auto b = quickSpec("541.leela", sb::Scheme::Baseline);

    sb::ExperimentEngine engine(engineOpts(2));
    const auto got = engine.run({a, b, a, a});
    ASSERT_EQ(got.size(), 4u);
    EXPECT_EQ(engine.stats().requested, 4u);
    EXPECT_EQ(engine.stats().simulated, 2u);
    EXPECT_EQ(engine.stats().dedupHits, 2u);
    EXPECT_EQ(engine.stats().cacheHits, 0u);
    expectSameOutcome(got[0], got[2]);
    expectSameOutcome(got[0], got[3]);
    EXPECT_EQ(got[1].workload, "541.leela");
}

TEST(Engine, ThreadCountIndependent)
{
    std::vector<sb::RunSpec> specs;
    for (const char *b : {"557.xz", "541.leela", "503.bwaves"})
        specs.push_back(quickSpec(b, sb::Scheme::Nda));

    sb::ExperimentEngine serial(engineOpts(1));
    sb::ExperimentEngine parallel(engineOpts(4));
    const auto rs = serial.run(specs);
    const auto rp = parallel.run(specs);
    ASSERT_EQ(rs.size(), rp.size());
    for (std::size_t i = 0; i < rs.size(); ++i)
        expectSameOutcome(rs[i], rp[i]);
}

TEST(Engine, SharedImagesThreadCountIndependent)
{
    // The pointer-chase stand-ins carry the two largest memory
    // images. Four workers race on the SpecSuite memo and write into
    // overlays over one shared base; the parallel run goes first so
    // it is the one that fills the memo, and it must match a serial
    // run bit for bit.
    std::vector<sb::RunSpec> specs;
    for (const char *b : {"505.mcf", "520.omnetpp"}) {
        for (sb::Scheme s : {sb::Scheme::Baseline, sb::Scheme::SttRename,
                             sb::Scheme::Nda, sb::Scheme::DelayOnMiss})
            specs.push_back(quickSpec(b, s));
    }
    sb::ExperimentEngine parallel(engineOpts(4));
    sb::ExperimentEngine serial(engineOpts(1));
    const auto rp = parallel.run(specs);
    const auto rs = serial.run(specs);
    ASSERT_EQ(rs.size(), rp.size());
    for (std::size_t i = 0; i < rs.size(); ++i)
        expectSameOutcome(rs[i], rp[i]);
}

TEST(Engine, CacheRoundTripIsBitExact)
{
    const std::string dir =
        (std::filesystem::path(::testing::TempDir())
         / "sb_cache_roundtrip")
            .string();
    std::filesystem::remove_all(dir);

    std::vector<sb::RunSpec> specs = {
        quickSpec("557.xz", sb::Scheme::SttRename),
        quickSpec("503.bwaves", sb::Scheme::Baseline),
    };

    std::vector<sb::RunOutcome> cold;
    {
        sb::ExperimentEngine engine(engineOpts(2, dir));
        cold = engine.run(specs);
        EXPECT_EQ(engine.stats().simulated, 2u);
        EXPECT_EQ(engine.stats().cacheHits, 0u);
        ASSERT_NE(engine.cache(), nullptr);
        EXPECT_EQ(engine.cache()->size(), 2u);
    }

    // A fresh engine over the same directory must serve everything
    // from disk, bit-identically — including every counter.
    sb::ExperimentEngine warm(engineOpts(2, dir));
    const auto cached = warm.run(specs);
    EXPECT_EQ(warm.stats().simulated, 0u);
    EXPECT_EQ(warm.stats().cacheHits, 2u);
    ASSERT_EQ(cached.size(), cold.size());
    for (std::size_t i = 0; i < cold.size(); ++i)
        expectSameOutcome(cached[i], cold[i]);

    std::filesystem::remove_all(dir);
}

TEST(Engine, MismatchedCacheEntryIsReSimulated)
{
    const std::string dir = (std::filesystem::path(::testing::TempDir())
                             / "sb_cache_mismatch")
                                .string();
    std::filesystem::remove_all(dir);

    const auto spec = quickSpec("557.xz", sb::Scheme::Baseline);
    {
        // Poison the spec's cache address with another cell's
        // outcome, as a cross-process key collision would.
        sb::ResultCache cache(dir);
        sb::RunOutcome wrong;
        wrong.workload = "541.leela";
        wrong.coreName = spec.core.name;
        wrong.scheme = spec.scheme.scheme;
        wrong.cycles = 1;
        wrong.instructions = 1;
        cache.store(spec.specKey(), wrong);
    }

    std::vector<sb::RunOutcome> fresh;
    {
        sb::ExperimentEngine engine(engineOpts(2, dir));
        fresh = engine.run({spec});
        ASSERT_EQ(fresh.size(), 1u);
        EXPECT_EQ(engine.stats().cacheHits, 0u);
        EXPECT_EQ(engine.stats().simulated, 1u);
        EXPECT_EQ(fresh[0].workload, "557.xz");
        expectSameOutcome(fresh[0], sb::ExperimentRunner::runOne(spec));
    }

    // The fresh result overwrote the poisoned entry (last line wins),
    // so the bad entry self-heals instead of re-simulating forever.
    sb::ExperimentEngine healed(engineOpts(2, dir));
    const auto again = healed.run({spec});
    EXPECT_EQ(healed.stats().cacheHits, 1u);
    EXPECT_EQ(healed.stats().simulated, 0u);
    expectSameOutcome(again[0], fresh[0]);
    std::filesystem::remove_all(dir);
}

TEST(Engine, UnusableCacheDirDegradesToUncached)
{
    // A regular file where the cache directory should go: the cache
    // warns and disables itself, and the engine still runs.
    const std::string blocker =
        (std::filesystem::path(::testing::TempDir()) / "sb_cache_file")
            .string();
    std::filesystem::remove_all(blocker);
    {
        std::ofstream f(blocker);
        f << "not a directory\n";
    }
    sb::ExperimentEngine engine(engineOpts(2, blocker + "/sub"));
    EXPECT_EQ(engine.cache(), nullptr);
    const auto got =
        engine.run({quickSpec("503.bwaves", sb::Scheme::Baseline)});
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(engine.stats().simulated, 1u);
    std::filesystem::remove_all(blocker);
}

TEST(Engine, RepeatedRunIsDeterministic)
{
    const auto spec = quickSpec("520.omnetpp", sb::Scheme::SttRename);
    sb::ExperimentEngine engine(engineOpts(2));
    const auto first = engine.run({spec});
    const auto second = engine.run({spec});
    ASSERT_EQ(first.size(), 1u);
    ASSERT_EQ(second.size(), 1u);
    expectSameOutcome(first[0], second[0]);
}

TEST(ResultCache, SkipsCorruptLines)
{
    const std::string dir = (std::filesystem::path(::testing::TempDir())
                             / "sb_cache_corrupt")
                                .string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    {
        std::FILE *f = std::fopen(
            (std::filesystem::path(dir) / "results.jsonl").c_str(),
            "w");
        ASSERT_NE(f, nullptr);
        std::fprintf(f, "this is not json\n{\"key\": 42}\n");
        std::fclose(f);
    }
    sb::ResultCache cache(dir);
    EXPECT_EQ(cache.size(), 0u);

    sb::RunOutcome out;
    out.workload = "w";
    out.coreName = "c";
    out.cycles = 10;
    out.instructions = 20;
    out.stats["committed_insts"] = 20;
    cache.store("k1", out);
    sb::RunOutcome back;
    ASSERT_TRUE(cache.lookup("k1", back));
    EXPECT_EQ(back.cycles, 10u);
    EXPECT_FALSE(cache.lookup("k2", back));
    std::filesystem::remove_all(dir);
}

TEST(Json, BuildDumpParseRoundTrip)
{
    sb::Json obj = sb::Json::object();
    obj.set("name", sb::Json::str("mega \"quoted\"\n"));
    obj.set("count", sb::Json::num(std::uint64_t(18446744073709551615ull)));
    obj.set("ratio", sb::Json::num(0.25));
    obj.set("flag", sb::Json::boolean(true));
    sb::Json arr = sb::Json::array();
    arr.push(sb::Json::num(std::uint64_t(1)));
    arr.push(sb::Json());
    obj.set("items", std::move(arr));

    sb::Json parsed;
    std::string err;
    ASSERT_TRUE(sb::Json::parse(obj.dump(), parsed, &err)) << err;
    EXPECT_EQ(parsed.at("name").asString(), "mega \"quoted\"\n");
    EXPECT_EQ(parsed.at("count").asUint(), 18446744073709551615ull);
    EXPECT_DOUBLE_EQ(parsed.at("ratio").asDouble(), 0.25);
    EXPECT_TRUE(parsed.at("flag").asBool());
    ASSERT_EQ(parsed.at("items").items().size(), 2u);
    EXPECT_EQ(parsed.at("items").items()[0].asUint(), 1u);
    EXPECT_TRUE(parsed.at("items").items()[1].isNull());
}

TEST(Json, RejectsMalformedInput)
{
    sb::Json out;
    EXPECT_FALSE(sb::Json::parse("{", out));
    EXPECT_FALSE(sb::Json::parse("{\"a\": }", out));
    EXPECT_FALSE(sb::Json::parse("[1, 2", out));
    EXPECT_FALSE(sb::Json::parse("\"unterminated", out));
    EXPECT_FALSE(sb::Json::parse("{} trailing", out));
    // Out-of-range integers must be rejected, not clamped: a
    // corrupted cache line with extra digits has to load as a miss,
    // never as a wrong result.
    EXPECT_FALSE(sb::Json::parse("99999999999999999999999", out));
    // Unbounded nesting must fail cleanly, not overflow the stack.
    const std::string deep(100000, '[');
    EXPECT_FALSE(sb::Json::parse(deep, out));
    EXPECT_TRUE(sb::Json::parse(" { } ", out));
}

TEST(OutcomeJson, RoundTripsEveryCounter)
{
    const auto direct = sb::ExperimentRunner::runOne(
        quickSpec("548.exchange2", sb::Scheme::SttRename));
    ASSERT_FALSE(direct.stats.empty());

    sb::Json parsed;
    ASSERT_TRUE(sb::Json::parse(sb::toJson(direct).dump(), parsed));
    sb::RunOutcome back;
    ASSERT_TRUE(sb::outcomeFromJson(parsed, back));
    EXPECT_EQ(back.workload, direct.workload);
    EXPECT_EQ(back.coreName, direct.coreName);
    EXPECT_EQ(back.scheme, direct.scheme);
    EXPECT_EQ(back.cycles, direct.cycles);
    EXPECT_EQ(back.instructions, direct.instructions);
    EXPECT_DOUBLE_EQ(back.ipc, direct.ipc);
    EXPECT_EQ(back.stats, direct.stats);

    sb::RunOutcome ignored;
    EXPECT_FALSE(sb::outcomeFromJson(sb::Json(), ignored));
    EXPECT_FALSE(sb::outcomeFromJson(sb::Json::object(), ignored));
}

TEST(AggregateJson, SerializesEveryField)
{
    sb::SuiteAggregate agg;
    agg.coreName = "mega";
    agg.scheme = sb::Scheme::SttIssue;
    agg.meanIpc = 1.25;
    agg.perBench["557.xz"] = 0.5;
    agg.perBench["541.leela"] = 2.0;

    sb::Json parsed;
    ASSERT_TRUE(sb::Json::parse(sb::toJson(agg).dump(), parsed));
    EXPECT_EQ(parsed.at("core").asString(), "mega");
    EXPECT_EQ(parsed.at("scheme").asString(), "STT-Issue");
    EXPECT_DOUBLE_EQ(parsed.at("mean_ipc").asDouble(), 1.25);
    const auto &per_bench = parsed.at("per_bench").fields();
    ASSERT_EQ(per_bench.size(), 2u);
    EXPECT_DOUBLE_EQ(per_bench.at("557.xz").asDouble(), 0.5);
    EXPECT_DOUBLE_EQ(per_bench.at("541.leela").asDouble(), 2.0);
}

TEST(Registry, PaperScenariosRegistered)
{
    const auto &registry = sb::ScenarioRegistry::instance();
    for (const char *name :
         {"table1", "fig1", "fig6", "fig7", "fig8", "fig9", "fig10",
          "table3", "table4", "table5", "ablation_l1hit",
          "ablation_stores"}) {
        const sb::Scenario *s = registry.find(name);
        ASSERT_NE(s, nullptr) << name;
        EXPECT_EQ(s->name, name);
        EXPECT_FALSE(s->title.empty());
    }
    EXPECT_EQ(registry.find("nope"), nullptr);
    EXPECT_GE(registry.names().size(), 12u);
}

TEST(Registry, GridCellsOverlapAcrossScenarios)
{
    // The structural basis of the >= 25% dedup claim: fig1, fig7,
    // fig8 and table3 request exactly the same cells, and fig10's
    // baseline sweep is a subset of them.
    const auto &registry = sb::ScenarioRegistry::instance();
    const auto keySet = [&registry](const char *name) {
        std::set<std::string> keys;
        for (const auto &spec : registry.find(name)->specs())
            keys.insert(spec.specKey());
        return keys;
    };

    const auto fig1 = keySet("fig1");
    EXPECT_EQ(fig1, keySet("fig7"));
    EXPECT_EQ(fig1, keySet("fig8"));
    EXPECT_EQ(fig1, keySet("table3"));

    for (const auto &key : keySet("fig10"))
        EXPECT_TRUE(fig1.count(key)) << "fig10 cell not in fig1";

    // Model-only scenarios request no cells.
    EXPECT_TRUE(registry.find("fig9")->specs().empty());
    EXPECT_TRUE(registry.find("table4")->specs().empty());
}

} // anonymous namespace
