/**
 * @file
 * Unit tests for src/common: RNG, statistics, configurations, and
 * table rendering.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>
#include <vector>

#include "common/config.hh"
#include "common/ring.hh"
#include "common/types.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"

namespace
{

TEST(Rng, DeterministicAcrossInstances)
{
    sb::Rng a(42);
    sb::Rng b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    sb::Rng a(1);
    sb::Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Rng, BelowStaysInBounds)
{
    sb::Rng rng(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, BelowOneIsAlwaysZero)
{
    sb::Rng rng(9);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeInclusive)
{
    sb::Rng rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i) {
        const auto v = rng.range(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 3u);
}

TEST(Rng, UniformInUnitInterval)
{
    sb::Rng rng(13);
    double sum = 0.0;
    const int n = 10000;
    for (int i = 0; i < n; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    sb::Rng rng(17);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, GeometricMeanRoughlyMatches)
{
    sb::Rng rng(19);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.geometric(4.0);
    EXPECT_NEAR(sum / n, 4.0, 0.25);
}

TEST(Ring, MatchesDequeThroughWrapAndGrowth)
{
    // Drive a Ring and a std::deque through the same pushes and pops
    // at both ends, so the ring wraps its head and grows while
    // wrapped, and compare contents both ways round after each step.
    sb::Ring<int> ring;
    std::deque<int> ref;
    sb::Rng rng(7);
    int next = 0;
    for (int step = 0; step < 2000; ++step) {
        const std::uint64_t action = rng.below(8);
        if (action < 5 || ref.empty()) {
            ring.push_back(next);
            ref.push_back(next);
            ++next;
        } else if (action < 7) {
            ring.pop_front();
            ref.pop_front();
        } else {
            ring.pop_back();
            ref.pop_back();
        }
        ASSERT_EQ(ring.size(), ref.size());
        ASSERT_TRUE(std::equal(ring.begin(), ring.end(), ref.begin()));
        ASSERT_TRUE(
            std::equal(ring.rbegin(), ring.rend(), ref.rbegin()));
        if (!ref.empty()) {
            ASSERT_EQ(ring.front(), ref.front());
            ASSERT_EQ(ring.back(), ref.back());
        }
    }
    ring.clear();
    EXPECT_TRUE(ring.empty());
    ring.push_back(42);
    EXPECT_EQ(ring.front(), 42);
}

TEST(Stats, CounterBasics)
{
    sb::Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 5;
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, HistogramBuckets)
{
    sb::Histogram h(4, 10);
    h.sample(0);
    h.sample(9);
    h.sample(10);
    h.sample(35);
    h.sample(1000); // Overflow -> last bucket.
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(3), 2u);
    EXPECT_DOUBLE_EQ(h.mean(), (0 + 9 + 10 + 35 + 1000) / 5.0);
}

TEST(Stats, HistogramQuantiles)
{
    // Unit-width buckets make quantiles exact: samples 1..100 pin the
    // tail-latency extraction the multi-tenant report relies on.
    sb::Histogram h(128, 1);
    for (std::uint64_t v = 1; v <= 100; ++v)
        h.sample(v);
    EXPECT_EQ(h.quantile(0.50), 50u);
    EXPECT_EQ(h.quantile(0.95), 95u);
    EXPECT_EQ(h.quantile(0.99), 99u);
    EXPECT_EQ(h.quantile(0.0), 1u);
    EXPECT_EQ(h.quantile(1.0), 100u);

    // Wider buckets report the bucket's upper edge (an upper bound).
    sb::Histogram w(16, 10);
    for (std::uint64_t v = 1; v <= 100; ++v)
        w.sample(v);
    EXPECT_EQ(w.quantile(0.50), 59u);

    // The overflow bucket has no upper edge: it reports the largest
    // sample seen instead.
    sb::Histogram o(4, 10);
    o.sample(5);
    o.sample(500);
    EXPECT_EQ(o.quantile(1.0), 500u);

    sb::Histogram empty(4, 10);
    EXPECT_EQ(empty.quantile(0.5), 0u);
}

TEST(Stats, GroupRegistersAndRenders)
{
    sb::StatGroup g("core");
    ++g.counter("commits");
    g.counter("commits") += 2;
    EXPECT_EQ(g.value("commits"), 3u);
    EXPECT_EQ(g.value("missing"), 0u);
    const std::string out = g.render();
    EXPECT_NE(out.find("core.commits 3"), std::string::npos);
    g.reset();
    EXPECT_EQ(g.value("commits"), 0u);
}

TEST(Config, PresetWidthsMatchTable1)
{
    const auto presets = sb::CoreConfig::boomPresets();
    ASSERT_EQ(presets.size(), 4u);
    EXPECT_EQ(presets[0].coreWidth, 1u);
    EXPECT_EQ(presets[1].coreWidth, 2u);
    EXPECT_EQ(presets[2].coreWidth, 3u);
    EXPECT_EQ(presets[3].coreWidth, 4u);
    EXPECT_EQ(presets[0].robEntries, 32u);
    EXPECT_EQ(presets[1].robEntries, 64u);
    EXPECT_EQ(presets[2].robEntries, 96u);
    EXPECT_EQ(presets[3].robEntries, 128u);
    EXPECT_EQ(presets[3].memPorts, 2u);
}

TEST(Config, PresetsAreInternallyConsistent)
{
    for (const auto &cfg : sb::CoreConfig::boomPresets()) {
        EXPECT_GT(cfg.numPhysRegs, sb::numArchRegs) << cfg.name;
        EXPECT_GE(cfg.fetchWidth, cfg.coreWidth) << cfg.name;
        EXPECT_GE(cfg.robEntries,
                  cfg.ldqEntries) << cfg.name;
        EXPECT_GE(cfg.iqEntries, 2 * cfg.coreWidth) << cfg.name;
    }
}

TEST(Config, Gem5ConfigsDifferAsDescribed)
{
    const auto stt = sb::CoreConfig::gem5Stt();
    const auto nda = sb::CoreConfig::gem5Nda();
    // Sec. 9.5: the original STT evaluation used a single-cycle L1.
    EXPECT_EQ(stt.l1d.latency, 1u);
    EXPECT_GT(nda.l1d.latency, stt.l1d.latency);
    EXPECT_GT(stt.robEntries, nda.robEntries);
}

TEST(Config, SchemeNamesMatchPaperLabels)
{
    EXPECT_STREQ(sb::schemeName(sb::Scheme::SttRename), "STT-Rename");
    EXPECT_STREQ(sb::schemeName(sb::Scheme::SttIssue), "STT-Issue");
    EXPECT_STREQ(sb::schemeName(sb::Scheme::Nda), "NDA");
    EXPECT_EQ(sb::paperSchemes().size(), 3u);
}

TEST(Table, RendersAlignedCells)
{
    sb::TextTable t;
    t.header({"a", "bb"});
    t.row({"1", "2"});
    const std::string out = t.render();
    EXPECT_NE(out.find("| a"), std::string::npos);
    EXPECT_NE(out.find("| 1"), std::string::npos);
}

TEST(Table, NumberFormatting)
{
    EXPECT_EQ(sb::TextTable::num(1.23456, 2), "1.23");
    EXPECT_EQ(sb::TextTable::pct(0.5, 1), "50.0%");
}

} // anonymous namespace
