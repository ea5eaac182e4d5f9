/**
 * @file
 * Determinism tests for the simulator perf counters (sim/perf.hh,
 * DESIGN.md §13): for a pinned spec the counts are exact constants,
 * identical at every thread count and SIMD dispatch tag, and cells
 * replayed from stage-cache collection chunks report zero because the
 * counters measure work performed, exactly like cpuSeconds.
 */

#include <gtest/gtest.h>

#include <filesystem>

#include "base/simd.hh"
#include "base/thread_pool.hh"
#include "core/collector.hh"
#include "core/pipeline.hh"
#include "web/catalog.hh"

namespace bigfish::core {
namespace {

/** The pinned spec: every expected count below belongs to exactly this
 *  configuration. Touching any field invalidates the constants. */
CollectionConfig
pinnedConfig()
{
    CollectionConfig config;
    config.seed = 2022;
    config.browser.traceDuration = 2 * kSec;
    return config;
}

constexpr int kSites = 3;
constexpr int kRuns = 2;
constexpr std::uint64_t kCatalogSeed = 7;

/** One full closed-world sweep of the pinned spec, counters out. */
sim::PerfCounters
sweepCounters()
{
    const CollectionConfig config = pinnedConfig();
    const TraceCollector collector(config);
    const web::SiteCatalog catalog(kSites, kCatalogSeed);
    const attack::AttackerKind attackers[] = {config.attacker};
    sim::PerfCounters perf;
    std::vector<CollectionStats> stats;
    const auto sets = collector.collectClosedWorldMulti(
        catalog, kRuns, attackers, &stats, &perf);
    EXPECT_TRUE(sets.isOk()) << sets.status().message();
    return perf;
}

/** Restores the dispatch Tag a test swept away from. */
class TagGuard
{
  public:
    TagGuard() : saved_(simd::active()) {}
    ~TagGuard() { simd::setActive(saved_); }

  private:
    simd::Tag saved_;
};

TEST(SimPerfCounters, PinnedSpecProducesExactCounts)
{
    // The counters are pure functions of the work content, so for the
    // pinned spec they are plain constants — any drift means simulation
    // behavior changed and the bit-identity baseline must be re-recorded.
    const sim::PerfCounters perf = sweepCounters();
    EXPECT_EQ(perf.eventsSimulated, 240551);
    EXPECT_EQ(perf.interruptsSynthesized, 236982);
    EXPECT_EQ(perf.allocations, 36);
    EXPECT_EQ(perf.bytesSorted, 5687880);
    EXPECT_FALSE(perf.empty());
}

TEST(SimPerfCounters, CountsIdenticalAcrossThreadCounts)
{
    const sim::PerfCounters base = sweepCounters();
    for (const int threads : {1, 4, 8}) {
        setGlobalThreads(threads);
        const sim::PerfCounters perf = sweepCounters();
        EXPECT_EQ(perf.eventsSimulated, base.eventsSimulated) << threads;
        EXPECT_EQ(perf.interruptsSynthesized, base.interruptsSynthesized)
            << threads;
        EXPECT_EQ(perf.allocations, base.allocations) << threads;
        EXPECT_EQ(perf.bytesSorted, base.bytesSorted) << threads;
    }
    setGlobalThreads(0); // Back to the hardware default.
}

TEST(SimPerfCounters, CountsIdenticalAcrossSimdTags)
{
    TagGuard guard;
    simd::setActive(simd::Tag::Scalar);
    const sim::PerfCounters base = sweepCounters();
    for (const simd::Tag tag :
         {simd::Tag::Scalar, simd::Tag::Sse2, simd::Tag::Avx2}) {
        if (!simd::supported(tag))
            continue;
        simd::setActive(tag);
        const sim::PerfCounters perf = sweepCounters();
        EXPECT_EQ(perf.eventsSimulated, base.eventsSimulated);
        EXPECT_EQ(perf.interruptsSynthesized, base.interruptsSynthesized);
        EXPECT_EQ(perf.allocations, base.allocations);
        EXPECT_EQ(perf.bytesSorted, base.bytesSorted);
    }
}

TEST(SimPerfCounters, ChunkReplayedCellsReportZero)
{
    // Counters measure work *performed*: a collection fully replayed
    // from the stage cache's collection chunks does no simulation and
    // must report zero, so the --explain table attributes replays
    // honestly (mirrors how a replayed stage's cpuSeconds is the replay
    // cost, not the original).
    namespace fs = std::filesystem;
    const std::string dir = testing::TempDir() + "bf_sim_perf_chunks";
    fs::remove_all(dir);

    const CollectionConfig config = pinnedConfig();
    PipelineConfig pipeline;
    pipeline.numSites = kSites;
    pipeline.tracesPerSite = kRuns;
    pipeline.catalogSeed = kCatalogSeed;
    pipeline.featureLen = 32;
    pipeline.eval.folds = 2;
    pipeline.factory = ml::knnFactory(1);
    pipeline.cacheDir = dir;

    const auto cold = runFingerprinting(config, pipeline);
    ASSERT_TRUE(cold.isOk()) << cold.status().toString();
    const StageReport &cold_collect = cold.value().stages.front();
    ASSERT_EQ(cold_collect.name, "collect");
    // The pipeline collects exactly the pinned sweep.
    EXPECT_EQ(cold_collect.sim.eventsSimulated, 240551);
    EXPECT_EQ(cold_collect.sim.bytesSorted, 5687880);

    // A featurization-only change misses the featurized entry, so the
    // Collect stage runs again — entirely from its chunks.
    pipeline.featureLen = 48;
    const auto warm = runFingerprinting(config, pipeline);
    ASSERT_TRUE(warm.isOk()) << warm.status().toString();
    const StageReport &warm_collect = warm.value().stages.front();
    EXPECT_EQ(warm_collect.cache, StageCacheState::Hit);
    EXPECT_TRUE(warm_collect.sim.empty());
    EXPECT_EQ(warm.value().collectedTraces, cold.value().collectedTraces);
    fs::remove_all(dir);
}

TEST(SimPerfCounters, AccumulationArithmetic)
{
    sim::PerfCounters a;
    a.eventsSimulated = 10;
    a.interruptsSynthesized = 7;
    a.allocations = 3;
    a.bytesSorted = 640;
    sim::PerfCounters b;
    b.eventsSimulated = 5;
    b.bytesSorted = 60;
    const sim::PerfCounters sum = a + b;
    EXPECT_EQ(sum.eventsSimulated, 15);
    EXPECT_EQ(sum.interruptsSynthesized, 7);
    EXPECT_EQ(sum.allocations, 3);
    EXPECT_EQ(sum.bytesSorted, 700);
    EXPECT_TRUE(sim::PerfCounters{}.empty());
    EXPECT_FALSE(sum.empty());
}

} // namespace
} // namespace bigfish::core
