/**
 * @file
 * Determinism tests for the simulator perf counters (sim/perf.hh,
 * DESIGN.md §13): for a pinned spec the counts are exact constants,
 * identical at every thread count and SIMD dispatch tag, and cells
 * replayed from stage-cache collection chunks report zero because the
 * counters measure work performed, exactly like cpuSeconds. The
 * SimScratch tests check the arena's lent interval buffer (sim/scratch.hh
 * rule 4): a warm worker allocates none, a cold one never holds two
 * timeline-sized ones, and whether a buffer came back never changes a
 * timeline.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <set>

#include "base/simd.hh"
#include "base/thread_pool.hh"
#include "core/collector.hh"
#include "core/pipeline.hh"
#include "sim/scratch.hh"
#include "web/catalog.hh"

// Allocation tracking for the arena tests: while this thread has
// tracking armed, every operator new of at least kLargeAllocation bytes
// is counted, so a test can prove a warm worker's cell allocates no
// interval buffer. While a thread has block logging armed, each of its
// large allocations and the free of each logged block are recorded in
// order, so a test can replay how many large blocks were live at once.
namespace {
constexpr std::size_t kLargeAllocation = std::size_t{1} << 20;
thread_local bool tTrackLarge = false;
std::atomic<long long> gLargeAllocations{0};
std::atomic<std::size_t> gLargestTracked{0};

/** One logged event: a large allocation, or (size 0) its free. */
struct BlockEvent
{
    const void *ptr = nullptr;
    std::size_t size = 0;
};
constexpr std::size_t kMaxBlockEvents = 4096;
// Written only by the one thread that has logging armed.
thread_local bool tLogBlocks = false;
BlockEvent gBlockEvents[kMaxBlockEvents];
std::size_t gBlockEventCount = 0;
bool gBlockLogOverflow = false;

void
logBlockEvent(const void *ptr, std::size_t size)
{
    if (gBlockEventCount == kMaxBlockEvents) {
        gBlockLogOverflow = true;
        return;
    }
    gBlockEvents[gBlockEventCount++] = {ptr, size};
}

/** True when @p ptr is a logged block that is not yet freed. */
bool
isLoggedBlock(const void *ptr)
{
    for (std::size_t i = gBlockEventCount; i-- > 0;) {
        if (gBlockEvents[i].ptr == ptr)
            return gBlockEvents[i].size != 0;
    }
    return false;
}

void
noteFree(void *p)
{
    if (tLogBlocks && p != nullptr && isLoggedBlock(p))
        logBlockEvent(p, 0);
}
} // namespace

void *
operator new(std::size_t size)
{
    if (tTrackLarge) {
        if (size >= kLargeAllocation)
            gLargeAllocations.fetch_add(1, std::memory_order_relaxed);
        std::size_t seen = gLargestTracked.load(std::memory_order_relaxed);
        while (size > seen &&
               !gLargestTracked.compare_exchange_weak(seen, size))
            ;
    }
    if (void *p = std::malloc(size == 0 ? 1 : size)) {
        if (tLogBlocks && size >= kLargeAllocation)
            logBlockEvent(p, size);
        return p;
    }
    throw std::bad_alloc();
}

// The replacement pair is malloc/free; GCC flags the free() once it
// inlines these into std::allocator, as if new and free were mixed.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void
operator delete(void *p) noexcept
{
    noteFree(p);
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    noteFree(p);
    std::free(p);
}
#pragma GCC diagnostic pop

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
    EXPECT_EQ(perf.allocations, 48);
    EXPECT_EQ(perf.bytesSorted, 3791920);
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
    for (const simd::Tag tag : {simd::Tag::Scalar, simd::Tag::Avx2}) {
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
    EXPECT_EQ(cold_collect.sim.bytesSorted, 3791920);

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

namespace bigfish::core {
namespace {

/** Counts this thread's large allocations while in scope. */
class LargeAllocationWatch
{
  public:
    LargeAllocationWatch()
    {
        gLargeAllocations.store(0);
        gLargestTracked.store(0);
        tTrackLarge = true;
    }
    ~LargeAllocationWatch() { tTrackLarge = false; }
    LargeAllocationWatch(const LargeAllocationWatch &) = delete;
    LargeAllocationWatch &operator=(const LargeAllocationWatch &) = delete;

    long long count() const { return gLargeAllocations.load(); }
    std::size_t largest() const { return gLargestTracked.load(); }
};

/** A Tor configuration: 50 s traces, the largest timelines the
 *  experiments synthesize. */
CollectionConfig
torConfig()
{
    CollectionConfig config;
    config.seed = 2022;
    config.browser = web::BrowserProfile::torBrowser();
    return config;
}

void
expectSameTimeline(const sim::RunTimeline &x, const sim::RunTimeline &y)
{
    EXPECT_EQ(x.duration, y.duration);
    EXPECT_EQ(x.activityInterval, y.activityInterval);
    EXPECT_EQ(x.iterCostFactor, y.iterCostFactor);
    EXPECT_EQ(x.occupancy, y.occupancy);
    ASSERT_EQ(x.stolen.size(), y.stolen.size());
    for (std::size_t i = 0; i < x.stolen.size(); ++i) {
        ASSERT_EQ(x.stolen[i].arrival, y.stolen[i].arrival) << i;
        ASSERT_EQ(x.stolen[i].duration, y.stolen[i].duration) << i;
        ASSERT_EQ(x.stolen[i].kind, y.stolen[i].kind) << i;
    }
}

TEST(SimScratch, WarmWorkerAllocatesNoIntervalBuffer)
{
    // The synthesizer lends its arena buffer to the timeline, browser
    // stalls append into its headroom, and collectOneMulti() gives it
    // back after the last attacker: once a worker has collected one
    // cell, collecting a cell of the same size allocates no buffer of
    // interval size at all.
    const TraceCollector collector(torConfig());
    const web::SiteCatalog catalog(2, kCatalogSeed);
    const attack::AttackerKind attackers[] = {
        attack::AttackerKind::LoopCounting,
        attack::AttackerKind::SweepCounting};
    const auto warm = collector.collectOneMulti(catalog.site(1), 0, attackers);
    ASSERT_TRUE(warm[0].isOk()) << warm[0].status().toString();
    // The buffer came back to this thread's arena, and it is Tor-sized:
    // this cell emits about 0.41 M intervals.
    ASSERT_GE(sim::SimScratch::local().emit.capacity(),
              std::size_t{400000});

    std::vector<Result<attack::Trace>> again;
    long long large = 0;
    std::size_t largest = 0;
    {
        LargeAllocationWatch watch;
        again = collector.collectOneMulti(catalog.site(1), 0, attackers);
        large = watch.count();
        largest = watch.largest();
    }
    EXPECT_EQ(large, 0) << "largest allocation " << largest << " B";
    ASSERT_EQ(again.size(), warm.size());
    for (std::size_t a = 0; a < warm.size(); ++a) {
        ASSERT_TRUE(again[a].isOk());
        EXPECT_EQ(again[a].value().counts, warm[a].value().counts);
        EXPECT_EQ(again[a].value().wallTimes, warm[a].value().wallTimes);
    }
}

/** Logs this thread's large blocks while in scope (see logBlockEvent). */
class BlockLog
{
  public:
    BlockLog()
    {
        gBlockEventCount = 0;
        gBlockLogOverflow = false;
        tLogBlocks = true;
    }
    ~BlockLog() { tLogBlocks = false; }
    BlockLog(const BlockLog &) = delete;
    BlockLog &operator=(const BlockLog &) = delete;
};

/** Most blocks of at least @p bytes that the log shows live at once. */
int
mostLiveBlocksOfAtLeast(std::size_t bytes)
{
    std::set<const void *> live;
    std::size_t most = 0;
    for (std::size_t i = 0; i < gBlockEventCount; ++i) {
        const BlockEvent &e = gBlockEvents[i];
        if (e.size == 0)
            live.erase(e.ptr);
        else if (e.size >= bytes)
            live.insert(e.ptr);
        most = std::max(most, live.size());
    }
    return static_cast<int>(most);
}

TEST(SimScratch, ColdTorCellNeverHoldsTwoTimelineSizedBuffers)
{
    // The bucket sort orders the emission buffer in place, so a worker's
    // first Tor cell never holds two interval buffers that can each hold
    // the whole emitted stream. A scatter target beside the emission
    // buffer would be a second.
    const TraceCollector collector(torConfig());
    const web::SiteCatalog catalog(2, kCatalogSeed);
    const web::SiteSignature &site = catalog.site(1);
    const attack::AttackerKind attackers[] = {
        attack::AttackerKind::LoopCounting,
        attack::AttackerKind::SweepCounting};
    // Empty this thread's arena, so the cell is cold.
    sim::SimScratch::local() = sim::SimScratch{};
    std::vector<Result<attack::Trace>> traces;
    {
        BlockLog log;
        traces = collector.collectOneMulti(site, 0, attackers);
    }
    ASSERT_FALSE(gBlockLogOverflow);
    ASSERT_EQ(traces.size(), 2u);
    ASSERT_TRUE(traces[0].isOk()) << traces[0].status().toString();

    // eventsSimulated counts the emitted intervals plus one event per
    // activity step, so the stream the sort ordered is the difference.
    sim::PerfCounters perf;
    sim::RunTimeline timeline = collector.synthesizeTimeline(site, 0, &perf);
    const auto emitted = static_cast<std::size_t>(perf.eventsSimulated) -
                         timeline.iterCostFactor.size();
    sim::giveBack(timeline);
    const std::size_t stream_bytes = emitted * sizeof(sim::StolenInterval);
    ASSERT_GE(stream_bytes, kLargeAllocation);
    EXPECT_EQ(mostLiveBlocksOfAtLeast(stream_bytes), 1)
        << emitted << " intervals emitted";
}

TEST(SimScratch, TimelineIsTheSameWhetherOrNotTheBufferCameBack)
{
    // A timeline must not depend on what its thread's arena holds: an
    // empty arena (the previous caller kept its buffer) and a warm one
    // holding another cell's stale intervals give identical timelines.
    const TraceCollector collector(torConfig());
    const web::SiteCatalog catalog(3, kCatalogSeed);
    const web::SiteSignature &site = catalog.site(2);

    sim::RunTimeline kept = collector.synthesizeTimeline(site, 0);
    // The arena's buffer is still lent to `kept`: this one is fresh.
    sim::RunTimeline fresh = collector.synthesizeTimeline(site, 1);
    const sim::RunTimeline expected = fresh;
    sim::giveBack(fresh);
    sim::giveBack(kept);
    EXPECT_TRUE(kept.stolen.empty());

    // Leave another cell's intervals in the arena, then rebuild.
    sim::RunTimeline other = collector.synthesizeTimeline(catalog.site(0), 4);
    sim::giveBack(other);
    const sim::RunTimeline rebuilt = collector.synthesizeTimeline(site, 1);
    expectSameTimeline(rebuilt, expected);

    // And whole cells: collecting with and without the buffer returned
    // yields the same traces.
    const attack::AttackerKind attackers[] = {
        attack::AttackerKind::LoopCounting};
    const auto warm = collector.collectOneMulti(site, 1, attackers);
    sim::RunTimeline holder = collector.synthesizeTimeline(site, 0);
    const auto cold = collector.collectOneMulti(site, 1, attackers);
    sim::giveBack(holder);
    ASSERT_TRUE(warm[0].isOk());
    ASSERT_TRUE(cold[0].isOk());
    EXPECT_EQ(warm[0].value().counts, cold[0].value().counts);
    EXPECT_EQ(warm[0].value().wallTimes, cold[0].value().wallTimes);
}

} // namespace
} // namespace bigfish::core
