/**
 * @file
 * Determinism and drain guarantees of the parallel execution layer: the
 * same bits must come out of the pipeline at any thread count, a
 * throwing body must never wedge the pool, the executor never runs more
 * than its thread count at once, and a batched stage graph is
 * bit-identical to the sequential calls it replaces.
 */

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <malloc.h>
#include <mutex>
#include <new>
#include <span>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "base/simd.hh"
#include "base/thread_pool.hh"
#include "core/checkpoint.hh"
#include "core/collector.hh"
#include "core/pipeline.hh"
#include "core/stage.hh"
#include "sim/scratch.hh"
#include "stats/descriptive.hh"
#include "ml/evaluation.hh"
#include "web/catalog.hh"

// Live-heap accounting for the memory tests: every operator new and
// delete moves a live byte count (by malloc_usable_size, so deletes
// need no size) and its high-water mark.
namespace {
std::atomic<long long> gLiveHeapBytes{0};
std::atomic<long long> gPeakHeapBytes{0};
} // namespace

void *
operator new(std::size_t size)
{
    void *p = std::malloc(size == 0 ? 1 : size);
    if (p == nullptr)
        throw std::bad_alloc();
    const auto bytes = static_cast<long long>(malloc_usable_size(p));
    const long long live = gLiveHeapBytes.fetch_add(bytes) + bytes;
    long long peak = gPeakHeapBytes.load(std::memory_order_relaxed);
    while (live > peak && !gPeakHeapBytes.compare_exchange_weak(peak, live))
        ;
    return p;
}

// The replacement pair is malloc/free; GCC flags the free() once it
// inlines these into std::allocator, as if new and free were mixed.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void
operator delete(void *p) noexcept
{
    if (p != nullptr)
        gLiveHeapBytes.fetch_sub(
            static_cast<long long>(malloc_usable_size(p)));
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    operator delete(p);
}
#pragma GCC diagnostic pop

namespace bigfish {
namespace {

/** Restores the global pool's thread count when a test exits. */
class ScopedThreads
{
  public:
    explicit ScopedThreads(int threads) { setGlobalThreads(threads); }
    ~ScopedThreads() { setGlobalThreads(0); }
};

core::CollectionConfig
smallConfig()
{
    core::CollectionConfig config;
    config.seed = 11;
    config.browser.traceDuration = 2 * kSec;
    return config;
}

attack::TraceSet
collectWithThreads(const core::CollectionConfig &config, int threads,
                   core::CollectionStats *stats = nullptr)
{
    ScopedThreads scoped(threads);
    const core::TraceCollector collector(config);
    const web::SiteCatalog catalog(4, 7);
    auto set = collector.collectClosedWorld(catalog, 3, stats);
    EXPECT_TRUE(set.isOk());
    return std::move(set.value());
}

void
expectBitIdentical(const attack::TraceSet &a, const attack::TraceSet &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t t = 0; t < a.size(); ++t) {
        const attack::Trace &ta = a.traces[t];
        const attack::Trace &tb = b.traces[t];
        EXPECT_EQ(ta.siteId, tb.siteId);
        EXPECT_EQ(ta.label, tb.label);
        ASSERT_EQ(ta.counts.size(), tb.counts.size());
        for (std::size_t i = 0; i < ta.counts.size(); ++i)
            EXPECT_DOUBLE_EQ(ta.counts[i], tb.counts[i]);
        ASSERT_EQ(ta.wallTimes.size(), tb.wallTimes.size());
        for (std::size_t i = 0; i < ta.wallTimes.size(); ++i)
            EXPECT_EQ(ta.wallTimes[i], tb.wallTimes[i]);
    }
}

TEST(ParallelCollection, TracesBitIdenticalAcrossThreadCounts)
{
    const auto config = smallConfig();
    const auto serial = collectWithThreads(config, 1);
    const auto parallel = collectWithThreads(config, 8);
    expectBitIdentical(serial, parallel);
}

TEST(ParallelCollection, OpenWorldBitIdenticalAcrossThreadCounts)
{
    const auto config = smallConfig();
    const web::SiteCatalog catalog(4, 7);
    attack::TraceSet serial, parallel;
    {
        ScopedThreads scoped(1);
        const core::TraceCollector collector(config);
        serial = collector.collectOpenWorld(catalog, 10, 4).valueOrDie();
    }
    {
        ScopedThreads scoped(8);
        const core::TraceCollector collector(config);
        parallel = collector.collectOpenWorld(catalog, 10, 4).valueOrDie();
    }
    expectBitIdentical(serial, parallel);
}

TEST(ParallelCollection, FaultAccountingUnchangedAcrossThreadCounts)
{
    // Heavy truncation faults: many cells drop (below kMinViablePeriods),
    // and the dropped/collected accounting must not depend on scheduling.
    auto config = smallConfig();
    config.faults.truncateProb = 0.5;
    config.faults.truncateKeepMin = 0.0;
    config.faults.truncateKeepMax = 0.005;
    config.faults.seed = 8;

    core::CollectionStats serial_stats, parallel_stats;
    const auto serial = collectWithThreads(config, 1, &serial_stats);
    const auto parallel = collectWithThreads(config, 8, &parallel_stats);

    EXPECT_GT(serial_stats.dropped, 0u);
    EXPECT_EQ(serial_stats.attempted, parallel_stats.attempted);
    EXPECT_EQ(serial_stats.collected, parallel_stats.collected);
    EXPECT_EQ(serial_stats.dropped, parallel_stats.dropped);
    expectBitIdentical(serial, parallel);
}

TEST(SharedCollection, MultiAttackerMatchesSeparateSingleRuns)
{
    // The shared-timeline path must be an optimization, not a semantic
    // change: each attacker's set from one collectClosedWorldMulti() is
    // bit-identical to a separate collectClosedWorld() whose config
    // differs only in `attacker`.
    const auto base = smallConfig();
    const web::SiteCatalog catalog(4, 7);
    const attack::AttackerKind kinds[] = {
        attack::AttackerKind::LoopCounting,
        attack::AttackerKind::SweepCounting};

    const core::TraceCollector shared_collector(base);
    std::vector<core::CollectionStats> shared_stats;
    const auto shared = shared_collector
                            .collectClosedWorldMulti(catalog, 3, kinds,
                                                     &shared_stats)
                            .valueOrDie();
    ASSERT_EQ(shared.size(), 2u);
    ASSERT_EQ(shared_stats.size(), 2u);

    for (std::size_t a = 0; a < 2; ++a) {
        auto config = base;
        config.attacker = kinds[a];
        core::CollectionStats single_stats;
        const core::TraceCollector collector(config);
        const auto single =
            collector.collectClosedWorld(catalog, 3, &single_stats)
                .valueOrDie();
        expectBitIdentical(shared[a], single);
        EXPECT_EQ(shared_stats[a].attempted, single_stats.attempted);
        EXPECT_EQ(shared_stats[a].collected, single_stats.collected);
        EXPECT_EQ(shared_stats[a].dropped, single_stats.dropped);
    }
}

TEST(SharedCollection, SharedPipelineMatchesSingleRunsAcrossThreads)
{
    core::CollectionConfig collection = smallConfig();
    core::PipelineConfig pipeline;
    pipeline.numSites = 3;
    pipeline.tracesPerSite = 6;
    pipeline.featureLen = 32;
    pipeline.eval.folds = 3;
    pipeline.factory = ml::knnFactory();
    const attack::AttackerKind kinds[] = {
        attack::AttackerKind::LoopCounting,
        attack::AttackerKind::SweepCounting};

    const auto run_shared = [&](int threads) {
        ScopedThreads scoped(threads);
        return core::runFingerprintingSharedOrDie(collection, kinds,
                                                  pipeline);
    };
    const auto serial = run_shared(1);
    const auto parallel = run_shared(8);
    ASSERT_EQ(serial.size(), 2u);
    ASSERT_EQ(parallel.size(), 2u);

    for (std::size_t a = 0; a < 2; ++a) {
        auto single_cfg = collection;
        single_cfg.attacker = kinds[a];
        const auto single =
            core::runFingerprintingOrDie(single_cfg, pipeline);
        EXPECT_EQ(serial[a].closedWorld.top1Mean,
                  single.closedWorld.top1Mean);
        EXPECT_EQ(serial[a].closedWorld.topKMean,
                  single.closedWorld.topKMean);
        EXPECT_EQ(serial[a].closedWorld.top1Mean,
                  parallel[a].closedWorld.top1Mean);
        EXPECT_EQ(serial[a].collectedTraces, parallel[a].collectedTraces);
    }
}

TEST(ParallelCrossValidation, FoldMetricsMatchAcrossThreadCounts)
{
    // A tiny CNN-LSTM on the stage graph: the folds train concurrently,
    // each from its own seed, so any thread-count dependence in seeded
    // training shows up in the fold metrics.
    core::FingerprintJob job;
    job.collection = smallConfig();
    job.attackers = {attack::AttackerKind::LoopCounting};
    job.pipeline.numSites = 3;
    job.pipeline.tracesPerSite = 6;
    job.pipeline.featureLen = 32;
    job.pipeline.eval.folds = 3;
    job.pipeline.eval.seed = 5;
    ml::CnnLstmParams params;
    params.inputChannels = 2;
    params.convFilters = 4;
    params.lstmUnits = 4;
    params.maxEpochs = 3;
    params.patience = 3;
    job.pipeline.factory = ml::cnnLstmFactory(params);
    const std::vector<core::FingerprintJob> jobs = {job};

    const auto run = [&](int threads) {
        ScopedThreads scoped(threads);
        return core::runFingerprintingBatch(jobs).valueOrDie()[0][0]
            .closedWorld;
    };
    const auto serial = run(1);
    const auto parallel = run(8);

    ASSERT_EQ(serial.foldTop1.size(), 3u);
    ASSERT_EQ(serial.foldTop1.size(), parallel.foldTop1.size());
    for (std::size_t f = 0; f < serial.foldTop1.size(); ++f) {
        EXPECT_EQ(serial.foldTop1[f], parallel.foldTop1[f]);
        EXPECT_EQ(serial.foldTopK[f], parallel.foldTopK[f]);
    }
    EXPECT_EQ(serial.top1Mean, parallel.top1Mean);
    EXPECT_EQ(serial.topKMean, parallel.topKMean);
}

TEST(ParallelPipeline, EndToEndMetricsMatchAcrossThreadCounts)
{
    core::CollectionConfig collection = smallConfig();
    core::PipelineConfig pipeline;
    pipeline.numSites = 3;
    pipeline.tracesPerSite = 6;
    pipeline.featureLen = 32;
    pipeline.eval.folds = 3;
    pipeline.factory = ml::knnFactory();

    const auto run = [&](int threads) {
        ScopedThreads scoped(threads);
        return core::runFingerprintingOrDie(collection, pipeline);
    };
    const auto serial = run(1);
    const auto parallel = run(2);
    const auto wide = run(8);

    EXPECT_EQ(serial.closedWorld.top1Mean, parallel.closedWorld.top1Mean);
    EXPECT_EQ(serial.closedWorld.top1Mean, wide.closedWorld.top1Mean);
    EXPECT_EQ(serial.closedWorld.topKMean, wide.closedWorld.topKMean);
    EXPECT_EQ(serial.droppedTraces, wide.droppedTraces);
    EXPECT_EQ(serial.collectedTraces, wide.collectedTraces);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(1000, [&](std::size_t i) { ++hits[i]; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelMapPreservesSlotOrder)
{
    ThreadPool pool(8);
    const auto out =
        pool.parallelMap(257, [](std::size_t i) { return 3 * i + 1; });
    ASSERT_EQ(out.size(), 257u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], 3 * i + 1);
}

TEST(ThreadPool, PropagatesExceptionsAndDrains)
{
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(100,
                                  [](std::size_t i) {
                                      if (i == 37)
                                          throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);

    // The pool must still be fully usable after a failed region.
    std::atomic<int> count{0};
    pool.parallelFor(50, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 50);
}

/**
 * Tracks how many tasks run at once. enter() holds each task until
 * @p target of them overlap (bounded wait), then gives an
 * oversubscribed pool a short window to show one more, so a pool that
 * executes exactly @p target threads is observed at exactly @p target.
 */
class Overlap
{
  public:
    explicit Overlap(int target) : target_(target) {}

    void
    enter()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        ++running_;
        high_ = std::max(high_, running_);
        changed_.notify_all();
        changed_.wait_for(lock, std::chrono::seconds(20),
                          [&] { return running_ >= target_; });
        changed_.wait_for(lock, std::chrono::milliseconds(20),
                          [&] { return running_ > target_; });
        --running_;
    }

    int
    high()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return high_;
    }

  private:
    const int target_;
    std::mutex mutex_;
    std::condition_variable changed_;
    int running_ = 0;
    int high_ = 0;
};

/** Lock-free running/high-water counter for nested regions. */
struct Concurrency
{
    std::atomic<int> running{0};
    std::atomic<int> high{0};

    void
    enter()
    {
        const int now = running.fetch_add(1) + 1;
        int seen = high.load();
        while (now > seen && !high.compare_exchange_weak(seen, now)) {
        }
    }

    void leave() { running.fetch_sub(1); }
};

TEST(ThreadPool, NestedRegionsHelpInsteadOfOversubscribing)
{
    // A region opened inside a running task must neither deadlock
    // waiting for the very threads that run it nor add a runnable
    // thread: its waiter executes chunks itself.
    ThreadPool pool(4);
    std::atomic<int> count{0};
    Concurrency busy;
    pool.parallelFor(8, [&](std::size_t) {
        busy.enter();
        busy.leave();
        pool.parallelFor(16, [&](std::size_t) {
            busy.enter();
            ++count;
            busy.leave();
        });
    });
    EXPECT_EQ(count.load(), 8 * 16);
    EXPECT_LE(busy.high.load(), 4);
}

TEST(ThreadPool, SingleThreadPoolSpawnsNoWorkers)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.threadCount(), 1);
    bool ran = false;
    // A 1-thread pool runs the body inline on the caller; the write
    // cannot race. bigfish-lint: allow(parallel-capture-race)
    pool.parallelFor(1, [&](std::size_t) { ran = true; });
    EXPECT_TRUE(ran);
}

// --- The task executor -------------------------------------------------

TEST(TaskGroup, OneThreadRunsEveryTaskInlineInPriorityOrder)
{
    ThreadPool pool(1);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<int> order;
    std::atomic<int> off_caller{0};
    TaskGroup group(pool);
    const auto record = [&](int tag) {
        order.push_back(tag);
        if (std::this_thread::get_id() != caller ||
            currentWorkerIndex() != 0)
            ++off_caller;
    };
    group.submit(3, [&] { record(3); });
    group.submit(2, [&] { record(21); });
    group.submit(5, [&] {
        record(5);
        // A follow-up outranking what is queued runs next.
        group.submit(4, [&] { record(4); });
        group.submit(0, [&] { record(0); });
    });
    group.submit(2, [&] { record(22); });
    group.submit(1, [&] { record(1); });
    group.wait();
    EXPECT_EQ(order, (std::vector<int>{5, 4, 3, 21, 22, 1, 0}));
    EXPECT_EQ(off_caller.load(), 0);
}

TEST(TaskGroup, HighWaterMarkOfRunningTasksEqualsThreadCount)
{
    for (const int threads : {1, 2, 4}) {
        ThreadPool pool(threads);
        Overlap overlap(threads);
        TaskGroup group(pool);
        for (int t = 0; t < 4 * threads; ++t)
            group.submit(0, [&overlap] { overlap.enter(); });
        group.wait();
        EXPECT_EQ(overlap.high(), threads) << threads << " threads";
    }
}

TEST(TaskGroup, ExceptionsDrainEveryTaskThenRethrowOnce)
{
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    TaskGroup group(pool);
    for (int i = 0; i < 20; ++i)
        group.submit(i, [&ran, i] {
            ++ran;
            if (i % 5 == 0)
                throw std::runtime_error("boom");
        });
    EXPECT_THROW(group.wait(), std::runtime_error);
    EXPECT_EQ(ran.load(), 20);
    group.wait(); // drained: nothing left to rethrow

    // The pool stays fully usable after a failed group.
    std::atomic<int> again{0};
    pool.parallelFor(50, [&](std::size_t) { ++again; });
    EXPECT_EQ(again.load(), 50);
}

TEST(TaskGroup, WaitCoversFollowUpChains)
{
    for (const int threads : {1, 3}) {
        ThreadPool pool(threads);
        std::atomic<int> ran{0};
        TaskGroup group(pool);
        std::function<void(int)> chain = [&](int depth) {
            ++ran;
            if (depth > 0)
                group.submit(depth, [&chain, depth] { chain(depth - 1); });
        };
        for (int c = 0; c < 4; ++c)
            group.submit(0, [&chain] { chain(49); });
        group.wait();
        EXPECT_EQ(ran.load(), 4 * 50) << threads << " threads";
    }
}

TEST(TaskGroup, WaiterTasksRunOnlyOnTheWaitingThread)
{
    ThreadPool pool(4);
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<int> pinned_ran{0};
    std::atomic<int> pinned_elsewhere{0};
    std::atomic<int> shared_ran{0};
    TaskGroup group(pool);
    for (int t = 0; t < 40; ++t) {
        group.submit(t % 3, [&shared_ran] { ++shared_ran; });
        if (t % 4 == 0)
            group.submitToWaiter(t % 5, [&, caller] {
                ++pinned_ran;
                if (std::this_thread::get_id() != caller)
                    ++pinned_elsewhere;
            });
    }
    group.wait();
    EXPECT_EQ(shared_ran.load(), 40);
    EXPECT_EQ(pinned_ran.load(), 10);
    EXPECT_EQ(pinned_elsewhere.load(), 0);
}

// --- StageGraph::execute -----------------------------------------------

/** Declares a root-less stage with no canonical text. */
std::size_t
declareStage(core::StageGraph &graph, const std::string &name,
             std::initializer_list<std::size_t> upstream)
{
    const std::vector<std::size_t> ups(upstream);
    return graph.declare(name, "eval", "", ups);
}

TEST(StageGraphExecute, UpstreamsFinishBeforeDependentsStart)
{
    for (const int threads : {1, 2, 4, 8}) {
        ThreadPool pool(threads);
        core::StageGraph graph;
        // a -> {b, c} -> d (a diamond), e -> f (an independent chain);
        // b fans out into extra items that d must also wait for.
        const std::size_t a = declareStage(graph, "a", {});
        const std::size_t b = declareStage(graph, "b", {a});
        const std::size_t c = declareStage(graph, "c", {a});
        const std::size_t d = declareStage(graph, "d", {b, c});
        const std::size_t e = declareStage(graph, "e", {});
        const std::size_t f = declareStage(graph, "f", {e});
        const std::vector<std::vector<std::size_t>> ups = {
            {}, {a}, {a}, {b, c}, {}, {e}};
        std::vector<std::atomic<int>> done(6);
        std::atomic<int> fanned{0};
        std::atomic<int> violations{0};
        for (std::size_t id = 0; id < 6; ++id) {
            graph.submit(id, static_cast<std::int64_t>(id),
                         [&, id]() -> Status {
                for (const std::size_t up : ups[id])
                    if (done[up].load() == 0)
                        ++violations;
                if (id == d && fanned.load() != 3)
                    ++violations;
                if (id == b)
                    for (int k = 0; k < 3; ++k)
                        graph.submit(b, 0, [&fanned]() -> Status {
                            ++fanned;
                            return Status::ok();
                        });
                ++done[id];
                return Status::ok();
            });
        }
        graph.execute(pool);
        EXPECT_EQ(violations.load(), 0) << threads << " threads";
        for (const std::size_t id : {a, b, c, d, e, f})
            EXPECT_EQ(done[id].load(), 1) << "stage " << id;
        EXPECT_EQ(fanned.load(), 3);
    }
}

TEST(StageGraphExecute, FailedStageCancelsDependentsAndOthersDrain)
{
    for (const int threads : {1, 4}) {
        ThreadPool pool(threads);
        core::StageGraph graph;
        const std::size_t bad = declareStage(graph, "bad", {});
        const std::size_t after_bad = declareStage(graph, "after", {bad});
        const std::size_t good = declareStage(graph, "good", {});
        const std::size_t after_good = declareStage(graph, "next", {good});
        std::vector<std::atomic<int>> ran(4);
        for (const std::size_t id : {bad, after_bad, good, after_good})
            graph.submit(id, 0, [&ran, id, bad]() -> Status {
                ++ran[id];
                if (id == bad)
                    return dataError("injected failure");
                return Status::ok();
            });
        graph.execute(pool);
        EXPECT_EQ(graph.status(bad).message(), "injected failure");
        EXPECT_TRUE(graph.status(after_bad).isOk()) << "cancelled, not failed";
        EXPECT_EQ(ran[after_bad].load(), 0);
        EXPECT_EQ(ran[good].load(), 1);
        EXPECT_EQ(ran[after_good].load(), 1);
        EXPECT_EQ(graph.reports()[after_bad].cache,
                  core::StageCacheState::Skipped);
    }
}

TEST(StageGraphExecute, AfterOrdersStagesWithoutCancellingThem)
{
    for (const int threads : {1, 4}) {
        ThreadPool pool(threads);
        core::StageGraph graph;
        const std::size_t first = declareStage(graph, "first", {});
        const std::size_t ordered = declareStage(graph, "ordered", {});
        const std::size_t dependent = declareStage(graph, "dep", {first});
        const std::uint64_t fingerprint = graph.fingerprint(ordered);
        graph.after(first, ordered);
        EXPECT_EQ(graph.fingerprint(ordered), fingerprint);
        std::atomic<int> first_done{0};
        std::atomic<int> ordered_saw{-1};
        std::atomic<int> dependent_ran{0};
        graph.submit(first, 0, [&first_done]() -> Status {
            ++first_done;
            return dataError("first failed");
        });
        // Pinned to the executing thread, at the highest priority: the
        // ordering edge, not the priority, decides when it starts.
        graph.submit(
            ordered, 9,
            [&]() -> Status {
                ordered_saw.store(first_done.load());
                return Status::ok();
            },
            /*pinned=*/true);
        graph.submit(dependent, 0, [&dependent_ran]() -> Status {
            ++dependent_ran;
            return Status::ok();
        });
        graph.execute(pool);
        EXPECT_EQ(ordered_saw.load(), 1) << threads << " threads";
        EXPECT_TRUE(graph.status(ordered).isOk());
        EXPECT_EQ(dependent_ran.load(), 0);
    }
}

TEST(StageGraphExecute, ExceptionFailsItsStageDrainsThenRethrows)
{
    for (const int threads : {1, 4}) {
        ThreadPool pool(threads);
        core::StageGraph graph;
        const std::size_t thrower = declareStage(graph, "throw", {});
        const std::size_t after = declareStage(graph, "after", {thrower});
        const std::size_t other = declareStage(graph, "other", {});
        std::atomic<int> after_ran{0};
        std::atomic<int> other_ran{0};
        graph.submit(thrower, 1, []() -> Status {
            throw std::runtime_error("task threw");
        });
        graph.submit(after, 0, [&after_ran]() -> Status {
            ++after_ran;
            return Status::ok();
        });
        graph.submit(other, 0, [&other_ran]() -> Status {
            ++other_ran;
            return Status::ok();
        });
        EXPECT_THROW(graph.execute(pool), std::runtime_error);
        EXPECT_FALSE(graph.status(thrower).isOk());
        EXPECT_EQ(after_ran.load(), 0);
        EXPECT_EQ(other_ran.load(), 1);
    }
}

TEST(StageGraphExecute, OneThreadDoesNotDeadlockOnNestingOrFanOut)
{
    // Everything inline on the caller: nested regions, follow-up items
    // and dependency release must all make progress with no worker.
    ThreadPool pool(1);
    core::StageGraph graph;
    const std::size_t root = declareStage(graph, "root", {});
    const std::size_t leaf = declareStage(graph, "leaf", {root});
    std::atomic<int> cells{0};
    std::atomic<int> leaf_saw{0};
    graph.submit(root, 0, [&]() -> Status {
        for (int k = 0; k < 5; ++k)
            graph.submit(root, k, [&pool, &cells]() -> Status {
                pool.parallelFor(4, [&](std::size_t) { ++cells; });
                return Status::ok();
            });
        return Status::ok();
    });
    graph.submit(leaf, 0, [&]() -> Status {
        leaf_saw.store(cells.load());
        return Status::ok();
    });
    graph.execute(pool);
    EXPECT_EQ(cells.load(), 20);
    EXPECT_EQ(leaf_saw.load(), 20);
}

TEST(StageGraphExecute, StagesRecordThreadCpuAndTheirTimeline)
{
    ThreadPool pool(2);
    core::StageGraph graph;
    const std::size_t single = declareStage(graph, "single", {});
    const std::size_t multi = declareStage(graph, "multi", {single});
    const std::size_t idle = declareStage(graph, "idle", {});
    graph.submit(single, 0, [&]() -> Status {
        Result<int> out = graph.run<int>(
            single, nullptr, []() -> Result<int> { return 7; });
        return out.isOk() ? Status::ok() : out.status();
    });
    for (int k = 0; k < 3; ++k)
        graph.submit(multi, 0, [&]() -> Status {
            return graph.charged(multi, [] { return Status::ok(); });
        });
    graph.execute(pool);
    const auto &reports = graph.reports();
    for (const std::size_t id : {single, multi}) {
        EXPECT_GE(reports[id].worker, 0) << reports[id].name;
        EXPECT_LE(reports[id].startSeconds, reports[id].endSeconds);
        EXPECT_DOUBLE_EQ(reports[id].wallSeconds,
                         reports[id].endSeconds - reports[id].startSeconds);
        EXPECT_GE(reports[id].cpuSeconds, 0.0);
    }
    EXPECT_EQ(reports[single].cache, core::StageCacheState::Uncached);
    EXPECT_EQ(reports[multi].cache, core::StageCacheState::Uncached);
    // The dependent stage starts after its upstream ended.
    EXPECT_GE(reports[multi].startSeconds, reports[single].endSeconds);
    EXPECT_EQ(reports[idle].worker, -1);
    EXPECT_EQ(reports[idle].cache, core::StageCacheState::Skipped);
}

// --- runFingerprintingBatch --------------------------------------------

/** The CNN-LSTM the experiments use, at a tiny input length. */
core::PipelineConfig
batchPipeline()
{
    core::PipelineConfig pipeline;
    pipeline.numSites = 3;
    pipeline.tracesPerSite = 4;
    pipeline.openWorldExtra = 4;
    pipeline.featureLen = 32;
    pipeline.eval.folds = 2;
    ml::CnnLstmParams params = ml::CnnLstmParams::traceDefaults();
    params.inputChannels = 2;
    pipeline.factory = ml::cnnLstmFactory(params);
    return pipeline;
}

/** Two small, different configurations, each with both attackers, both
 *  evaluated by @p pipeline. */
std::vector<core::FingerprintJob>
twoJobs(const core::PipelineConfig &pipeline = batchPipeline())
{
    core::FingerprintJob chrome;
    chrome.collection = smallConfig();
    chrome.attackers = {attack::AttackerKind::LoopCounting,
                        attack::AttackerKind::SweepCounting};
    chrome.pipeline = pipeline;
    core::FingerprintJob firefox = chrome;
    firefox.collection.browser = web::BrowserProfile::firefox();
    firefox.collection.browser.traceDuration = 2 * kSec;
    firefox.collection.machine = sim::MachineConfig::windowsWorkstation();
    firefox.collection.seed = 29;
    return {chrome, firefox};
}

/** Sets every job's cache directory. */
void
setCacheDir(std::vector<core::FingerprintJob> &jobs, const std::string &dir)
{
    for (core::FingerprintJob &job : jobs)
        job.pipeline.cacheDir = dir;
}

std::vector<std::vector<core::FingerprintResult>>
sequentialRuns(const std::vector<core::FingerprintJob> &jobs)
{
    std::vector<std::vector<core::FingerprintResult>> out;
    for (const core::FingerprintJob &job : jobs)
        out.push_back(core::runFingerprintingSharedOrDie(
            job.collection, job.attackers, job.pipeline));
    return out;
}

/** Every result number and every stage's identity, provenance and
 *  deterministic accounting must match bit for bit. */
void
expectSameJobs(const std::vector<std::vector<core::FingerprintResult>> &got,
               const std::vector<std::vector<core::FingerprintResult>> &want,
               const std::string &where)
{
    ASSERT_EQ(got.size(), want.size()) << where;
    for (std::size_t j = 0; j < got.size(); ++j) {
        ASSERT_EQ(got[j].size(), want[j].size()) << where;
        for (std::size_t a = 0; a < got[j].size(); ++a) {
            const core::FingerprintResult &g = got[j][a];
            const core::FingerprintResult &w = want[j][a];
            const std::string at = where + " job " + std::to_string(j) +
                                   " attacker " + std::to_string(a);
            EXPECT_EQ(g.closedWorld.foldTop1, w.closedWorld.foldTop1) << at;
            EXPECT_EQ(g.closedWorld.foldTopK, w.closedWorld.foldTopK) << at;
            EXPECT_EQ(g.closedWorld.top1Mean, w.closedWorld.top1Mean) << at;
            EXPECT_EQ(g.hasOpenWorld, w.hasOpenWorld) << at;
            EXPECT_EQ(g.openWorld.openWorld.combinedAccuracy,
                      w.openWorld.openWorld.combinedAccuracy)
                << at;
            EXPECT_EQ(g.openWorld.openWorld.sensitiveAccuracy,
                      w.openWorld.openWorld.sensitiveAccuracy)
                << at;
            EXPECT_EQ(g.collectedTraces, w.collectedTraces) << at;
            EXPECT_EQ(g.droppedTraces, w.droppedTraces) << at;
            ASSERT_EQ(g.stages.size(), w.stages.size()) << at;
            for (std::size_t s = 0; s < g.stages.size(); ++s) {
                const core::StageReport &gs = g.stages[s];
                const core::StageReport &ws = w.stages[s];
                EXPECT_EQ(gs.name, ws.name) << at;
                EXPECT_EQ(gs.phase, ws.phase) << at << " " << gs.name;
                EXPECT_EQ(gs.fingerprint, ws.fingerprint) << at << " "
                                                          << gs.name;
                EXPECT_EQ(gs.cache, ws.cache) << at << " " << gs.name;
                EXPECT_EQ(gs.items, ws.items) << at << " " << gs.name;
                EXPECT_EQ(gs.dropped, ws.dropped) << at << " " << gs.name;
                EXPECT_EQ(gs.sim.eventsSimulated, ws.sim.eventsSimulated)
                    << at << " " << gs.name;
                EXPECT_EQ(gs.sim.bytesSorted, ws.sim.bytesSorted)
                    << at << " " << gs.name;
            }
        }
    }
}

/** Restores the SIMD dispatch tag when a test exits. */
class ScopedSimd
{
  public:
    ScopedSimd() : saved_(simd::active()) {}
    ~ScopedSimd() { simd::setActive(saved_); }

  private:
    simd::Tag saved_;
};

TEST(PipelineBatch, TwoJobBatchMatchesSequentialCallsAtEveryThreadCountAndSimd)
{
    auto jobs = twoJobs();
    // Two more jobs whose pipelines differ from the first two and from
    // each other: a one-channel featurization with its one-channel
    // CNN-LSTM at another input length, and kNN over the gap trace
    // beside the loop counter, closed world only.
    core::FingerprintJob mean_only = jobs[0];
    mean_only.attackers = {attack::AttackerKind::LoopCounting};
    mean_only.pipeline.featureLen = 24;
    mean_only.pipeline.featurization = core::Featurization::MeanOnly;
    ml::CnnLstmParams params = ml::CnnLstmParams::traceDefaults();
    params.inputChannels = 1;
    mean_only.pipeline.factory = ml::cnnLstmFactory(params);
    core::FingerprintJob gap = jobs[1];
    gap.attackers = {attack::AttackerKind::GapTrace,
                     attack::AttackerKind::LoopCounting};
    gap.pipeline.openWorldExtra = 0;
    gap.pipeline.eval.folds = 3;
    gap.pipeline.factory = ml::knnFactory(3);
    jobs.push_back(mean_only);
    jobs.push_back(gap);
    ScopedSimd restore;
    simd::setActive(simd::Tag::Scalar);
    std::vector<std::vector<core::FingerprintResult>> reference;
    {
        ScopedThreads scoped(1);
        reference = sequentialRuns(jobs);
    }
    for (const simd::Tag tag : {simd::Tag::Scalar, simd::Tag::Avx2}) {
        const simd::Tag active = simd::setActive(tag);
        for (const int threads : {1, 2, 4, 8}) {
            ScopedThreads scoped(threads);
            auto batch = core::runFingerprintingBatch(jobs);
            ASSERT_TRUE(batch.isOk()) << batch.status().toString();
            expectSameJobs(batch.value(), reference,
                           std::string(simd::name(active)) + " x" +
                               std::to_string(threads));
        }
    }
}

/** A fresh, empty cache directory under the test temp dir. */
std::string
freshCacheDir(const std::string &leaf)
{
    const std::string dir = testing::TempDir() + "bf_batch_cache_" + leaf;
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
    return dir;
}

// --- The ablations' former direct path, as an oracle ------------------

/** The featurization the ablation built by hand before it ran on the
 *  stage graph: channel by channel over the whole trace set. */
ml::Dataset
directDataset(const attack::TraceSet &traces, std::size_t feature_len,
              int num_classes, bool mean_channel, bool dip_channel,
              bool winsorized)
{
    ml::Dataset data;
    for (const attack::Trace &trace : traces.traces) {
        std::vector<double> x;
        if (mean_channel) {
            const auto means = trace.meanFeatures(feature_len);
            const auto z = stats::zscore(winsorized ? stats::winsorize(means)
                                                    : means);
            x.insert(x.end(), z.begin(), z.end());
        }
        if (dip_channel) {
            const auto z = stats::zscore(trace.dipFeatures(feature_len));
            x.insert(x.end(), z.begin(), z.end());
        }
        data.add(std::move(x), trace.label);
    }
    data.numClasses = std::max(data.numClasses, num_classes);
    return data;
}

/** Closed-world k-fold cross-validation, one fold after another. */
ml::EvalResult
directCrossValidate(const ml::ClassifierFactory &factory,
                    const ml::Dataset &data, const ml::EvalConfig &config)
{
    std::vector<ml::FoldScores> folds;
    for (const ml::FoldSplit &split :
         ml::kFoldSplits(data.size(), config.folds, config.valFraction,
                         config.seed)) {
        const auto model = ml::trainFoldClassifier(
            factory, data, split,
            config.seed + ml::kClosedWorldFoldSeedBase + folds.size());
        folds.push_back(ml::scoreFold(*model, data, split.test));
    }
    return ml::aggregateFolds(folds, config.topK);
}

void
expectSameEval(const ml::EvalResult &got, const ml::EvalResult &want,
               const std::string &where)
{
    EXPECT_EQ(got.foldTop1, want.foldTop1) << where;
    EXPECT_EQ(got.foldTopK, want.foldTopK) << where;
    EXPECT_EQ(got.top1Mean, want.top1Mean) << where;
    EXPECT_EQ(got.top1Std, want.top1Std) << where;
    EXPECT_EQ(got.topKMean, want.topKMean) << where;
    EXPECT_EQ(got.topKStd, want.topKStd) << where;
}

TEST(PipelineBatch, FeaturizationVariantsAndGapTraceMatchTheDirectPath)
{
    core::PipelineConfig pipeline = batchPipeline();
    pipeline.openWorldExtra = 0;
    ml::CnnLstmParams params = ml::CnnLstmParams::traceDefaults();
    params.convFilters = 4;
    params.lstmUnits = 4;
    params.maxEpochs = 3;
    params.patience = 3;
    const auto factory = [&](std::size_t channels) {
        ml::CnnLstmParams p = params;
        p.inputChannels = channels;
        return ml::cnnLstmFactory(p);
    };
    const core::CollectionConfig collection = smallConfig();

    struct Variant
    {
        core::Featurization featurization;
        bool mean, dip, winsor;
        std::size_t channels;
    };
    const Variant variants[] = {
        {core::Featurization::MeanDip, true, true, true, 2},
        {core::Featurization::MeanOnly, true, false, true, 1},
        {core::Featurization::DipOnly, false, true, true, 1},
        {core::Featurization::MeanDipUnwinsorized, true, true, false, 2},
    };

    // The direct path: one closed-world collection, every variant
    // featurized from it, and the gap traces from a serial loop over
    // the same timelines.
    std::vector<ml::EvalResult> want;
    {
        ScopedThreads scoped(1);
        const core::TraceCollector collector(collection);
        const web::SiteCatalog catalog(pipeline.numSites,
                                       pipeline.catalogSeed);
        const attack::TraceSet loop =
            collector.collectClosedWorld(catalog, pipeline.tracesPerSite)
                .valueOrDie();
        for (const Variant &v : variants)
            want.push_back(directCrossValidate(
                factory(v.channels),
                directDataset(loop, pipeline.featureLen, pipeline.numSites,
                              v.mean, v.dip, v.winsor),
                pipeline.eval));
        attack::TraceSet gap;
        for (SiteId id = 0; id < catalog.size(); ++id) {
            for (int run = 0; run < pipeline.tracesPerSite; ++run) {
                auto timeline =
                    collector.synthesizeTimeline(catalog.site(id), run);
                attack::Trace t =
                    attack::collectGapTrace(timeline,
                                            collection.effectivePeriod())
                        .valueOrDie();
                sim::giveBack(timeline);
                t.siteId = id;
                t.label = id;
                gap.add(std::move(t));
            }
        }
        want.push_back(directCrossValidate(
            factory(2),
            core::toDataset(loop, pipeline.featureLen, pipeline.numSites),
            pipeline.eval));
        want.push_back(directCrossValidate(
            factory(2),
            core::toDataset(gap, pipeline.featureLen, pipeline.numSites),
            pipeline.eval));
    }

    // The same evaluations as one batch: a job per variant, then the
    // loop counter and the gap trace sharing one collection.
    std::vector<core::FingerprintJob> jobs;
    for (const Variant &v : variants) {
        core::FingerprintJob job{
            collection, {attack::AttackerKind::LoopCounting}, pipeline};
        job.pipeline.featurization = v.featurization;
        job.pipeline.factory = factory(v.channels);
        jobs.push_back(std::move(job));
    }
    jobs.push_back({collection,
                    {attack::AttackerKind::LoopCounting,
                     attack::AttackerKind::GapTrace},
                    pipeline});
    jobs.back().pipeline.factory = factory(2);
    for (const int threads : {1, 4}) {
        ScopedThreads scoped(threads);
        const auto batch = core::runFingerprintingBatch(jobs).valueOrDie();
        const std::string at = "x" + std::to_string(threads);
        for (std::size_t v = 0; v < std::size(variants); ++v)
            expectSameEval(batch[v][0].closedWorld, want[v],
                           at + " variant " + std::to_string(v));
        expectSameEval(batch.back()[0].closedWorld, want[4], at + " loop");
        expectSameEval(batch.back()[1].closedWorld, want[5], at + " gap");
        EXPECT_EQ(batch.back()[1].stages[0].name, "featurize/gap-trace");
    }
}

TEST(PipelineBatch, DefaultFeaturizeCanonIsPinned)
{
    // Featurized cache keys are a function of this text: a tool that
    // looks entries up by key rebuilds it, so the default featurization
    // must keep it as it is; another variant appends exactly one line.
    core::PipelineConfig pipeline = batchPipeline();
    pipeline.openWorldExtra = 0;
    pipeline.factory = ml::knnFactory(1);
    core::FingerprintJob job{
        smallConfig(), {attack::AttackerKind::LoopCounting}, pipeline};
    core::FingerprintJob dip_only = job;
    dip_only.pipeline.featurization = core::Featurization::DipOnly;
    const std::vector<core::FingerprintJob> jobs = {job, dip_only};
    const auto batch = core::runFingerprintingBatch(jobs).valueOrDie();

    char collection[24];
    std::snprintf(collection, sizeof(collection), "%016" PRIx64,
                  core::collectionFingerprint(job.collection,
                                              pipeline.catalogSeed,
                                              pipeline.numSites,
                                              pipeline.openWorldExtra,
                                              job.attackers));
    const std::uint64_t collect[] = {core::stageFingerprint(
        "collect", std::string("collection=") + collection + "\n", {})};
    const std::string canon = "format=bigfish-features-v1\n"
                              "featureLen=32\n"
                              "numSites=3\n"
                              "openExtra=0\n"
                              "attacker=loop-counting\n";
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        ASSERT_EQ(batch[j][0].stages[0].fingerprint, collect[0]);
        ASSERT_EQ(batch[j][0].stages[1].name, "featurize/loop-counting");
    }
    EXPECT_EQ(batch[0][0].stages[1].fingerprint,
              core::stageFingerprint("featurize/loop-counting", canon,
                                     collect));
    EXPECT_EQ(batch[1][0].stages[1].fingerprint,
              core::stageFingerprint("featurize/loop-counting",
                                     canon + "featurization=dip-only\n",
                                     collect));
}

TEST(PipelineBatch, RejectsJobsThatNameDifferentCacheDirs)
{
    auto jobs = twoJobs();
    jobs[1].pipeline.cacheDir = freshCacheDir("other");
    const auto batch = core::runFingerprintingBatch(jobs);
    ASSERT_FALSE(batch.isOk());
    EXPECT_EQ(batch.status().code(), ErrorCode::InvalidArgument);
}

TEST(PipelineBatch, CacheProvenanceMatchesSequentialColdFreshAndWarm)
{
    ScopedThreads scoped(4);
    auto jobs = twoJobs();

    // No cache at all: every cacheable stage reports Disabled.
    expectSameJobs(core::runFingerprintingBatch(jobs).valueOrDie(),
                   sequentialRuns(jobs), "uncached");

    // A fresh cache directory: everything computes and is stored; then
    // a warm rerun replays featurized data and fold scores.
    const std::string seq_dir = freshCacheDir("sequential");
    const std::string batch_dir = freshCacheDir("batch");
    for (const char *pass : {"fresh", "warm"}) {
        setCacheDir(jobs, seq_dir);
        const auto sequential = sequentialRuns(jobs);
        setCacheDir(jobs, batch_dir);
        const auto batch = core::runFingerprintingBatch(jobs).valueOrDie();
        expectSameJobs(batch, sequential, pass);
        const core::StageCacheState featurized = batch[0][0].stages[1].cache;
        EXPECT_EQ(featurized, std::string(pass) == "warm"
                                  ? core::StageCacheState::Hit
                                  : core::StageCacheState::Stored)
            << pass;
    }
}

TEST(PipelineBatch, FirstFailingJobInDeclarationOrderWinsAndOthersDrain)
{
    ScopedThreads scoped(4);
    core::PipelineConfig pipeline = batchPipeline();
    pipeline.factory = ml::knnFactory(3);
    pipeline.openWorldExtra = 0;

    std::vector<core::FingerprintJob> jobs = twoJobs(pipeline);
    // Job 1: every trace truncated away, so its collection fails at run
    // time. Job 2: no attackers, rejected when declared. Job 3 is fine.
    core::FingerprintJob starved = jobs[0];
    starved.collection.faults.truncateProb = 1.0;
    starved.collection.faults.truncateKeepMin = 0.0;
    starved.collection.faults.truncateKeepMax = 0.0001;
    starved.collection.faults.seed = 3;
    core::FingerprintJob empty = jobs[1];
    empty.attackers.clear();
    const std::vector<core::FingerprintJob> batch_jobs = {jobs[0], starved,
                                                          empty, jobs[1]};

    const auto sequential_status = core::runFingerprintingShared(
        starved.collection, starved.attackers, pipeline);
    ASSERT_FALSE(sequential_status.isOk());

    const auto batch = core::runFingerprintingBatch(batch_jobs);
    ASSERT_FALSE(batch.isOk());
    EXPECT_EQ(batch.status().toString(),
              sequential_status.status().toString());

    // With the failing jobs later in declaration order, the earlier
    // job's failure still wins over a declare-time rejection.
    const std::vector<core::FingerprintJob> reordered = {empty, starved};
    const auto first = core::runFingerprintingBatch(reordered);
    ASSERT_FALSE(first.isOk());
    EXPECT_EQ(first.status().toString(),
              Status(invalidArgumentError("need at least one attacker kind"))
                  .toString());
}

/** Runs @p jobs and returns how far the live heap, as counted by the
 *  operator new/delete replacement at the top of this file, rose above
 *  where it started. */
std::size_t
peakHeapGrowth(std::span<const core::FingerprintJob> jobs)
{
    const long long before = gLiveHeapBytes.load();
    gPeakHeapBytes.store(before);
    EXPECT_TRUE(core::runFingerprintingBatch(jobs).isOk());
    const long long peak = gPeakHeapBytes.load();
    return peak > before ? static_cast<std::size_t>(peak - before) : 0;
}

TEST(PipelineBatch, RawTracesAreReleasedOnceFeaturizationFinishes)
{
    // Each collection task featurizes its own cell, so a cell's raw
    // traces never outlive it; with a cache they live until their
    // chunk (one site's runs) is committed. On one thread at most one
    // cell, or one chunk plus its encoded payload, is alive at a time,
    // so the heap never comes near the job's whole raw collection.
    ScopedThreads scoped(1);
    core::FingerprintJob job;
    job.collection = smallConfig();
    job.collection.browser.traceDuration = 15 * kSec;
    job.attackers = {attack::AttackerKind::LoopCounting,
                     attack::AttackerKind::SweepCounting};
    core::PipelineConfig &pipeline = job.pipeline;
    pipeline.numSites = 12;
    pipeline.tracesPerSite = 4;
    pipeline.featureLen = 8;
    pipeline.eval.folds = 2;
    pipeline.factory = ml::knnFactory(1);

    // What the job's raw traces weigh, from the same collection.
    std::size_t raw_bytes = 0;
    {
        const core::TraceCollector collector(job.collection);
        const web::SiteCatalog catalog(pipeline.numSites,
                                       pipeline.catalogSeed);
        const auto sets = collector
                              .collectClosedWorldMulti(
                                  catalog, pipeline.tracesPerSite,
                                  job.attackers)
                              .valueOrDie();
        for (const attack::TraceSet &set : sets)
            for (const attack::Trace &trace : set.traces)
                raw_bytes += trace.counts.size() * sizeof(trace.counts[0]) +
                             trace.wallTimes.size() *
                                 sizeof(trace.wallTimes[0]);
    }
    ASSERT_GT(raw_bytes, std::size_t{2} << 20);
    ASSERT_GT(gLiveHeapBytes.load(), 0) << "the heap counter sees nothing";

    std::vector<core::FingerprintJob> jobs = {job};
    // A first run warms the worker's simulator arena and every lazily
    // built table, so the measured runs see only what they hold.
    ASSERT_TRUE(core::runFingerprintingBatch(jobs).isOk());

    const std::size_t uncached = peakHeapGrowth(jobs);
    EXPECT_LT(uncached, raw_bytes / 4)
        << "raw traces (" << raw_bytes << " B) outlived their cells";

    const std::string cache_dir =
        testing::TempDir() + "bf_raw_release_cache";
    std::filesystem::remove_all(cache_dir);
    setCacheDir(jobs, cache_dir);
    const std::size_t cached = peakHeapGrowth(jobs);
    EXPECT_LT(cached, raw_bytes / 2)
        << "raw traces (" << raw_bytes << " B) outlived their chunk";
    std::filesystem::remove_all(cache_dir);
}

} // namespace
} // namespace bigfish
