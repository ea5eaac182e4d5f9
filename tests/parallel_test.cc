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
#include "core/collector.hh"
#include "core/pipeline.hh"
#include "core/stage.hh"
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

ml::Dataset
tinyDataset()
{
    // Separable two-class data; enough rows for 3 folds, and long
    // enough rows for the CNN-LSTM's two conv + pool stages.
    ml::Dataset data;
    Rng rng(99);
    for (int i = 0; i < 24; ++i) {
        const Label y = i % 2;
        std::vector<double> x(64);
        for (auto &v : x)
            v = rng.normal(y == 0 ? -1.0 : 1.0, 0.3);
        data.add(std::move(x), y);
    }
    return data;
}

TEST(ParallelCrossValidation, FoldMetricsMatchAcrossThreadCounts)
{
    // A tiny CNN-LSTM: the folds train concurrently, each from its own
    // seed, so any thread-count dependence in seeded training shows up
    // in the fold metrics.
    const auto data = tinyDataset();
    ml::EvalConfig config;
    config.folds = 3;
    config.seed = 5;
    ml::CnnLstmParams params;
    params.convFilters = 4;
    params.lstmUnits = 4;
    params.maxEpochs = 3;
    params.patience = 3;

    const auto run = [&](int threads) {
        ScopedThreads scoped(threads);
        return ml::crossValidate(ml::cnnLstmFactory(params), data, config);
    };
    const auto serial = run(1);
    const auto parallel = run(8);

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

/** Two small, different configurations, each with both attackers. */
std::vector<core::FingerprintJob>
twoJobs()
{
    core::FingerprintJob chrome;
    chrome.collection = smallConfig();
    chrome.attackers = {attack::AttackerKind::LoopCounting,
                        attack::AttackerKind::SweepCounting};
    core::FingerprintJob firefox = chrome;
    firefox.collection.browser = web::BrowserProfile::firefox();
    firefox.collection.browser.traceDuration = 2 * kSec;
    firefox.collection.machine = sim::MachineConfig::windowsWorkstation();
    firefox.collection.seed = 29;
    return {chrome, firefox};
}

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

std::vector<std::vector<core::FingerprintResult>>
sequentialRuns(const std::vector<core::FingerprintJob> &jobs,
               const core::PipelineConfig &pipeline)
{
    std::vector<std::vector<core::FingerprintResult>> out;
    for (const core::FingerprintJob &job : jobs)
        out.push_back(core::runFingerprintingSharedOrDie(
            job.collection, job.attackers, pipeline));
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
    const auto jobs = twoJobs();
    const auto pipeline = batchPipeline();
    ScopedSimd restore;
    simd::setActive(simd::Tag::Scalar);
    std::vector<std::vector<core::FingerprintResult>> reference;
    {
        ScopedThreads scoped(1);
        reference = sequentialRuns(jobs, pipeline);
    }
    for (const simd::Tag tag : {simd::Tag::Scalar, simd::Tag::Avx2}) {
        const simd::Tag active = simd::setActive(tag);
        for (const int threads : {1, 2, 4, 8}) {
            ScopedThreads scoped(threads);
            auto batch = core::runFingerprintingBatch(jobs, pipeline);
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

TEST(PipelineBatch, CacheProvenanceMatchesSequentialColdFreshAndWarm)
{
    ScopedThreads scoped(4);
    const auto jobs = twoJobs();
    auto pipeline = batchPipeline();

    // No cache at all: every cacheable stage reports Disabled.
    expectSameJobs(core::runFingerprintingBatch(jobs, pipeline).valueOrDie(),
                   sequentialRuns(jobs, pipeline), "uncached");

    // A fresh cache directory: everything computes and is stored; then
    // a warm rerun replays featurized data and fold scores.
    const std::string seq_dir = freshCacheDir("sequential");
    const std::string batch_dir = freshCacheDir("batch");
    for (const char *pass : {"fresh", "warm"}) {
        pipeline.cacheDir = seq_dir;
        const auto sequential = sequentialRuns(jobs, pipeline);
        pipeline.cacheDir = batch_dir;
        const auto batch =
            core::runFingerprintingBatch(jobs, pipeline).valueOrDie();
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

    std::vector<core::FingerprintJob> jobs = twoJobs();
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

    const auto batch = core::runFingerprintingBatch(batch_jobs, pipeline);
    ASSERT_FALSE(batch.isOk());
    EXPECT_EQ(batch.status().toString(),
              sequential_status.status().toString());

    // With the failing jobs later in declaration order, the earlier
    // job's failure still wins over a declare-time rejection.
    const std::vector<core::FingerprintJob> reordered = {empty, starved};
    const auto first = core::runFingerprintingBatch(reordered, pipeline);
    ASSERT_FALSE(first.isOk());
    EXPECT_EQ(first.status().toString(),
              Status(invalidArgumentError("need at least one attacker kind"))
                  .toString());
}

/** Runs @p jobs and returns how far the live heap, as counted by the
 *  operator new/delete replacement at the top of this file, rose above
 *  where it started. */
std::size_t
peakHeapGrowth(std::span<const core::FingerprintJob> jobs,
               const core::PipelineConfig &pipeline)
{
    const long long before = gLiveHeapBytes.load();
    gPeakHeapBytes.store(before);
    EXPECT_TRUE(core::runFingerprintingBatch(jobs, pipeline).isOk());
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
    core::PipelineConfig pipeline;
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

    const std::vector<core::FingerprintJob> jobs = {job};
    // A first run warms the worker's simulator arena and every lazily
    // built table, so the measured runs see only what they hold.
    ASSERT_TRUE(core::runFingerprintingBatch(jobs, pipeline).isOk());

    const std::size_t uncached = peakHeapGrowth(jobs, pipeline);
    EXPECT_LT(uncached, raw_bytes / 4)
        << "raw traces (" << raw_bytes << " B) outlived their cells";

    pipeline.cacheDir = testing::TempDir() + "bf_raw_release_cache";
    std::filesystem::remove_all(pipeline.cacheDir);
    const std::size_t cached = peakHeapGrowth(jobs, pipeline);
    EXPECT_LT(cached, raw_bytes / 2)
        << "raw traces (" << raw_bytes << " B) outlived their chunk";
    std::filesystem::remove_all(pipeline.cacheDir);
}

} // namespace
} // namespace bigfish
