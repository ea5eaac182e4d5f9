/**
 * @file
 * The stage graph: typed, content-addressed pipeline phases.
 *
 * The paper's evaluation protocol is an explicit dataflow — collect
 * traces → featurize → train per fold → score per fold → aggregate —
 * and this framework makes each arrow a declared *stage* with three
 * properties by construction:
 *
 *  1. A deterministic input fingerprint. Every stage hashes its own
 *     canonical configuration text (same one-line-per-field discipline
 *     as collectionFingerprint()) together with its upstream stages'
 *     fingerprints: fp = mix64-fold(fnv64("stage=<name>\n" + canon),
 *     upstream fps). Because the composition uses input fingerprints
 *     rather than output hashes, every stage's key is computable
 *     before anything runs — which is what lets a warm run probe the
 *     cache bottom-up and skip whole upstream subgraphs (a hit on
 *     every Featurize stage means Collect never executes at all).
 *
 *  2. Uniform caching. A stage with a StageCodec stores its output in
 *     the StageCache under (codec.kind, fingerprint) and replays it
 *     bit-identically on the next run with the same fingerprint;
 *     stages without a codec (cheap or inherently local ones) simply
 *     recompute. The Collect stage persists its raw traces the same
 *     way, one entry per collection chunk, so resuming a killed run is
 *     just a rerun with the same `--cache-dir`.
 *
 *  3. Framework-collected observability. Every execution records
 *     wall/CPU seconds, cache provenance (hit, miss, stored, ...) and
 *     item/drop accounting into a StageReport; the reports become the
 *     artifact's per-stage table and the `--explain` output. Pipeline
 *     code never touches a stopwatch (enforced by the bigfish-lint
 *     stage-timing rule).
 *
 * Execution: declare the whole graph up front on one thread, attach
 * work items to stages with submit(), then execute(): one priority
 * ready-queue executor (base/thread_pool.hh) runs each stage's items
 * once every upstream stage is done, on exactly the pool's thread
 * count, with no barriers between stages. A stage whose upstream failed
 * never runs. Each stage id owns a distinct, pre-reserved report slot,
 * and results stay bit-identical at any thread count because
 * fingerprints, seeds and aggregation order are all fixed at
 * declaration time.
 */

#ifndef BF_CORE_STAGE_HH
#define BF_CORE_STAGE_HH

#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.hh"
#include "base/stopwatch.hh" // bigfish-lint: allow(stage-timing)
#include "base/thread_pool.hh"
#include "core/stage_cache.hh"
#include "sim/perf.hh"

namespace bigfish::core {

/** Where a stage's output came from (the `--explain` provenance). */
enum class StageCacheState
{
    /** No cache directory configured for the run. */
    Disabled,
    /** The stage declares no codec; it always recomputes. */
    Uncached,
    /** Probed the cache, found nothing, computed fresh. */
    Miss,
    /** Replayed bit-identically from the cache. */
    Hit,
    /** Computed fresh and committed to the cache. */
    Stored,
    /** Computed fresh but the cache commit failed (warned, non-fatal). */
    StoreFailed,
    /** Never executed: a downstream cache hit made it unnecessary. */
    Skipped,
};

/** Stable lowercase name for @p state ("hit", "store-failed", ...). */
const char *stageCacheStateName(StageCacheState state);

/** One stage's execution record; the unit of the artifact's per-stage
 *  table and the `--explain` output. */
struct StageReport
{
    /** Unique stage instance name, e.g. "train/loop/closed/f3". */
    std::string name;
    /** Artifact phase rollup bucket: collect|featurize|train|eval. */
    std::string phase;
    /** The content-addressed input fingerprint. */
    std::uint64_t fingerprint = 0;
    /** Defaults to Skipped so never-run stages report honestly. */
    StageCacheState cache = StageCacheState::Skipped;
    /** CPU seconds of this stage's execution: the sum of the
     *  thread-CPU of every task that ran it. */
    double cpuSeconds = 0.0;
    /** Elapsed seconds from the stage's first task starting to its last
     *  task ending (endSeconds - startSeconds). Stages overlap, so wall
     *  sums across stages can exceed the run's true wall clock; the
     *  artifact's phase rollups are interval unions instead. */
    double wallSeconds = 0.0;
    /** Offsets on the run clock (stageClockSeconds()) of the stage's
     *  first task start and last task end. */
    double startSeconds = 0.0;
    double endSeconds = 0.0;
    /** currentWorkerIndex() of the thread that started the stage; -1
     *  while it has never run. */
    int worker = -1;
    /** Units produced (traces collected, samples featurized, ...). */
    std::size_t items = 0;
    /** Units lost (dropped traces). */
    std::size_t dropped = 0;
    /** Simulator work counters (sim/perf.hh); zero for stages that do
     *  no simulation and for cache replays, exactly like cpuSeconds
     *  measures work performed rather than represented. */
    sim::PerfCounters sim;
};

/**
 * The run clock: monotonic seconds since the first call in this
 * process. Stage start/end offsets are on this clock, so reports from
 * separate graphs share one timeline.
 */
double stageClockSeconds();

/**
 * The fingerprint composition rule: hash the stage's identity and
 * canonical config text, then fold in each upstream fingerprint in
 * order. mix64 finalization after each fold keeps related inputs from
 * producing related keys.
 */
[[nodiscard]] std::uint64_t
stageFingerprint(std::string_view name, std::string_view canon,
                 std::span<const std::uint64_t> upstream);

/**
 * How a stage output of type Out crosses the cache boundary. encode
 * returning "" means "don't store" (e.g. a model that cannot
 * serialize); decode returning nullopt rejects a stale-format payload,
 * which is removed and treated as a miss.
 */
template <typename Out>
struct StageCodec
{
    /** Cache namespace, e.g. "featurized", "model", "scores". */
    std::string kind;
    std::function<std::string(const Out &)> encode;
    std::function<std::optional<Out>(const std::string &)> decode;
};

/**
 * A declared pipeline run: stage ids, fingerprints and report slots
 * are all fixed up front; execution then fills the reports in place.
 */
class StageGraph
{
  public:
    /** @p cache may be null (no --cache-dir): stages all recompute. */
    explicit StageGraph(StageCache *cache = nullptr) : cache_(cache) {}

    StageGraph(const StageGraph &) = delete;
    StageGraph &operator=(const StageGraph &) = delete;

    /**
     * Declares one stage and returns its id. @p upstream lists the ids
     * of the stages whose outputs feed this one; their fingerprints
     * (already fixed — declare dependencies first) compose into this
     * stage's fingerprint. Main thread only.
     */
    std::size_t declare(std::string name, std::string phase,
                        std::string_view canon,
                        std::span<const std::size_t> upstream);

    std::uint64_t
    fingerprint(std::size_t id) const
    {
        return reports_[id].fingerprint;
    }

    /**
     * Probes the cache for stage @p id without running anything. On a
     * hit the report records Hit plus the replay cost and the decoded
     * output is returned; on a miss the report is left untouched
     * (still Skipped) so the caller can decide what to run. Safe from
     * pool threads.
     */
    template <typename Out>
    std::optional<Out>
    fromCache(std::size_t id, const StageCodec<Out> &codec)
    {
        if (cache_ == nullptr)
            return std::nullopt;
        const double start = stageClockSeconds();
        const double cpu_start = threadCpuSeconds();
        std::optional<std::string> payload =
            cache_->lookup(codec.kind, reports_[id].fingerprint);
        if (payload) {
            std::optional<Out> out = codec.decode(*payload);
            if (out) {
                reports_[id].cache = StageCacheState::Hit;
                charge(id, start, cpu_start);
                return out;
            }
            // CRC-intact but semantically undecodable (stale format):
            // dead weight either way.
            cache_->remove(codec.kind, reports_[id].fingerprint);
        }
        return std::nullopt;
    }

    /**
     * Executes stage @p id: probes the cache (when @p codec is
     * non-null and @p probe — pass probe=false after an explicit
     * fromCache() miss), else runs @p body, charges its thread-CPU and
     * interval to the stage, records cache provenance, and commits the
     * output when cacheable. Errors from @p body propagate with the
     * report still recording the attempt's cost. Safe from pool
     * threads.
     */
    template <typename Out, typename Body>
    [[nodiscard]] Result<Out>
    run(std::size_t id, const StageCodec<Out> *codec, Body &&body,
        bool probe = true)
    {
        if (codec != nullptr && probe) {
            std::optional<Out> cached = fromCache(id, *codec);
            if (cached)
                return Result<Out>(std::move(*cached));
        }
        StageReport &report = reports_[id];
        const double start = stageClockSeconds();
        const double cpu_start = threadCpuSeconds();
        Result<Out> out = body();
        charge(id, start, cpu_start);
        if (codec == nullptr) {
            report.cache = StageCacheState::Uncached;
            return out;
        }
        if (cache_ == nullptr) {
            report.cache = StageCacheState::Disabled;
            return out;
        }
        report.cache = StageCacheState::Miss;
        if (!out.isOk())
            return out;
        const std::string payload = codec->encode(out.value());
        if (payload.empty())
            return out;
        Status stored = cache_->put(codec->kind, report.fingerprint,
                                      payload);
        if (stored.isOk()) {
            report.cache = StageCacheState::Stored;
        } else {
            report.cache = StageCacheState::StoreFailed;
            warn("stage cache store failed for " + report.name + ": " +
                 stored.toString());
        }
        return out;
    }

    /**
     * Runs @p body as one more piece of stage @p id's work: its
     * thread-CPU adds to the stage's cpuSeconds and its interval widens
     * the stage's [start, end]. For stages whose work is several tasks
     * (collection cells); several tasks may charge one stage
     * concurrently. A stage that records no provenance of its own
     * (setCacheState()) reports Uncached. Safe from pool threads.
     */
    template <typename Body>
    [[nodiscard]] Status
    charged(std::size_t id, Body &&body)
    {
        const double start = stageClockSeconds();
        const double cpu_start = threadCpuSeconds();
        Status status = body();
        charge(id, start, cpu_start);
        return status;
    }

    /** Stage work: returns the stage's failure, if any. */
    using Work = std::function<Status()>;

    /**
     * Attaches one work item to stage @p id. Before execute(), items
     * wait until every upstream stage is done; from inside a running
     * item of stage @p id (e.g. fanning collection out into chunks)
     * they are queued at once. The stage is done when all its items
     * have finished; a stage with no items is done as soon as its
     * upstreams are. Higher @p priority runs first; a @p pinned item
     * runs only on the thread that called execute(). Safe from pool
     * threads.
     */
    void submit(std::size_t id, std::int64_t priority, Work work,
                bool pinned = false);

    /**
     * Execution-only ordering: stage @p then does not become ready
     * before stage @p first is done, though neither's fingerprint
     * changes and a failure of @p first does not cancel @p then.
     * Before execute() only.
     */
    void after(std::size_t first, std::size_t then);

    /**
     * Runs every submitted item on @p pool, each stage once its
     * upstreams are done, and returns when the whole graph has drained.
     * A failed stage (an item returning a non-OK Status) cancels its
     * downstream stages, which then never run; unrelated stages run to
     * completion. An exception thrown by an item fails its stage the
     * same way and is rethrown here after the graph drains. Call once,
     * from the declaring thread.
     */
    void execute(ThreadPool &pool = globalPool());

    /** The first failure recorded for stage @p id (OK when it ran
     *  cleanly, was cancelled or never had work). */
    const Status &status(std::size_t id) const { return nodes_[id].status; }

    /** Records item/drop accounting for stage @p id. */
    void
    setCounts(std::size_t id, std::size_t items, std::size_t dropped)
    {
        reports_[id].items = items;
        reports_[id].dropped = dropped;
    }

    /** Records stage @p id's cache provenance, for stages whose work
     *  is several charged() tasks. Safe from pool threads. */
    void
    setCacheState(std::size_t id, StageCacheState state)
    {
        std::lock_guard<std::mutex> lock(chargeMutex_);
        reports_[id].cache = state;
    }

    /** Records simulator work counters for stage @p id. */
    void
    setSimCounters(std::size_t id, const sim::PerfCounters &counters)
    {
        reports_[id].sim = counters;
    }

    const std::vector<StageReport> &reports() const { return reports_; }

    StageCache *cache() const { return cache_; }

  private:
    /** Execution state of one stage; guarded by execMutex_. */
    struct Node
    {
        std::vector<std::size_t> downstream;
        /** Stages ordered after this one by after(). */
        std::vector<std::size_t> followers;
        /** Upstream (and after()-ordered) stages not yet done. */
        std::size_t upstreamLeft = 0;
        /** Items queued on the pool and not yet finished. */
        std::size_t outstanding = 0;
        /** Items submitted before the stage became ready. */
        struct Item
        {
            std::int64_t priority;
            Work work;
            bool pinned;
        };
        std::vector<Item> waiting;
        bool ready = false;
        bool done = false;
        /** An upstream failed: the stage's items never run. */
        bool cancelled = false;
        Status status;
    };

    /** The calling thread's CPU clock. */
    static double
    threadCpuSeconds()
    {
        // bigfish-lint: allow(stage-timing)
        return detail::posixClockSeconds(CLOCK_THREAD_CPUTIME_ID);
    }

    /** Adds [start, now] and the thread-CPU since @p cpu_start to
     *  stage @p id's report; a stage that has not recorded its
     *  provenance yet becomes Uncached (it ran). */
    void charge(std::size_t id, double start, double cpu_start);

    /** Queues @p work for stage @p id on the executing pool. */
    void enqueueLocked(std::size_t id, std::int64_t priority, Work work,
                       bool pinned);
    /** Records one finished item of stage @p id (its Status, and the
     *  exception it threw, if any); the last one completes the stage. */
    void finishItem(std::size_t id, Status status, std::exception_ptr error);
    void readyLocked(std::size_t id);
    void completeLocked(std::size_t id);

    StageCache *cache_;
    std::vector<StageReport> reports_;
    std::vector<Node> nodes_;
    std::mutex chargeMutex_;
    std::mutex execMutex_;
    /** The executing group while execute() runs, else null. */
    TaskGroup *group_ = nullptr;
    std::exception_ptr error_;
};

} // namespace bigfish::core

#endif // BF_CORE_STAGE_HH
