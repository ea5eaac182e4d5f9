#include "core/pipeline.hh"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>

#include "base/logging.hh"
#include "core/checkpoint.hh"
#include "core/stage_cache.hh"
#include "stats/descriptive.hh"

namespace bigfish::core {

std::vector<double>
featureRow(const attack::Trace &trace, std::size_t feature_len,
           Featurization variant)
{
    // By default two channels, concatenated channel-major:
    //   channel 0 — bucket means, winsorized (so single preemption-eaten
    //   periods cannot compress the trace's dynamic range) and
    //   standardized (counter values sit in a narrow band near their
    //   maximum; centered inputs are what make the gradient-based
    //   classifier train efficiently);
    //   channel 1 — sub-bucket dip depth, the fine-timescale interrupt
    //   texture that bucket averages smooth away.
    std::vector<double> x;
    if (variant != Featurization::DipOnly) {
        const std::vector<double> means = trace.meanFeatures(feature_len);
        x = stats::zscore(variant == Featurization::MeanDipUnwinsorized
                              ? means
                              : stats::winsorize(means));
    }
    if (variant != Featurization::MeanOnly) {
        const auto dip = stats::zscore(trace.dipFeatures(feature_len));
        x.insert(x.end(), dip.begin(), dip.end());
    }
    return x;
}

ml::Dataset
toDataset(const attack::TraceSet &traces, std::size_t feature_len,
          int num_classes)
{
    ml::Dataset data;
    data.features.reserve(traces.size());
    data.labels.reserve(traces.size());
    for (const attack::Trace &trace : traces.traces)
        data.add(featureRow(trace, feature_len), trace.label);
    data.numClasses = std::max(data.numClasses, num_classes);
    return data;
}

namespace {

/**
 * Distinct labels present in a (possibly fault-degraded) dataset —
 * dropping traces can silently empty out whole classes, which would
 * make the k-fold split degenerate.
 */
int
distinctLabels(std::vector<Label> labels)
{
    std::sort(labels.begin(), labels.end());
    labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
    return static_cast<int>(labels.size());
}

std::string
hex16(std::uint64_t value)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
    return buf;
}

/** Bit-exact hexfloat text for canonical config lines. */
std::string
hexDouble(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

/** One trace's dataset row and label. */
struct LabeledRow
{
    std::vector<double> x;
    Label label = 0;
};

/** A collection cell once featurized: per attacker, its trace's row or
 *  why the trace was dropped, plus the simulator work the cell cost. */
struct RowCell
{
    std::vector<Result<LabeledRow>> rows;
    sim::PerfCounters perf;
};

/** featureRow() of every usable trace of @p cell. */
RowCell
featurizeCell(const CollectedCell &cell, const PipelineConfig &pipeline)
{
    RowCell out;
    out.perf = cell.perf;
    out.rows.reserve(cell.traces.size());
    for (const Result<attack::Trace> &trace : cell.traces) {
        if (trace.isOk())
            out.rows.emplace_back(LabeledRow{
                featureRow(trace.value(), pipeline.featureLen,
                           pipeline.featurization),
                trace.value().label});
        else
            out.rows.emplace_back(trace.status());
    }
    return out;
}

/**
 * assembleSweep() for featurized cells: the same serial accounting
 * (tallyOutcome(), then requireCollected()), but it gathers each
 * attacker's usable rows, in cell order and relabelled @p relabel when
 * set, into one dataset per attacker. The cells' rows are moved out.
 */
Result<std::vector<ml::Dataset>>
assembleRows(std::vector<RowCell> &cells, std::size_t attackers,
             std::optional<Label> relabel, const char *world,
             std::vector<CollectionStats> &stats, sim::PerfCounters &perf)
{
    stats.assign(attackers, CollectionStats{});
    std::vector<ml::Dataset> sets(attackers);
    for (ml::Dataset &set : sets) {
        set.features.reserve(cells.size());
        set.labels.reserve(cells.size());
    }
    for (RowCell &cell : cells) {
        perf += cell.perf;
        for (std::size_t a = 0; a < attackers; ++a) {
            Result<LabeledRow> &row = cell.rows[a];
            if (!tallyOutcome(row.status(), stats[a]))
                continue;
            sets[a].add(std::move(row.value().x),
                        relabel ? *relabel : row.value().label);
        }
    }
    BF_RETURN_IF_ERROR(requireCollected(stats, world));
    return sets;
}

/** Everything the shared collection sweep produces, per attacker: each
 *  world's featurized rows in cell order, and its accounting. */
struct CollectOutput
{
    std::vector<ml::Dataset> closed;
    std::vector<ml::Dataset> openExtra;
    std::vector<CollectionStats> closedStats;
    std::vector<CollectionStats> openStats;
};

/** The declared stage ids one attacker/world evaluation owns. */
struct WorldStages
{
    std::size_t split = 0;
    std::vector<std::size_t> train;
    std::vector<std::size_t> score;
    std::size_t aggregate = 0;
};

/** Canonical featurization text — any change to what featureRow()
 *  produces must bump the format line. The default variant writes no
 *  line of its own: caches filled before the variants existed, and
 *  tools that rebuild this text to find entries, keep its keys. */
std::string
featurizeCanon(const PipelineConfig &pipeline, attack::AttackerKind kind)
{
    static constexpr const char *kVariantNames[] = {
        "mean-dip", "mean-only", "dip-only", "mean-dip-unwinsorized"};
    std::ostringstream canon;
    canon << "format=bigfish-features-v1\n"
          << "featureLen=" << pipeline.featureLen << '\n'
          << "numSites=" << pipeline.numSites << '\n'
          << "openExtra=" << pipeline.openWorldExtra << '\n'
          << "attacker=" << attack::attackerKindName(kind) << '\n';
    if (pipeline.featurization != Featurization::MeanDip)
        canon << "featurization="
              << kVariantNames[static_cast<int>(pipeline.featurization)]
              << '\n';
    return canon.str();
}

/**
 * The Featurize stage body for one attacker: degraded-collection
 * checks, then the closed world's dataset and (when enabled) the
 * merged open world's, with trace accounting. The rows themselves were
 * featurized cell by cell as collection landed them; attacker @p a's
 * are moved out of @p collected.
 */
Result<FeaturizedEntry>
featurizeStageBody(CollectOutput &collected, std::size_t a,
                   const PipelineConfig &pipeline)
{
    ml::Dataset &closed = collected.closed[a];
    const CollectionStats &closed_stats = collected.closedStats[a];

    // Dropped traces must leave enough data for the evaluation
    // protocol to be meaningful; otherwise fail recoverably rather
    // than letting the CV machinery hit its own preconditions.
    if (distinctLabels(closed.labels) < 2)
        return Status(exhaustedError(
            "degraded collection left fewer than two closed-world "
            "classes (" + std::to_string(closed_stats.dropped) + " of " +
            std::to_string(closed_stats.attempted) + " traces dropped)"));
    if (closed.size() < static_cast<std::size_t>(pipeline.eval.folds))
        return Status(exhaustedError(
            "degraded collection left " + std::to_string(closed.size()) +
            " closed-world traces, fewer than the " +
            std::to_string(pipeline.eval.folds) + " CV folds"));

    FeaturizedEntry entry;
    entry.droppedTraces = closed_stats.dropped;
    entry.collectedTraces = closed_stats.collected;
    entry.hasOpenWorld = pipeline.openWorldExtra > 0;
    if (entry.hasOpenWorld) {
        // The paper's open world: the closed world's rows keep their
        // site labels ("sensitive"), copied rather than featurized
        // again; one extra class holds all one-off "non-sensitive"
        // traces. Row for row, this is toDataset() of the merged set.
        entry.droppedTraces += collected.openStats[a].dropped;
        entry.collectedTraces += collected.openStats[a].collected;
        ml::Dataset &extra = collected.openExtra[a];
        entry.openWorld = closed;
        for (std::size_t i = 0; i < extra.size(); ++i)
            entry.openWorld.add(std::move(extra.features[i]),
                                extra.labels[i]);
        entry.openWorld.numClasses =
            std::max(entry.openWorld.numClasses, pipeline.numSites + 1);
    }
    closed.numClasses = std::max(closed.numClasses, pipeline.numSites);
    entry.closedWorld = std::move(closed);
    return entry;
}

// Executor priorities (higher runs first). Featurization first: it is
// what frees raw traces and rows (a replayed chunk's decoded traces, a
// job's assembled rows). Split and aggregate are cheap and
// unlock or release work. Collection chunks next, longest expected job
// first (trace duration x traces, so Tor starts first), then folds,
// open world first. The tail of a run is then short fold tasks. Cache
// probes come last (see declareJob()).
constexpr std::int64_t kTier = std::int64_t{1} << 56;
constexpr std::int64_t kFeaturizePriority = 4 * kTier;
constexpr std::int64_t kBookkeepingPriority = 3 * kTier;
constexpr std::int64_t kCollectPriority = 2 * kTier;
constexpr std::int64_t kFoldPriority = kTier;
constexpr std::int64_t kProbePriority = 0;

/** One attacker/world evaluation: its stages and execution slots. */
struct WorldRun
{
    WorldStages stages;
    bool open = false;
    std::vector<ml::FoldSplit> splits;
    /** Pre-sized by the split; fold f writes slot f. */
    std::vector<ml::FoldScores> folds;
    ml::EvalResult result;
};

/** A job's collection state: alive from its Collect stage until its
 *  Featurize stages finish. */
struct CollectRun
{
    CollectRun(const PipelineConfig &pipeline,
               const CollectionConfig &collection)
        : catalog(pipeline.numSites, pipeline.catalogSeed),
          collector(collection)
    {
    }

    web::SiteCatalog catalog;
    TraceCollector collector;
    /** One pre-sized slot per (site, run) cell, then per open trace:
     *  the cell's featurized rows. */
    std::vector<RowCell> closedCells;
    std::vector<RowCell> openCells;
    /** With a cache only, slotted like the rows: each cell's raw
     *  traces, held until its chunk is committed. */
    std::vector<CollectedCell> closedRaw;
    std::vector<CollectedCell> openRaw;
    /** Per collection chunk: cells still collecting; the last one
     *  stores the chunk. Replayed chunks start at zero. */
    std::unique_ptr<std::atomic<std::size_t>[]> chunkLeft;
    std::size_t chunksReplayed = 0;
    std::size_t chunks = 0;
    /** A chunk's cache commit failed. */
    std::atomic<bool> storeFailed{false};
    /** Cells not yet featurized, plus one while startCollection() is
     *  still fanning out; whoever takes it to zero assembles `out`. */
    std::atomic<std::size_t> cellsLeft{0};
    CollectOutput out;
};

// Collection chunks: the unit the Collect stage persists in the stage
// cache. Chunk s < numSites is closed-world site s (its tracesPerSite
// runs); the chunks after it hold tracesPerSite consecutive open-world
// traces each, the last possibly fewer. One entry per chunk rather than
// per cell keeps the fsync count of a cold run small.

constexpr char kCollectKind[] = "collect";

/** Cells [begin, end) of the closed- or open-world slots. */
struct Chunk
{
    bool open = false;
    std::size_t begin = 0;
    std::size_t end = 0;
};

std::size_t
chunkCount(const PipelineConfig &pipeline)
{
    const auto per = static_cast<std::size_t>(pipeline.tracesPerSite);
    const auto open =
        static_cast<std::size_t>(std::max(pipeline.openWorldExtra, 0));
    return static_cast<std::size_t>(pipeline.numSites) +
           (open + per - 1) / per;
}

Chunk
chunkAt(const PipelineConfig &pipeline, std::size_t index)
{
    const auto per = static_cast<std::size_t>(pipeline.tracesPerSite);
    const auto sites = static_cast<std::size_t>(pipeline.numSites);
    if (index < sites)
        return {false, index * per, (index + 1) * per};
    const auto open =
        static_cast<std::size_t>(std::max(pipeline.openWorldExtra, 0));
    const std::size_t begin = (index - sites) * per;
    return {true, begin, std::min(begin + per, open)};
}

/** The chunk holding cell @p index of the closed or open world. */
std::size_t
chunkOf(const PipelineConfig &pipeline, bool open, std::size_t index)
{
    return (open ? static_cast<std::size_t>(pipeline.numSites) : 0) +
           index / static_cast<std::size_t>(pipeline.tracesPerSite);
}

/** The raw-trace slots of @p chunk (a cache is configured). */
std::span<CollectedCell>
chunkCells(CollectRun &raw, const Chunk &chunk)
{
    std::vector<CollectedCell> &slots =
        chunk.open ? raw.openRaw : raw.closedRaw;
    return std::span(slots).subspan(chunk.begin, chunk.end - chunk.begin);
}

/** A chunk's cache key: the Collect stage's fingerprint composed with
 *  the chunk index, world and cell range. The range pins down which
 *  cells the chunk holds, which depends on tracesPerSite — a setting
 *  the Collect fingerprint does not name. */
std::uint64_t
chunkKey(std::uint64_t collect_fp, const PipelineConfig &pipeline,
         std::size_t index)
{
    const Chunk chunk = chunkAt(pipeline, index);
    std::ostringstream canon;
    canon << "chunk=" << index << '\n'
          << "open=" << (chunk.open ? 1 : 0) << '\n'
          << "begin=" << chunk.begin << '\n'
          << "end=" << chunk.end << '\n';
    const std::uint64_t upstream[] = {collect_fp};
    return stageFingerprint(kCollectKind, canon.str(), upstream);
}

/** Chunk entries committed by this process (the crash fault's count). */
std::atomic<int> gChunksCommitted{0};

/** One job declared into the batch graph, with its execution state. */
struct JobRun
{
    const FingerprintJob *job = nullptr;
    /** The job's pipeline: its scale, featurization and classifier. */
    const PipelineConfig &pipeline() const { return job->pipeline; }
    /** The open world's catch-all class. */
    Label nonSensitive() const { return job->pipeline.numSites; }
    /** Models/scores persist only under a canonical factory text:
     *  without one two different classifiers could share a key. */
    bool cacheable() const { return !job->pipeline.factory.canon.empty(); }
    /** Declare-time rejection; the job then owns no stages. */
    Status invalid;
    /** The job's stage ids: [firstStage, endStage). */
    std::size_t firstStage = 0;
    std::size_t endStage = 0;
    std::size_t collect = 0;
    std::vector<std::size_t> featurize;
    std::vector<FeaturizedEntry> featurized;
    /** Per attacker: featurize[a] succeeded (read by the last one). */
    std::vector<char> featurizedOk;
    std::vector<WorldRun> closed;
    std::vector<WorldRun> open;
    /** Collection-chunk priority: expected job cost, longest first. */
    std::int64_t collectPriority = 0;
    /** Every Featurize entry replayed from the cache. */
    bool warm = false;
    std::unique_ptr<CollectRun> raw;
    std::atomic<std::size_t> featurizeLeft{0};
};

/** Everything the stage work items of one batch share. */
struct Batch
{
    StageGraph &graph;
    StageCodec<FeaturizedEntry> featurizedCodec{
        "featurized", &encodeFeaturized, &decodeFeaturized};
    StageCodec<ml::FoldScores> scoresCodec{"scores", &encodeFoldScores,
                                           &decodeFoldScores};
};

/** Declares one attacker/world evaluation's stages. */
WorldStages
declareWorld(StageGraph &graph, const PipelineConfig &pipeline,
             const std::string &who, const char *world,
             std::uint64_t seed_base, std::size_t featurize_id)
{
    WorldStages stages;
    std::ostringstream split_canon;
    split_canon << "folds=" << pipeline.eval.folds << '\n'
                << "valFraction=" << hexDouble(pipeline.eval.valFraction)
                << '\n'
                << "seed=" << pipeline.eval.seed << '\n'
                << "world=" << world << '\n';
    const std::size_t split_upstream[] = {featurize_id};
    stages.split = graph.declare("split/" + who + "/" + world, "eval",
                                 split_canon.str(), split_upstream);
    stages.train.reserve(pipeline.eval.folds);
    stages.score.reserve(pipeline.eval.folds);
    for (int f = 0; f < pipeline.eval.folds; ++f) {
        std::ostringstream train_canon;
        train_canon << "fold=" << f << '\n'
                    << "seed="
                    << pipeline.eval.seed + seed_base +
                           static_cast<std::uint64_t>(f)
                    << '\n'
                    << pipeline.factory.canon;
        const std::size_t train_upstream[] = {stages.split};
        const std::string fold_tag =
            "/" + who + "/" + world + "/f" + std::to_string(f);
        stages.train.push_back(graph.declare("train" + fold_tag, "train",
                                             train_canon.str(),
                                             train_upstream));
        const std::size_t score_upstream[] = {stages.train.back()};
        stages.score.push_back(
            graph.declare("score" + fold_tag, "eval", "", score_upstream));
    }
    std::ostringstream agg_canon;
    agg_canon << "topK=" << pipeline.eval.topK << '\n'
              << "world=" << world << '\n';
    stages.aggregate = graph.declare("aggregate/" + who + "/" + world,
                                     "eval", agg_canon.str(), stages.score);
    return stages;
}

/**
 * The last featurized cell's follow-up: the serial accounting pass over
 * every cell slot (assembleRows(), the featurized twin of the closed-
 * and open-world sweeps' assembleSweep()), then the Collect stage's
 * provenance: hit when every chunk replayed, else stored (or
 * store-failed).
 */
Status
assembleCollection(Batch &batch, JobRun &run)
{
    CollectRun &raw = *run.raw;
    const std::size_t attackers = run.job->attackers.size();
    sim::PerfCounters perf;
    Result<std::vector<ml::Dataset>> closed =
        assembleRows(raw.closedCells, attackers, std::nullopt,
                     "closed-world", raw.out.closedStats, perf);
    if (!closed.isOk())
        return closed.status();
    raw.out.closed = std::move(closed.value());
    raw.out.openStats.resize(attackers);
    if (run.pipeline().openWorldExtra > 0) {
        Result<std::vector<ml::Dataset>> open =
            assembleRows(raw.openCells, attackers, run.nonSensitive(),
                         "open-world", raw.out.openStats, perf);
        if (!open.isOk())
            return open.status();
        raw.out.openExtra = std::move(open.value());
    }
    raw.closedCells = {};
    raw.openCells = {};
    raw.closedRaw = {}; // every chunk is committed by now
    raw.openRaw = {};
    batch.graph.setSimCounters(run.collect, perf);
    StageCacheState state = StageCacheState::Disabled;
    if (batch.graph.cache() != nullptr)
        state = raw.chunksReplayed == raw.chunks ? StageCacheState::Hit
                : raw.storeFailed.load(std::memory_order_relaxed)
                    ? StageCacheState::StoreFailed
                    : StageCacheState::Stored;
    batch.graph.setCacheState(run.collect, state);
    return Status::ok();
}

/** Marks @p cells of @p run featurized; whoever marks the last one
 *  assembles the collection. */
Status
cellsDone(Batch &batch, JobRun &run, std::size_t cells)
{
    if (run.raw->cellsLeft.fetch_sub(cells, std::memory_order_acq_rel) !=
        cells)
        return Status::ok();
    return assembleCollection(batch, run);
}

/**
 * Commits chunk @p index of @p run to the stage cache. A failed commit
 * only costs resumability, never the run. Under the crash fault the
 * process aborts, as if killed, right after its Nth commit.
 */
void
storeChunk(Batch &batch, JobRun &run, std::size_t index)
{
    StageCache &cache = *batch.graph.cache();
    CollectRun &raw = *run.raw;
    const std::span<CollectedCell> cells =
        chunkCells(raw, chunkAt(run.pipeline(), index));
    const Status stored = cache.put(
        kCollectKind,
        chunkKey(batch.graph.fingerprint(run.collect), run.pipeline(),
                 index),
        encodeCollectChunk(cells));
    // Committed or not, the chunk's raw traces are done with: their
    // rows are already featurized.
    for (CollectedCell &cell : cells)
        cell = {};
    if (!stored.isOk()) {
        raw.storeFailed.store(true, std::memory_order_relaxed);
        warnOnce("pipeline/collect-chunk-store",
                 "collection chunk store failed (the run continues, but a "
                 "rerun recollects it): " +
                     stored.toString());
        return;
    }
    const int crash_after = run.job->collection.faults.ioCrashAfterRecords;
    if (crash_after > 0 &&
        gChunksCommitted.fetch_add(1, std::memory_order_relaxed) + 1 >=
            crash_after)
        panic("fault injection: simulated crash after " +
              std::to_string(crash_after) +
              " collection chunk entries (cache " + cache.dir() + ")");
}

/** Submits one collection cell of @p run as its own Collect task: it
 *  collects and featurizes the cell; with a cache it keeps the raw
 *  traces until the chunk's last cell stores the chunk. */
void
submitCell(Batch &batch, JobRun &run, bool open, std::size_t index)
{
    batch.graph.submit(run.collect, run.collectPriority,
                       [&batch, &run, open, index] {
        return batch.graph.charged(run.collect, [&]() -> Status {
            CollectRun &raw = *run.raw;
            const std::span<const attack::AttackerKind> attackers =
                run.job->attackers;
            const auto traces =
                static_cast<std::size_t>(run.pipeline().tracesPerSite);
            const auto site = static_cast<SiteId>(index / traces);
            CollectedCell cell =
                open ? raw.collector.collectCell(
                           raw.catalog.openWorldSite(static_cast<int>(index)),
                           0, attackers)
                     : raw.collector.collectCell(
                           raw.catalog.site(site),
                           static_cast<int>(index % traces), attackers);
            (open ? raw.openCells : raw.closedCells)[index] =
                featurizeCell(cell, run.pipeline());
            if (batch.graph.cache() != nullptr) {
                (open ? raw.openRaw : raw.closedRaw)[index] = std::move(cell);
                const std::size_t chunk =
                    chunkOf(run.pipeline(), open, index);
                if (raw.chunkLeft[chunk].fetch_sub(
                        1, std::memory_order_acq_rel) == 1)
                    storeChunk(batch, run, chunk);
            }
            return cellsDone(batch, run, 1);
        });
    });
}

/** Submits the featurization of replayed chunk @p index of @p run, whose
 *  decoded @p cells the task frees once their rows are made. */
void
submitReplayed(Batch &batch, JobRun &run, std::size_t index,
               std::vector<CollectedCell> cells)
{
    // The executor's work items are copyable, so the cells ride in a
    // shared_ptr; the task empties it.
    auto decoded =
        std::make_shared<std::vector<CollectedCell>>(std::move(cells));
    batch.graph.submit(run.collect, kFeaturizePriority,
                       [&batch, &run, index, decoded] {
        return batch.graph.charged(run.collect, [&]() -> Status {
            CollectRun &raw = *run.raw;
            const Chunk chunk = chunkAt(run.pipeline(), index);
            std::vector<RowCell> &slots =
                chunk.open ? raw.openCells : raw.closedCells;
            const std::size_t count = decoded->size();
            for (std::size_t i = 0; i < count; ++i)
                slots[chunk.begin + i] =
                    featurizeCell((*decoded)[i], run.pipeline());
            *decoded = {};
            return cellsDone(batch, run, count);
        });
    });
}

/**
 * The chunk entry under @p key, decoded to @p cells cells. A CRC-intact
 * entry that does not decode to this chunk's shape is removed (dead
 * weight, like any undecodable stage entry) and misses.
 */
std::optional<std::vector<CollectedCell>>
replayChunk(StageCache &cache, std::uint64_t key, std::size_t cells,
            std::size_t attackers)
{
    std::optional<std::string> payload = cache.lookup(kCollectKind, key);
    if (!payload)
        return std::nullopt;
    std::optional<std::vector<CollectedCell>> decoded =
        decodeCollectChunk(*payload, cells, attackers);
    if (!decoded)
        cache.remove(kCollectKind, key);
    return decoded;
}

/**
 * The Collect stage's first task. With a cache it probes every
 * collection chunk and hands each hit to a task that featurizes its
 * cells (replayed cells add nothing to the perf counters, which measure
 * work performed); then it fans the rest out into one task per (site,
 * run) cell and per open-world trace. A rerun of a killed run therefore
 * collects only the chunks that run never committed.
 */
Status
startCollection(Batch &batch, JobRun &run)
{
    const PipelineConfig &pipeline = run.pipeline();
    if (pipeline.tracesPerSite <= 0)
        return invalidArgumentError("traces_per_site must be positive");
    run.raw = std::make_unique<CollectRun>(pipeline, run.job->collection);
    CollectRun &raw = *run.raw;
    const std::size_t closed_cells =
        static_cast<std::size_t>(raw.catalog.size()) *
        static_cast<std::size_t>(pipeline.tracesPerSite);
    const auto open_cells =
        static_cast<std::size_t>(std::max(pipeline.openWorldExtra, 0));
    raw.closedCells.resize(closed_cells);
    raw.openCells.resize(open_cells);
    StageCache *cache = batch.graph.cache();
    if (cache != nullptr) {
        raw.closedRaw.resize(closed_cells);
        raw.openRaw.resize(open_cells);
    }
    raw.chunks = chunkCount(pipeline);
    raw.chunkLeft =
        std::make_unique<std::atomic<std::size_t>[]>(raw.chunks);
    // Every cell, plus this task's hold until the fan-out is complete:
    // replayed chunks' tasks may finish while it is still probing.
    raw.cellsLeft.store(closed_cells + open_cells + 1,
                        std::memory_order_relaxed);

    for (std::size_t c = 0; c < raw.chunks; ++c) {
        const Chunk chunk = chunkAt(pipeline, c);
        if (cache != nullptr) {
            std::optional<std::vector<CollectedCell>> replayed =
                replayChunk(*cache,
                            chunkKey(batch.graph.fingerprint(run.collect),
                                     pipeline, c),
                            chunk.end - chunk.begin,
                            run.job->attackers.size());
            if (replayed) {
                ++raw.chunksReplayed;
                submitReplayed(batch, run, c, std::move(*replayed));
                continue;
            }
        }
        raw.chunkLeft[c].store(chunk.end - chunk.begin,
                               std::memory_order_relaxed);
    }
    if (cache != nullptr)
        std::printf("stage cache: featurized miss in %s; replayed %zu of "
                    "%zu collection chunks\n",
                    cache->dir().c_str(), raw.chunksReplayed, raw.chunks);

    // Chunk c's counter only moves once its own cells run, so reading
    // it here, before submitting them, sees the value stored above.
    for (std::size_t c = 0; c < raw.chunks; ++c) {
        if (raw.chunkLeft[c].load(std::memory_order_relaxed) == 0)
            continue;
        const Chunk chunk = chunkAt(pipeline, c);
        for (std::size_t i = chunk.begin; i < chunk.end; ++i)
            submitCell(batch, run, chunk.open, i);
    }
    return cellsDone(batch, run, 1);
}

/**
 * The Collect stage's task when a cache is configured: probe every
 * attacker's Featurize entry first (all-or-nothing — a partial hit
 * still has to pay the shared collection, so it is treated as a miss).
 * On a full hit the cached datasets replay bit-identically and
 * collection never runs; otherwise collection starts from whatever
 * collection chunks the cache holds.
 */
Status
probeThenCollect(Batch &batch, JobRun &run)
{
    StageGraph &graph = batch.graph;
    std::vector<FeaturizedEntry> entries;
    entries.reserve(run.featurize.size());
    for (const std::size_t id : run.featurize) {
        std::optional<FeaturizedEntry> entry =
            graph.fromCache(id, batch.featurizedCodec);
        if (!entry)
            break;
        entries.push_back(std::move(*entry));
    }
    if (entries.size() != run.featurize.size())
        return graph.charged(
            run.collect, [&] { return startCollection(batch, run); });
    std::printf("stage cache: hit, %zu featurized entr%s from %s; "
                "skipping collection and featurization\n",
                entries.size(), entries.size() == 1 ? "y" : "ies",
                graph.cache()->dir().c_str());
    for (std::size_t a = 0; a < entries.size(); ++a)
        graph.setCounts(
            run.featurize[a],
            static_cast<std::size_t>(entries[a].collectedTraces),
            static_cast<std::size_t>(entries[a].droppedTraces));
    run.featurized = std::move(entries);
    run.warm = true;
    return Status::ok();
}

/** The Featurize task for attacker @p a; the last one to finish frees
 *  the job's collection state. */
Status
featurizeAttacker(Batch &batch, JobRun &run, std::size_t a)
{
    if (run.warm)
        return Status::ok(); // replayed by the probe
    Result<FeaturizedEntry> entry = batch.graph.run<FeaturizedEntry>(
        run.featurize[a], &batch.featurizedCodec,
        [&]() -> Result<FeaturizedEntry> {
            return featurizeStageBody(run.raw->out, a, run.pipeline());
        },
        /*probe=*/false);
    // Only this task reads attacker a's rows.
    run.raw->out.closed[a] = {};
    if (a < run.raw->out.openExtra.size())
        run.raw->out.openExtra[a] = {};
    Status status;
    if (entry.isOk()) {
        batch.graph.setCounts(
            run.featurize[a],
            static_cast<std::size_t>(entry.value().collectedTraces),
            static_cast<std::size_t>(entry.value().droppedTraces));
        run.featurized[a] = std::move(entry.value());
        run.featurizedOk[a] = 1;
    } else {
        status = entry.status();
    }
    if (run.featurizeLeft.fetch_sub(1, std::memory_order_acq_rel) != 1)
        return status;
    // Every attacker is featurized: the collection state goes now, not
    // when the job's folds finish.
    if (std::all_of(run.featurizedOk.begin(), run.featurizedOk.end(),
                    [](char ok) { return ok != 0; })) {
        std::size_t collected = 0, dropped = 0;
        for (const FeaturizedEntry &done : run.featurized) {
            collected += static_cast<std::size_t>(done.collectedTraces);
            dropped += static_cast<std::size_t>(done.droppedTraces);
        }
        batch.graph.setCounts(run.collect, collected, dropped);
    }
    run.raw.reset();
    return status;
}

/** The world's dataset (closed world, or the merged open world). */
ml::Dataset &
worldData(JobRun &run, std::size_t a, const WorldRun &world)
{
    return world.open ? run.featurized[a].openWorld
                      : run.featurized[a].closedWorld;
}

/**
 * One fold as one task: probe its ScoreFold cache entry first (a hit
 * leaves its TrainFold Skipped), else train then score. Fold seeds are
 * fixed at declaration, so the result is independent of scheduling.
 */
Status
runFold(Batch &batch, JobRun &run, std::size_t a, WorldRun &world,
        std::size_t f)
{
    if (f >= world.splits.size())
        return Status::ok();
    StageGraph &graph = batch.graph;
    const PipelineConfig &pipeline = run.pipeline();
    const ml::Dataset &data = worldData(run, a, world);
    const std::size_t train_id = world.stages.train[f];
    const std::size_t score_id = world.stages.score[f];
    if (run.cacheable()) {
        std::optional<ml::FoldScores> cached =
            graph.fromCache(score_id, batch.scoresCodec);
        if (cached) {
            graph.setCounts(score_id, cached->truths.size(), 0);
            world.folds[f] = std::move(*cached);
            return Status::ok();
        }
    }
    const std::uint64_t seed =
        pipeline.eval.seed +
        (world.open ? ml::kOpenWorldFoldSeedBase
                    : ml::kClosedWorldFoldSeedBase) +
        f;
    const StageCodec<std::unique_ptr<ml::Classifier>> model_codec{
        "model",
        [](const std::unique_ptr<ml::Classifier> &model) {
            return model->saveModel();
        },
        [&, seed](const std::string &text)
            -> std::optional<std::unique_ptr<ml::Classifier>> {
            auto model =
                pipeline.factory(data.numClasses, data.featureLen(), seed);
            if (!model->loadModel(text))
                return std::nullopt;
            return model;
        }};
    Result<std::unique_ptr<ml::Classifier>> model =
        graph.run<std::unique_ptr<ml::Classifier>>(
            train_id, run.cacheable() ? &model_codec : nullptr,
            [&]() -> Result<std::unique_ptr<ml::Classifier>> {
                return ml::trainFoldClassifier(pipeline.factory, data,
                                               world.splits[f], seed);
            });
    if (!model.isOk())
        return model.status();
    graph.setCounts(train_id, world.splits[f].train.size(), 0);
    Result<ml::FoldScores> scores = graph.run<ml::FoldScores>(
        score_id, run.cacheable() ? &batch.scoresCodec : nullptr,
        [&]() -> Result<ml::FoldScores> {
            return ml::scoreFold(*model.value(), data,
                                 world.splits[f].test);
        },
        /*probe=*/false);
    if (!scores.isOk())
        return scores.status();
    graph.setCounts(score_id, scores.value().truths.size(), 0);
    world.folds[f] = std::move(scores.value());
    return Status::ok();
}

/** Submits one attacker/world evaluation: FoldSplit, a task per fold,
 *  then Aggregate once the last fold's ScoreFold is done. */
void
submitWorld(Batch &batch, JobRun &run, std::size_t a, WorldRun &world)
{
    StageGraph &graph = batch.graph;
    graph.submit(world.stages.split, kBookkeepingPriority,
                 [&batch, &run, a, &world]() -> Status {
        const ml::Dataset &data = worldData(run, a, world);
        const ml::EvalConfig &eval = run.pipeline().eval;
        Result<std::vector<ml::FoldSplit>> splits =
            batch.graph.run<std::vector<ml::FoldSplit>>(
                world.stages.split, nullptr,
                [&]() -> Result<std::vector<ml::FoldSplit>> {
                    return ml::kFoldSplits(data.size(), eval.folds,
                                           eval.valFraction, eval.seed);
                });
        if (!splits.isOk())
            return splits.status();
        world.splits = std::move(splits.value());
        world.folds.resize(world.splits.size());
        batch.graph.setCounts(world.stages.split, world.splits.size(), 0);
        return Status::ok();
    });
    const std::int64_t fold_priority = kFoldPriority + (world.open ? 1 : 0);
    for (std::size_t f = 0; f < world.stages.train.size(); ++f)
        graph.submit(world.stages.train[f], fold_priority,
                     [&batch, &run, a, &world, f] {
                         return runFold(batch, run, a, world, f);
                     });
    graph.submit(world.stages.aggregate, kBookkeepingPriority,
                 [&batch, &run, a, &world]() -> Status {
        const int top_k = run.pipeline().eval.topK;
        Result<ml::EvalResult> result = batch.graph.run<ml::EvalResult>(
            world.stages.aggregate, nullptr,
            [&]() -> Result<ml::EvalResult> {
                if (world.open)
                    return ml::aggregateFoldsOpenWorld(
                        world.folds, run.nonSensitive(), top_k);
                return ml::aggregateFolds(world.folds, top_k);
            });
        if (!result.isOk())
            return result.status();
        world.result = std::move(result.value());
        // The world is evaluated: its dataset and fold outputs go.
        world.folds = {};
        world.splits = {};
        worldData(run, a, world) = ml::Dataset{};
        return Status::ok();
    });
}

/**
 * The declare step: declares one job's stages into the batch graph
 * (fingerprints are a pure function of configuration — cacheDir
 * excluded, it affects where work happens, never what it computes) and
 * attaches its work. With a cache, the Collect task first
 * probes the job's Featurize entries (probeThenCollect()).
 */
void
declareJob(Batch &batch, JobRun &run)
{
    StageGraph &graph = batch.graph;
    const FingerprintJob &job = *run.job;
    const PipelineConfig &pipeline = job.pipeline;
    const std::span<const attack::AttackerKind> attackers = job.attackers;
    const bool has_open = pipeline.openWorldExtra > 0;

    run.firstStage = graph.reports().size();
    const std::uint64_t collection_fp = collectionFingerprint(
        job.collection, pipeline.catalogSeed, pipeline.numSites,
        pipeline.openWorldExtra, attackers);
    run.collect = graph.declare(
        "collect", "collect", "collection=" + hex16(collection_fp) + "\n",
        {});
    for (const attack::AttackerKind kind : attackers) {
        const std::size_t upstream[] = {run.collect};
        run.featurize.push_back(graph.declare(
            std::string("featurize/") + attack::attackerKindName(kind),
            "featurize", featurizeCanon(pipeline, kind), upstream));
    }
    run.closed.resize(attackers.size());
    run.open.resize(has_open ? attackers.size() : 0);
    for (std::size_t a = 0; a < attackers.size(); ++a) {
        const std::string who = attack::attackerKindName(attackers[a]);
        run.closed[a].stages =
            declareWorld(graph, pipeline, who, "closed",
                         ml::kClosedWorldFoldSeedBase, run.featurize[a]);
        if (has_open) {
            run.open[a].open = true;
            run.open[a].stages =
                declareWorld(graph, pipeline, who, "open",
                             ml::kOpenWorldFoldSeedBase, run.featurize[a]);
        }
    }
    run.endStage = graph.reports().size();

    run.featurized.assign(attackers.size(), FeaturizedEntry{});
    run.featurizedOk.assign(attackers.size(), 0);
    run.featurizeLeft.store(attackers.size(), std::memory_order_relaxed);
    run.collectPriority =
        kCollectPriority +
        std::min<std::int64_t>(
            job.collection.browser.traceDuration / kMsec *
                (static_cast<std::int64_t>(pipeline.numSites) *
                     pipeline.tracesPerSite +
                 std::max(pipeline.openWorldExtra, 0)),
            kTier - 1);
    if (graph.cache() != nullptr) {
        graph.submit(
            run.collect, kProbePriority,
            [&batch, &run] { return probeThenCollect(batch, run); },
            /*pinned=*/true);
    } else {
        graph.submit(run.collect, run.collectPriority, [&batch, &run] {
            return batch.graph.charged(
                run.collect, [&] { return startCollection(batch, run); });
        });
    }
    for (std::size_t a = 0; a < attackers.size(); ++a)
        graph.submit(run.featurize[a], kFeaturizePriority,
                     [&batch, &run, a] {
                         return featurizeAttacker(batch, run, a);
                     });
    for (std::size_t a = 0; a < attackers.size(); ++a) {
        submitWorld(batch, run, a, run.closed[a]);
        if (has_open)
            submitWorld(batch, run, a, run.open[a]);
    }
}

/** A finished job's per-attacker results, with the stage table split
 *  the way runFingerprintingShared() documents. */
std::vector<FingerprintResult>
jobResults(const StageGraph &graph, const JobRun &run)
{
    const auto &reports = graph.reports();
    std::vector<FingerprintResult> results(run.job->attackers.size());
    for (std::size_t a = 0; a < results.size(); ++a) {
        FingerprintResult &result = results[a];
        result.droppedTraces =
            static_cast<std::size_t>(run.featurized[a].droppedTraces);
        result.collectedTraces =
            static_cast<std::size_t>(run.featurized[a].collectedTraces);
        result.closedWorld = run.closed[a].result;
        if (!run.open.empty()) {
            result.openWorld = run.open[a].result;
            result.hasOpenWorld = true;
        }
        // The shared Collect stage goes to the first attacker only, so
        // summing per-attacker tables counts it once; everything else
        // is owned by exactly one attacker.
        if (a == 0)
            result.stages.push_back(reports[run.collect]);
        result.stages.push_back(reports[run.featurize[a]]);
        const auto append_world = [&](const WorldStages &stages) {
            result.stages.push_back(reports[stages.split]);
            for (std::size_t f = 0; f < stages.train.size(); ++f) {
                result.stages.push_back(reports[stages.train[f]]);
                result.stages.push_back(reports[stages.score[f]]);
            }
            result.stages.push_back(reports[stages.aggregate]);
        };
        append_world(run.closed[a].stages);
        if (!run.open.empty())
            append_world(run.open[a].stages);
    }
    return results;
}

} // namespace

Result<std::vector<std::vector<FingerprintResult>>>
runFingerprintingBatch(std::span<const FingerprintJob> jobs)
{
    for (const FingerprintJob &job : jobs)
        if (job.pipeline.cacheDir != jobs.front().pipeline.cacheDir)
            return invalidArgumentError(
                "a batch opens one stage cache, but its jobs name both '" +
                jobs.front().pipeline.cacheDir + "' and '" +
                job.pipeline.cacheDir + "'");

    std::vector<std::unique_ptr<JobRun>> runs;
    runs.reserve(jobs.size());
    for (const FingerprintJob &job : jobs) {
        auto run = std::make_unique<JobRun>();
        run->job = &job;
        if (job.attackers.empty())
            run->invalid =
                invalidArgumentError("need at least one attacker kind");
        else if (job.pipeline.numSites < 2)
            run->invalid = invalidArgumentError("need at least two sites");
        else if (job.pipeline.eval.folds < 2)
            run->invalid =
                invalidArgumentError("cross-validation needs >= 2 folds");
        runs.push_back(std::move(run));
    }
    // A configuration error stops the first job before any work, as it
    // would have in a sequential loop.
    if (runs.empty())
        return std::vector<std::vector<FingerprintResult>>{};
    if (!runs.front()->invalid.isOk())
        return runs.front()->invalid;

    std::optional<StageCache> cache;
    if (!jobs.front().pipeline.cacheDir.empty()) {
        Result<StageCache> opened =
            StageCache::open(jobs.front().pipeline.cacheDir);
        if (!opened.isOk())
            return opened.status();
        cache = std::move(opened.value());
    }
    StageGraph graph(cache ? &*cache : nullptr);
    Batch batch{graph};

    std::vector<JobRun *> declared;
    for (auto &run : runs) {
        if (run->invalid.isOk()) {
            declareJob(batch, *run);
            declared.push_back(run.get());
        }
    }
    if (cache) {
        // Cache probes run one job at a time, longest job first, at the
        // lowest priority: the next job's probe waits until the previous
        // job's folds have all started, so a warm batch holds about one
        // job's replayed datasets at a time (and reuses their memory)
        // instead of decoding every job's at once.
        std::sort(declared.begin(), declared.end(),
                  [](const JobRun *x, const JobRun *y) {
                      if (x->collectPriority != y->collectPriority)
                          return x->collectPriority > y->collectPriority;
                      return x->firstStage < y->firstStage;
                  });
        for (std::size_t k = 1; k < declared.size(); ++k)
            graph.after(declared[k - 1]->collect, declared[k]->collect);
    }
    graph.execute();

    std::vector<std::vector<FingerprintResult>> results;
    results.reserve(runs.size());
    for (const auto &run : runs) {
        if (!run->invalid.isOk())
            return run->invalid;
        for (std::size_t id = run->firstStage; id < run->endStage; ++id)
            if (!graph.status(id).isOk())
                return graph.status(id);
        results.push_back(jobResults(graph, *run));
    }
    return results;
}

Result<std::vector<FingerprintResult>>
runFingerprintingShared(const CollectionConfig &collection,
                        std::span<const attack::AttackerKind> attackers,
                        const PipelineConfig &pipeline)
{
    const FingerprintJob jobs[] = {
        {collection, {attackers.begin(), attackers.end()}, pipeline}};
    Result<std::vector<std::vector<FingerprintResult>>> results =
        runFingerprintingBatch(jobs);
    if (!results.isOk())
        return results.status();
    return std::move(results.value()[0]);
}

std::vector<FingerprintResult>
runFingerprintingSharedOrDie(
    const CollectionConfig &collection,
    std::span<const attack::AttackerKind> attackers,
    const PipelineConfig &pipeline)
{
    return runFingerprintingShared(collection, attackers, pipeline)
        // OrDie wrapper implementation: abort-on-error is the contract.
        // bigfish-lint: allow(ordie-outside-binary)
        .valueOrDie();
}

Result<FingerprintResult>
runFingerprinting(const CollectionConfig &collection,
                  const PipelineConfig &pipeline)
{
    const attack::AttackerKind attackers[] = {collection.attacker};
    Result<std::vector<FingerprintResult>> results =
        runFingerprintingShared(collection, attackers, pipeline);
    if (!results.isOk())
        return Status(results.status());
    return std::move(results.value()[0]);
}

FingerprintResult
runFingerprintingOrDie(const CollectionConfig &collection,
                       const PipelineConfig &pipeline)
{
    // OrDie wrapper implementation: abort-on-error is the contract.
    // bigfish-lint: allow(ordie-outside-binary)
    return runFingerprinting(collection, pipeline).valueOrDie();
}

} // namespace bigfish::core
