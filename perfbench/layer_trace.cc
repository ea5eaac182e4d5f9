/**
 * @file
 * bf_layer_trace — the benchmark's traced run of table1_fingerprinting.
 *
 * Re-drives the pipeline `bigfish run table1_fingerprinting` runs, in
 * the same order and with the same seeds, through the layers' public
 * functions: 8 browser x OS cells in sequence, each
 *
 *   Collect   TraceCollector::collect{Closed,Open}WorldMulti
 *   Featurize core::toDataset (or StageCache lookup + decodeFeaturized)
 *   per attacker and world:
 *     Split     ml::kFoldSplits
 *     Folds     parallelMap over folds, mirroring runWorld():
 *               StageCache probe, ml::trainFoldClassifier, saveModel,
 *               ml::scoreFold, encodeFoldScores + StageCache::put
 *     Aggregate ml::aggregateFolds[OpenWorld]
 *
 * Every call sits inside a span (name, layer, start, end, parent,
 * worker) recorded in memory and written at the end as Chrome
 * trace-event JSON. After the pipeline, serial probes time what the
 * pipeline cannot split from outside: timeline synthesis vs. the
 * attacker loop on every (site, run) of one sampled cell, each network
 * layer's batched forward/backward pass and Adam::step on the
 * workload's own first minibatch, and the featurized-entry codec.
 *
 * Usage:
 *   bf_layer_trace --host      (prints the active SIMD tier and exits)
 *   bf_layer_trace --sites=N --traces=N --open=N --features=N --folds=N
 *                  --seed=N --threads=N [--cache-dir=DIR]
 *                  [--reference-cache=DIR] --out=FILE --chrome-trace=FILE
 *
 * --cache-dir uses the stage cache exactly as `bigfish run --cache-dir`
 * does (a warm directory replays, an empty one is filled).
 * --reference-cache names the cache an untraced run filled; every fold
 * score and featurized dataset the traced run produces is then compared
 * with it bit for bit. Exit status: 0 ok, 1 the pipeline failed, 2 usage.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "base/rng.hh"
#include "base/simd.hh"
#include "base/thread_pool.hh"
#include "core/collector.hh"
#include "core/checkpoint.hh"
#include "core/pipeline.hh"
#include "core/registry.hh"
#include "core/stage.hh"
#include "core/stage_cache.hh"
#include "ml/classifier.hh"
#include "ml/conv.hh"
#include "ml/evaluation.hh"
#include "ml/layer.hh"
#include "ml/lstm.hh"
#include "ml/network.hh"

namespace bf = bigfish;

namespace {

// --------------------------------------------------------------------
// Clocks

double
monoSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch())
        .count();
}

double
clockSeconds(clockid_t id)
{
    timespec ts{};
    clock_gettime(id, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double threadCpu() { return clockSeconds(CLOCK_THREAD_CPUTIME_ID); }
double processCpu() { return clockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

// --------------------------------------------------------------------
// Span recorder

struct Span
{
    std::string name;
    std::string layer;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int worker = 0;
};

class SpanLog
{
  public:
    SpanLog() : origin_(monoSeconds()) {}

    /** Opens a span; @p parent < 0 nests it under this thread's
     *  innermost open span. */
    int
    open(std::string name, std::string layer, int parent = -1)
    {
        std::vector<int> &stack = threadStack();
        if (parent < 0 && !stack.empty())
            parent = stack.back();
        std::lock_guard<std::mutex> lock(mutex_);
        const int id = static_cast<int>(spans_.size());
        Span span;
        span.name = std::move(name);
        span.layer = std::move(layer);
        span.parent = parent;
        span.worker = workerIndex();
        span.start = monoSeconds() - origin_;
        spans_.push_back(std::move(span));
        stack.push_back(id);
        return id;
    }

    double
    close(int id)
    {
        const double now = monoSeconds() - origin_;
        std::vector<int> &stack = threadStack();
        if (!stack.empty() && stack.back() == id)
            stack.pop_back();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[static_cast<std::size_t>(id)].end = now;
        return now - spans_[static_cast<std::size_t>(id)].start;
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    static std::vector<int> &
    threadStack()
    {
        thread_local std::vector<int> stack;
        return stack;
    }

    int
    workerIndex()
    {
        thread_local int index = -1;
        if (index < 0)
            index = nextWorker_++;
        return index;
    }

    double origin_;
    std::mutex mutex_;
    std::vector<Span> spans_;
    int nextWorker_ = 0;
};

SpanLog &
spanLog()
{
    static SpanLog log;
    return log;
}

/** RAII span; close() ends it early and returns its wall seconds. */
class Scoped
{
  public:
    Scoped(std::string name, std::string layer, int parent = -1)
        : id_(spanLog().open(std::move(name), std::move(layer), parent))
    {
    }
    ~Scoped()
    {
        if (!closed_)
            spanLog().close(id_);
    }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

    double
    close()
    {
        closed_ = true;
        return spanLog().close(id_);
    }
    int id() const { return id_; }

  private:
    int id_;
    bool closed_ = false;
};

// --------------------------------------------------------------------
// Options

struct Options
{
    bf::core::ExperimentScale scale;
    std::string cacheDir;
    std::string referenceCache;
    std::string out;
    std::string chromeTrace;
};

/** Timed repetitions per layer probe; the median is reported. */
constexpr int kProbeReps = 25;

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr, "bf_layer_trace: %s\n", why.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    if (argc == 2 && std::string(argv[1]) == "--host") {
        // Host-block query: the SIMD tier the kernels dispatch on
        // (BF_SIMD applied), as every bigfish run in this environment.
        std::printf("simd=%s\nthreads=%d\n",
                    bf::simd::name(bf::simd::active()),
                    bf::defaultThreadCount());
        std::exit(0);
    }
    Options opts;
    opts.scale.threads = 4;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::size_t eq = arg.find('=');
        if (arg.rfind("--", 0) != 0 || eq == std::string::npos)
            usage("expected --key=value, got '" + arg + "'");
        const std::string key = arg.substr(2, eq - 2);
        const std::string value = arg.substr(eq + 1);
        const auto number = [&]() -> long long {
            char *end = nullptr;
            const long long v = std::strtoll(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0' || v < 0)
                usage("--" + key + " needs a non-negative integer");
            return v;
        };
        if (key == "sites")
            opts.scale.sites = static_cast<int>(number());
        else if (key == "traces")
            opts.scale.tracesPerSite = static_cast<int>(number());
        else if (key == "open")
            opts.scale.openWorldExtra = static_cast<int>(number());
        else if (key == "features")
            opts.scale.featureLen = static_cast<std::size_t>(number());
        else if (key == "folds")
            opts.scale.folds = static_cast<int>(number());
        else if (key == "seed")
            opts.scale.seed = static_cast<std::uint64_t>(number());
        else if (key == "threads")
            opts.scale.threads = static_cast<int>(number());
        else if (key == "cache-dir")
            opts.cacheDir = value;
        else if (key == "reference-cache")
            opts.referenceCache = value;
        else if (key == "out")
            opts.out = value;
        else if (key == "chrome-trace")
            opts.chromeTrace = value;
        else
            usage("unknown flag --" + key);
    }
    if (opts.out.empty() || opts.chromeTrace.empty())
        usage("--out and --chrome-trace are required");
    if (opts.scale.sites < 2 || opts.scale.folds < 2 ||
        opts.scale.tracesPerSite < 1 || opts.scale.threads < 1)
        usage("need sites >= 2, folds >= 2, traces >= 1, threads >= 1");
    return opts;
}

// --------------------------------------------------------------------
// Table 1's cells and the pipeline's stage fingerprints

struct Cell
{
    const char *browser;
    const char *os;
    bf::web::BrowserProfile profile;
    bf::sim::MachineConfig machine;
};

/** The cells of bench/experiments/table1_fingerprinting.cc, in order. */
std::vector<Cell>
table1Cells()
{
    using bf::sim::MachineConfig;
    using bf::web::BrowserProfile;
    return {
        {"Chrome", "Linux", BrowserProfile::chrome(),
         MachineConfig::linuxDesktop()},
        {"Chrome", "Windows", BrowserProfile::chrome(),
         MachineConfig::windowsWorkstation()},
        {"Chrome", "macOS", BrowserProfile::chrome(),
         MachineConfig::macbook()},
        {"Firefox", "Linux", BrowserProfile::firefox(),
         MachineConfig::linuxDesktop()},
        {"Firefox", "Windows", BrowserProfile::firefox(),
         MachineConfig::windowsWorkstation()},
        {"Firefox", "macOS", BrowserProfile::firefox(),
         MachineConfig::macbook()},
        {"Safari", "macOS", BrowserProfile::safari(),
         MachineConfig::macbook()},
        {"Tor", "Linux", BrowserProfile::torBrowser(),
         MachineConfig::linuxDesktop()},
    };
}

std::string
hexText(const char *fmt, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), fmt, v);
    return buf;
}

struct WorldIds
{
    std::size_t split = 0;
    std::vector<std::size_t> train;
    std::vector<std::size_t> score;
};

struct GraphIds
{
    std::vector<std::size_t> featurize;
    /** [attacker][0 = closed, 1 = open] */
    std::vector<std::array<WorldIds, 2>> worlds;
};

/**
 * Declares the stage graph runFingerprintingShared() declares, with the
 * same names and canonical texts, so every fingerprint — and therefore
 * every stage-cache key — matches the untraced run's.
 */
GraphIds
declareGraph(bf::core::StageGraph &graph,
             const bf::core::CollectionConfig &collection,
             std::span<const bf::attack::AttackerKind> attackers,
             const bf::core::PipelineConfig &pipeline)
{
    char fp_text[24];
    std::snprintf(fp_text, sizeof(fp_text), "%016" PRIx64,
                  bf::core::collectionFingerprint(
                      collection, pipeline.catalogSeed, pipeline.numSites,
                      pipeline.openWorldExtra, attackers));
    const std::size_t collect_id = graph.declare(
        "collect", "collect", std::string("collection=") + fp_text + "\n",
        {});
    GraphIds ids;
    for (const auto kind : attackers) {
        std::ostringstream canon;
        canon << "format=bigfish-features-v1\n"
              << "featureLen=" << pipeline.featureLen << '\n'
              << "numSites=" << pipeline.numSites << '\n'
              << "openExtra=" << pipeline.openWorldExtra << '\n'
              << "attacker=" << bf::attack::attackerKindName(kind) << '\n';
        const std::size_t upstream[] = {collect_id};
        ids.featurize.push_back(graph.declare(
            "featurize/" + bf::attack::attackerKindName(kind), "featurize",
            canon.str(), upstream));
    }
    for (std::size_t a = 0; a < attackers.size(); ++a) {
        const std::string who = bf::attack::attackerKindName(attackers[a]);
        std::array<WorldIds, 2> worlds;
        const int world_count = pipeline.openWorldExtra > 0 ? 2 : 1;
        for (int w = 0; w < world_count; ++w) {
            const char *world = w == 0 ? "closed" : "open";
            const std::uint64_t seed_base =
                w == 0 ? bf::ml::kClosedWorldFoldSeedBase
                       : bf::ml::kOpenWorldFoldSeedBase;
            WorldIds &ids_w = worlds[static_cast<std::size_t>(w)];
            std::ostringstream split_canon;
            split_canon << "folds=" << pipeline.eval.folds << '\n'
                        << "valFraction="
                        << hexText("%a", pipeline.eval.valFraction) << '\n'
                        << "seed=" << pipeline.eval.seed << '\n'
                        << "world=" << world << '\n';
            const std::size_t split_up[] = {ids.featurize[a]};
            ids_w.split = graph.declare("split/" + who + "/" + world,
                                        "eval", split_canon.str(),
                                        split_up);
            for (int f = 0; f < pipeline.eval.folds; ++f) {
                std::ostringstream train_canon;
                train_canon << "fold=" << f << '\n'
                            << "seed="
                            << pipeline.eval.seed + seed_base +
                                   static_cast<std::uint64_t>(f)
                            << '\n'
                            << pipeline.factory.canon;
                const std::string tag =
                    "/" + who + "/" + world + "/f" + std::to_string(f);
                const std::size_t train_up[] = {ids_w.split};
                ids_w.train.push_back(graph.declare(
                    "train" + tag, "train", train_canon.str(), train_up));
                const std::size_t score_up[] = {ids_w.train.back()};
                ids_w.score.push_back(
                    graph.declare("score" + tag, "eval", "", score_up));
            }
        }
        ids.worlds.push_back(std::move(worlds));
    }
    return ids;
}

// --------------------------------------------------------------------
// Per-layer accumulators

struct CacheTotals
{
    double lookupSeconds = 0.0;
    double decodeSeconds = 0.0;
    double encodeSeconds = 0.0;
    double putSeconds = 0.0;
    long long bytesRead = 0;
    long long bytesWritten = 0;
    long long hits = 0;
    long long misses = 0;
    long long stores = 0;

    CacheTotals &
    operator+=(const CacheTotals &o)
    {
        lookupSeconds += o.lookupSeconds;
        decodeSeconds += o.decodeSeconds;
        encodeSeconds += o.encodeSeconds;
        putSeconds += o.putSeconds;
        bytesRead += o.bytesRead;
        bytesWritten += o.bytesWritten;
        hits += o.hits;
        misses += o.misses;
        stores += o.stores;
        return *this;
    }
};

/** Everything one fold of the fold parallelMap reports back. */
struct FoldOut
{
    bf::ml::FoldScores scores;
    bool trained = false;
    double trainCpu = 0.0;
    double scoreCpu = 0.0;
    double spanSeconds = 0.0;
    long long epochs = 0;
    long long trainSamples = 0;
    long long valSamples = 0;
    long long trainSampleEpochs = 0;
    CacheTotals cache;
};

/** The minibatch counts the nn per-call probes are multiplied by. */
struct BatchCounts
{
    long long trainBatches = 0; ///< forward+backward+Adam per batch
    long long evalBatches = 0;  ///< validation forward per epoch
};

struct Totals
{
    double collectSeconds = 0.0;
    double collectCpu = 0.0;
    long long collectTraces = 0;
    long long collectAttempted = 0;
    long long collectDropped = 0;
    double rawTraceBytesPeak = 0.0;
    bf::sim::PerfCounters simPipeline;

    double featurizeSeconds = 0.0;
    long long featurizeSamples = 0;

    double trainCpu = 0.0;
    long long trainFolds = 0;
    long long trainEpochs = 0;
    long long trainSampleEpochs = 0;
    double scoreCpu = 0.0;
    long long scoreSamples = 0;
    BatchCounts batches;

    double foldIdleSeconds = 0.0;
    CacheTotals cache;

    long long foldsCompared = 0;
    long long foldMismatches = 0;
    long long featurizedCompared = 0;
    long long featurizedMismatches = 0;
};

// --------------------------------------------------------------------
// Cache helpers (each timed call adds to a CacheTotals)

std::optional<std::string>
timedLookup(bf::core::StageCache &cache, const char *kind,
            std::uint64_t key, CacheTotals &t)
{
    Scoped span(std::string("cache.lookup/") + kind, "cache");
    std::optional<std::string> payload = cache.lookup(kind, key);
    t.lookupSeconds += span.close();
    if (payload) {
        ++t.hits;
        t.bytesRead += static_cast<long long>(payload->size());
    } else {
        ++t.misses;
    }
    return payload;
}

void
timedPut(bf::core::StageCache &cache, const char *kind, std::uint64_t key,
         const std::string &payload, CacheTotals &t)
{
    if (payload.empty())
        return;
    Scoped span(std::string("cache.put/") + kind, "cache");
    const bf::Status stored = cache.put(kind, key, payload);
    t.putSeconds += span.close();
    if (stored.isOk()) {
        ++t.stores;
        t.bytesWritten += static_cast<long long>(payload.size());
    }
}

bool
sameScores(const bf::ml::FoldScores &a, const bf::ml::FoldScores &b)
{
    if (a.truths != b.truths || a.predictions != b.predictions ||
        a.scores.size() != b.scores.size())
        return false;
    for (std::size_t i = 0; i < a.scores.size(); ++i) {
        if (a.scores[i].size() != b.scores[i].size())
            return false;
        for (std::size_t j = 0; j < a.scores[i].size(); ++j)
            if (std::memcmp(&a.scores[i][j], &b.scores[i][j],
                            sizeof(double)) != 0)
                return false;
    }
    return true;
}

double
traceSetBytes(const bf::attack::TraceSet &set)
{
    double bytes = 0.0;
    for (const auto &trace : set.traces)
        bytes += static_cast<double>(
            sizeof(trace) + trace.counts.capacity() * sizeof(double) +
            trace.wallTimes.capacity() * sizeof(bf::TimeNs) +
            trace.attacker.capacity());
    return bytes;
}

// --------------------------------------------------------------------
// One attacker/world evaluation (mirrors runWorld in core/pipeline.cc)

bf::ml::EvalResult
runWorld(const bf::core::PipelineConfig &pipeline,
         const bf::ml::Dataset &data, const WorldIds &ids,
         const bf::core::StageGraph &graph, std::uint64_t seed_base,
         bool open_world, bf::core::StageCache *cache,
         bf::core::StageCache *reference, const std::string &label,
         int threads, Totals &totals)
{
    std::vector<bf::ml::FoldSplit> splits;
    {
        Scoped span("split/" + label, "split");
        splits = bf::ml::kFoldSplits(data.size(), pipeline.eval.folds,
                                     pipeline.eval.valFraction,
                                     pipeline.eval.seed);
    }
    const bool cacheable = !pipeline.factory.canon.empty();
    const std::size_t batch =
        static_cast<std::size_t>(bf::ml::CnnLstmParams::traceDefaults()
                                     .batchSize);

    Scoped region("folds/" + label, "folds");
    const int region_id = region.id();
    std::vector<FoldOut> outs = bf::parallelMap(
        splits.size(), [&](std::size_t f) -> FoldOut {
            FoldOut out;
            Scoped fold_span("fold/" + label + "/f" + std::to_string(f),
                             "fold", region_id);
            const std::uint64_t score_fp = graph.fingerprint(ids.score[f]);
            const std::uint64_t train_fp = graph.fingerprint(ids.train[f]);
            if (cache != nullptr && cacheable) {
                std::optional<std::string> hit =
                    timedLookup(*cache, "scores", score_fp, out.cache);
                if (hit) {
                    Scoped span("decodeFoldScores", "cache");
                    std::optional<bf::ml::FoldScores> decoded =
                        bf::core::decodeFoldScores(*hit);
                    out.cache.decodeSeconds += span.close();
                    if (decoded) {
                        out.scores = std::move(*decoded);
                        out.spanSeconds = fold_span.close();
                        return out;
                    }
                }
                // The train stage probes its model entry before
                // training, exactly as StageGraph::run(probe=true).
                (void)timedLookup(*cache, "model", train_fp, out.cache);
            }
            const std::uint64_t seed =
                pipeline.eval.seed + seed_base + static_cast<std::uint64_t>(f);
            std::unique_ptr<bf::ml::Classifier> model;
            {
                Scoped span("trainFoldClassifier", "train");
                const double cpu0 = threadCpu();
                model = bf::ml::trainFoldClassifier(pipeline.factory, data,
                                                    splits[f], seed);
                out.trainCpu = threadCpu() - cpu0;
            }
            out.trained = true;
            out.trainSamples = static_cast<long long>(splits[f].train.size());
            out.valSamples =
                static_cast<long long>(splits[f].validation.size());
            if (const auto *cnn = dynamic_cast<const bf::ml::CnnLstmClassifier *>(
                    model.get()))
                out.epochs = static_cast<long long>(cnn->history().size());
            out.trainSampleEpochs = out.trainSamples * out.epochs;
            if (cache != nullptr && cacheable) {
                Scoped span("saveModel", "cache");
                const std::string text = model->saveModel();
                out.cache.encodeSeconds += span.close();
                timedPut(*cache, "model", train_fp, text, out.cache);
            }
            {
                Scoped span("scoreFold", "score");
                const double cpu0 = threadCpu();
                out.scores = bf::ml::scoreFold(*model, data, splits[f].test);
                out.scoreCpu = threadCpu() - cpu0;
            }
            if (cache != nullptr && cacheable) {
                Scoped span("encodeFoldScores", "cache");
                const std::string text =
                    bf::core::encodeFoldScores(out.scores);
                out.cache.encodeSeconds += span.close();
                timedPut(*cache, "scores", score_fp, text, out.cache);
            }
            out.spanSeconds = fold_span.close();
            return out;
        });
    const double region_seconds = region.close();

    double fold_seconds = 0.0;
    std::vector<bf::ml::FoldScores> folds;
    for (std::size_t f = 0; f < outs.size(); ++f) {
        FoldOut &out = outs[f];
        fold_seconds += out.spanSeconds;
        totals.cache += out.cache;
        if (out.trained) {
            ++totals.trainFolds;
            totals.trainCpu += out.trainCpu;
            totals.trainEpochs += out.epochs;
            totals.trainSampleEpochs += out.trainSampleEpochs;
            totals.scoreCpu += out.scoreCpu;
            totals.scoreSamples +=
                static_cast<long long>(out.scores.truths.size());
            const long long per_epoch = static_cast<long long>(
                (static_cast<std::size_t>(out.trainSamples) + batch - 1) /
                batch);
            const long long val_n =
                out.valSamples > 0 ? out.valSamples : out.trainSamples;
            const long long per_eval = static_cast<long long>(
                (static_cast<std::size_t>(val_n) + batch - 1) / batch);
            totals.batches.trainBatches += out.epochs * per_epoch;
            totals.batches.evalBatches += out.epochs * per_eval;
        }
        if (reference != nullptr) {
            std::optional<std::string> ref = reference->lookup(
                "scores", graph.fingerprint(ids.score[f]));
            std::optional<bf::ml::FoldScores> decoded;
            if (ref)
                decoded = bf::core::decodeFoldScores(*ref);
            ++totals.foldsCompared;
            if (!decoded || !sameScores(*decoded, out.scores))
                ++totals.foldMismatches;
        }
        folds.push_back(std::move(out.scores));
    }
    totals.foldIdleSeconds +=
        std::max(0.0, threads * region_seconds - fold_seconds);

    Scoped span("aggregate/" + label, "aggregate");
    return open_world ? bf::ml::aggregateFoldsOpenWorld(
                            folds, static_cast<bf::Label>(pipeline.numSites),
                            pipeline.eval.topK)
                      : bf::ml::aggregateFolds(folds, pipeline.eval.topK);
}

// --------------------------------------------------------------------
// Probes

/** Median of @p reps timed calls of @p fn (seconds per call). */
template <typename Fn>
double
medianCall(int reps, Fn &&fn)
{
    std::vector<double> samples;
    samples.reserve(static_cast<std::size_t>(reps));
    for (int r = 0; r < reps; ++r) {
        const double t0 = monoSeconds();
        fn();
        samples.push_back(monoSeconds() - t0);
    }
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

struct LayerCall
{
    std::string metric; ///< "conv1d", "relu", ...
    double fwdTrain = 0.0;
    double fwdEval = 0.0;
    double bwd = 0.0;
};

/**
 * Per-call cost of every layer of the CNN-LSTM (built standalone with
 * the traceDefaults shapes CnnLstmClassifier builds) on one minibatch of
 * the workload's own featurized data, plus Adam::step over all their
 * parameters. Runs on a 1-thread pool, as training does on a worker.
 */
std::pair<std::vector<LayerCall>, double>
probeNetworkLayers(const bf::ml::Dataset &data, int reps)
{
    using namespace bf::ml;
    const CnnLstmParams p = CnnLstmParams::traceDefaults();
    const std::size_t batch = std::min<std::size_t>(
        static_cast<std::size_t>(p.batchSize), data.size());
    const std::size_t channels = p.inputChannels;
    const std::size_t steps = data.featureLen() / channels;

    // Column-stacked minibatch, the layout CnnLstmClassifier packs.
    Matrix in(channels, steps * batch);
    for (std::size_t b = 0; b < batch; ++b)
        for (std::size_t c = 0; c < channels; ++c)
            for (std::size_t t = 0; t < steps; ++t)
                in(c, b * steps + t) =
                    static_cast<float>(data.features[b][c * steps + t]);

    bf::Rng rng(7);
    const std::size_t f = p.convFilters;
    std::vector<std::unique_ptr<Layer>> layers;
    auto conv1 = std::make_unique<Conv1D>(channels, f, p.convKernel,
                                          p.convStride, rng);
    layers.push_back(std::move(conv1));
    layers.push_back(std::make_unique<ReLU>());
    layers.push_back(std::make_unique<MaxPool1D>(p.poolSize));
    layers.push_back(std::make_unique<Conv1D>(f, f, p.convKernel,
                                              p.convStride, rng));
    layers.push_back(std::make_unique<ReLU>());
    layers.push_back(std::make_unique<MaxPool1D>(p.poolSize));
    layers.push_back(std::make_unique<Lstm>(f, p.lstmUnits, rng));
    layers.push_back(std::make_unique<Dropout>(p.dropout, rng()));
    layers.push_back(std::make_unique<Dense>(
        p.lstmUnits, static_cast<std::size_t>(std::max(data.numClasses, 2)),
        rng));

    std::map<std::string, LayerCall> by_name;
    std::vector<Matrix> inputs{in};
    for (auto &layer : layers) {
        Matrix out;
        const Matrix &x = inputs.back();
        LayerCall &call = by_name[layer->name()];
        call.fwdEval += medianCall(
            reps, [&] { out = layer->forwardBatch(x, batch, false); });
        call.fwdTrain += medianCall(
            reps, [&] { out = layer->forwardBatch(x, batch, true); });
        inputs.push_back(std::move(out));
    }
    for (std::size_t i = layers.size(); i-- > 0;) {
        const Matrix &y = inputs[i + 1];
        Matrix grad(y.rows(), y.cols());
        for (std::size_t r = 0; r < grad.rows(); ++r)
            for (std::size_t c = 0; c < grad.cols(); ++c)
                grad(r, c) = 1e-3f * static_cast<float>((r + c) % 7);
        LayerCall &call = by_name[layers[i]->name()];
        call.bwd += medianCall(
            reps, [&] { (void)layers[i]->backwardBatch(grad, batch); });
    }

    std::vector<Matrix *> params, grads;
    for (auto &layer : layers) {
        for (Matrix *m : layer->params())
            params.push_back(m);
        for (Matrix *m : layer->grads())
            grads.push_back(m);
    }
    Adam adam(p.learningRate);
    const double adam_call = medianCall(reps, [&] {
        adam.step(params, grads, 1.0 / static_cast<double>(batch));
    });

    // The loss layer between the network and Adam: softmax
    // cross-entropy over the batch's logits, once per training batch.
    std::vector<bf::Label> truths(batch);
    for (std::size_t b = 0; b < batch; ++b)
        truths[b] = data.labels[b];
    Matrix loss_grad;
    LayerCall &loss = by_name["softmax_xent"];
    loss.fwdTrain = medianCall(reps, [&] {
        (void)SoftmaxCrossEntropy::lossAndGradientBatch(inputs.back(),
                                                        truths, loss_grad);
    });

    // Metric names follow the layer kinds (MaxPool1D reports
    // "maxpool1d"; the benchmark calls it maxpool).
    std::vector<LayerCall> calls;
    for (auto &[name, call] : by_name) {
        call.metric = name == "maxpool1d" ? "maxpool" : name;
        calls.push_back(call);
    }
    return {calls, adam_call};
}

struct SimProbe
{
    double simSeconds = 0.0;
    double attackSeconds = 0.0;
    long long simEvents = 0;
    long long simInterrupts = 0;
    long long attackPeriods = 0;
    long long cells = 0;
};

/**
 * Splits collection into timeline synthesis and the attacker loop on
 * every (site, run) of one cell: synthesizeTimeline() alone, then
 * collectOneMulti() (synthesis + every attacker); attack = the
 * difference. Serial, thread CPU.
 */
SimProbe
probeSimAttack(const bf::core::CollectionConfig &config,
               const bf::core::PipelineConfig &pipeline,
               std::span<const bf::attack::AttackerKind> attackers)
{
    Scoped span("probe/sim+attack", "probe");
    const bf::web::SiteCatalog catalog(pipeline.numSites,
                                       pipeline.catalogSeed);
    const bf::core::TraceCollector collector(config);
    SimProbe probe;
    double both = 0.0;
    long long both_events = 0;
    const auto one = [&](const bf::web::SiteSignature &site, int run) {
        bf::sim::PerfCounters sim_perf, all_perf;
        const double t0 = threadCpu();
        const bf::sim::RunTimeline timeline =
            collector.synthesizeTimeline(site, run, &sim_perf);
        const double t1 = threadCpu();
        const auto traces =
            collector.collectOneMulti(site, run, attackers, &all_perf);
        const double t2 = threadCpu();
        (void)timeline;
        (void)traces;
        probe.simSeconds += t1 - t0;
        both += t2 - t1;
        probe.simEvents += sim_perf.eventsSimulated;
        probe.simInterrupts += sim_perf.interruptsSynthesized;
        both_events += all_perf.eventsSimulated;
        ++probe.cells;
    };
    for (int s = 0; s < catalog.size(); ++s)
        for (int run = 0; run < pipeline.tracesPerSite; ++run)
            one(catalog.site(static_cast<bf::SiteId>(s)), run);
    for (int i = 0; i < pipeline.openWorldExtra; ++i)
        one(catalog.openWorldSite(i), 0);
    probe.attackSeconds = std::max(0.0, both - probe.simSeconds);
    probe.attackPeriods = both_events - probe.simEvents;
    return probe;
}

// --------------------------------------------------------------------
// Output

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    return hexText("%.9g", v);
}

/**
 * Per-layer self time on the timeline: for every span, its interval
 * minus the union of its children's intervals; per layer, the union of
 * those pieces over all its spans. A union, not a sum, so concurrent
 * folds are counted once per instant and no layer can exceed the wall.
 */
std::map<std::string, double>
layerSelfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<int>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent >= 0)
            children[static_cast<std::size_t>(spans[i].parent)].push_back(
                static_cast<int>(i));
    std::map<std::string, std::vector<std::pair<double, double>>> pieces;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        std::vector<std::pair<double, double>> kids;
        for (const int c : children[i])
            kids.emplace_back(spans[static_cast<std::size_t>(c)].start,
                              spans[static_cast<std::size_t>(c)].end);
        std::sort(kids.begin(), kids.end());
        double cursor = spans[i].start;
        auto &out = pieces[spans[i].layer];
        for (const auto &[s, e] : kids) {
            if (s > cursor)
                out.emplace_back(cursor, std::min(s, spans[i].end));
            cursor = std::max(cursor, e);
            if (cursor >= spans[i].end)
                break;
        }
        if (cursor < spans[i].end)
            out.emplace_back(cursor, spans[i].end);
    }
    std::map<std::string, double> self;
    for (auto &[layer, list] : pieces) {
        std::sort(list.begin(), list.end());
        double total = 0.0, lo = 0.0, hi = -1.0;
        for (const auto &[s, e] : list) {
            if (s > hi) {
                if (hi > lo)
                    total += hi - lo;
                lo = s;
                hi = e;
            } else {
                hi = std::max(hi, e);
            }
        }
        if (hi > lo)
            total += hi - lo;
        self[layer] = total;
    }
    return self;
}

bool
writeChromeTrace(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out << (i ? ",\n" : "") << "{\"name\":\"" << jsonEscape(s.name)
            << "\",\"cat\":\"" << jsonEscape(s.layer)
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.worker
            << ",\"ts\":" << num(s.start * 1e6)
            << ",\"dur\":" << num((s.end - s.start) * 1e6)
            << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
            << "}}";
    }
    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
    return static_cast<bool>(out);
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    const bf::core::ExperimentScale &scale = opts.scale;
    bf::setGlobalThreads(scale.threads);
    const int threads = bf::globalThreadCount();

    bf::core::PipelineConfig pipeline = bf::core::pipelineForScale(scale);
    pipeline.openWorldExtra = scale.openWorldExtra;
    pipeline.cacheDir.clear();
    const bf::Label non_sensitive =
        static_cast<bf::Label>(pipeline.numSites);
    const bf::attack::AttackerKind attackers[] = {
        bf::attack::AttackerKind::LoopCounting,
        bf::attack::AttackerKind::SweepCounting};

    std::optional<bf::core::StageCache> cache, reference;
    if (!opts.cacheDir.empty()) {
        auto opened = bf::core::StageCache::open(opts.cacheDir);
        if (!opened.isOk())
            usage("cannot open --cache-dir: " + opened.status().toString());
        cache = std::move(opened.value());
    }
    if (!opts.referenceCache.empty()) {
        auto opened = bf::core::StageCache::open(opts.referenceCache);
        if (!opened.isOk())
            usage("cannot open --reference-cache: " +
                  opened.status().toString());
        reference = std::move(opened.value());
    }

    Totals totals;
    std::ostringstream results; // per-result JSON entries
    bool first_result = true;
    // Cell 0's loop-counting data feeds the layer and codec probes.
    std::optional<bf::core::FeaturizedEntry> sample;
    double sample_collect_cpu = 0.0;

    const double wall0 = monoSeconds();
    const std::vector<Cell> cells = table1Cells();
    for (std::size_t c = 0; c < cells.size(); ++c) {
        const Cell &cell = cells[c];
        const std::string slug =
            std::string(cell.browser) + "_" + cell.os + "_";
        Scoped cell_span(std::string("cell/") + cell.browser + "/" + cell.os,
                         "cell");
        bf::core::CollectionConfig config =
            bf::core::collectionForScale(scale);
        config.machine = cell.machine;
        config.browser = cell.profile;

        bf::core::StageGraph graph(nullptr);
        const GraphIds ids = declareGraph(graph, config, attackers, pipeline);

        // Featurize probe: all-or-nothing, stopping at the first miss.
        std::vector<bf::core::FeaturizedEntry> featurized;
        if (cache) {
            for (const std::size_t id : ids.featurize) {
                std::optional<std::string> hit = timedLookup(
                    *cache, "featurized", graph.fingerprint(id), totals.cache);
                if (!hit)
                    break;
                Scoped span("decodeFeaturized", "cache");
                std::optional<bf::core::FeaturizedEntry> entry =
                    bf::core::decodeFeaturized(*hit);
                totals.cache.decodeSeconds += span.close();
                if (!entry)
                    break;
                featurized.push_back(std::move(*entry));
            }
        }

        if (featurized.size() != std::size(attackers)) {
            featurized.clear();
            const bf::web::SiteCatalog catalog(pipeline.numSites,
                                               pipeline.catalogSeed);
            const bf::core::TraceCollector collector(config);
            std::vector<bf::core::CollectionStats> closed_stats, open_stats;
            std::vector<bf::attack::TraceSet> closed, extra;
            {
                Scoped span("collect", "collect");
                const double cpu0 = processCpu();
                bf::sim::PerfCounters perf;
                {
                    Scoped inner("collectClosedWorldMulti", "collect");
                    auto got = collector.collectClosedWorldMulti(
                        catalog, pipeline.tracesPerSite, attackers,
                        &closed_stats, &perf);
                    if (!got.isOk()) {
                        std::fprintf(stderr, "collect failed: %s\n",
                                     got.status().toString().c_str());
                        return 1;
                    }
                    closed = std::move(got.value());
                }
                if (pipeline.openWorldExtra > 0) {
                    Scoped inner("collectOpenWorldMulti", "collect");
                    auto got = collector.collectOpenWorldMulti(
                        catalog, pipeline.openWorldExtra, non_sensitive,
                        attackers, &open_stats, &perf);
                    if (!got.isOk()) {
                        std::fprintf(stderr, "collect failed: %s\n",
                                     got.status().toString().c_str());
                        return 1;
                    }
                    extra = std::move(got.value());
                }
                const double cpu = processCpu() - cpu0;
                totals.collectCpu += cpu;
                if (c == 0)
                    sample_collect_cpu = cpu;
                totals.collectSeconds += span.close();
                totals.simPipeline += perf;
            }
            double held = 0.0;
            for (std::size_t a = 0; a < std::size(attackers); ++a) {
                held += traceSetBytes(closed[a]);
                if (!extra.empty())
                    held += traceSetBytes(extra[a]);
                totals.collectAttempted +=
                    static_cast<long long>(closed_stats[a].attempted);
                totals.collectTraces +=
                    static_cast<long long>(closed_stats[a].collected);
                totals.collectDropped +=
                    static_cast<long long>(closed_stats[a].dropped);
                if (!open_stats.empty()) {
                    totals.collectAttempted +=
                        static_cast<long long>(open_stats[a].attempted);
                    totals.collectTraces +=
                        static_cast<long long>(open_stats[a].collected);
                    totals.collectDropped +=
                        static_cast<long long>(open_stats[a].dropped);
                }
            }
            totals.rawTraceBytesPeak = std::max(totals.rawTraceBytesPeak, held);

            for (std::size_t a = 0; a < std::size(attackers); ++a) {
                bf::core::FeaturizedEntry entry;
                {
                    Scoped span("toDataset", "featurize");
                    entry.collectedTraces = closed_stats[a].collected;
                    entry.droppedTraces = closed_stats[a].dropped;
                    entry.closedWorld = bf::core::toDataset(
                        closed[a], pipeline.featureLen, pipeline.numSites);
                    entry.hasOpenWorld = pipeline.openWorldExtra > 0;
                    if (entry.hasOpenWorld) {
                        entry.collectedTraces += open_stats[a].collected;
                        entry.droppedTraces += open_stats[a].dropped;
                        bf::attack::TraceSet open = closed[a];
                        for (const auto &trace : extra[a].traces)
                            open.add(trace);
                        entry.openWorld = bf::core::toDataset(
                            open, pipeline.featureLen,
                            pipeline.numSites + 1);
                    }
                    totals.featurizeSeconds += span.close();
                }
                totals.featurizeSamples += static_cast<long long>(
                    entry.closedWorld.size() + entry.openWorld.size());
                const std::uint64_t fp = graph.fingerprint(ids.featurize[a]);
                std::string payload;
                if (cache || reference) {
                    Scoped span("encodeFeaturized", "cache");
                    payload = bf::core::encodeFeaturized(entry);
                    if (cache)
                        totals.cache.encodeSeconds += span.close();
                }
                if (cache)
                    timedPut(*cache, "featurized", fp, payload, totals.cache);
                if (reference) {
                    std::optional<std::string> ref =
                        reference->lookup("featurized", fp);
                    ++totals.featurizedCompared;
                    if (!ref || *ref != payload)
                        ++totals.featurizedMismatches;
                }
                featurized.push_back(std::move(entry));
            }
        }

        for (std::size_t a = 0; a < std::size(attackers); ++a) {
            const std::string who = bf::attack::attackerKindName(attackers[a]);
            const int world_count = pipeline.openWorldExtra > 0 ? 2 : 1;
            std::vector<bf::ml::EvalResult> evals;
            for (int w = 0; w < world_count; ++w) {
                const bool open = w == 1;
                evals.push_back(runWorld(
                    pipeline,
                    open ? featurized[a].openWorld
                         : featurized[a].closedWorld,
                    ids.worlds[a][static_cast<std::size_t>(w)], graph,
                    open ? bf::ml::kOpenWorldFoldSeedBase
                         : bf::ml::kClosedWorldFoldSeedBase,
                    open, cache ? &*cache : nullptr,
                    reference ? &*reference : nullptr,
                    slug + who + (open ? "/open" : "/closed"), threads,
                    totals));
            }
            const std::string label =
                slug + (a == 0 ? "loop" : "sweep");
            results << (first_result ? "" : ",\n") << "    \"" << label
                    << "\": {\"top1\": \""
                    << hexText("%.6f", evals[0].top1Mean)
                    << "\", \"foldTop1\": [";
            first_result = false;
            for (std::size_t f = 0; f < evals[0].foldTop1.size(); ++f)
                results << (f ? ", " : "") << '"'
                        << hexText("%a", evals[0].foldTop1[f]) << '"';
            results << "]";
            if (evals.size() > 1)
                results << ", \"open_combined\": \""
                        << hexText("%.6f",
                                   evals[1].openWorld.combinedAccuracy)
                        << '"';
            results << "}";
        }
        if (c == 0)
            sample = featurized[0];
    }
    const double pipeline_wall = monoSeconds() - wall0;

    // ---- probes (serial; the pipeline's spans are already closed) ----
    bf::setGlobalThreads(1);
    bf::core::CollectionConfig sample_config =
        bf::core::collectionForScale(scale);
    sample_config.machine = cells[0].machine;
    sample_config.browser = cells[0].profile;
    const SimProbe sim = probeSimAttack(sample_config, pipeline, attackers);

    std::vector<LayerCall> layer_calls;
    double adam_call = 0.0;
    {
        Scoped span("probe/nn", "probe");
        std::tie(layer_calls, adam_call) = probeNetworkLayers(
            sample->closedWorld, kProbeReps);
    }
    double codec_mb = 0.0, encode_s = 0.0, decode_s = 0.0;
    {
        Scoped span("probe/codec", "probe");
        std::string text;
        encode_s = medianCall(3, [&] {
            text = bf::core::encodeFeaturized(*sample);
        });
        decode_s = medianCall(3, [&] {
            (void)bf::core::decodeFeaturized(text);
        });
        codec_mb = static_cast<double>(text.size()) / 1e6;
    }
    const double traced_wall = monoSeconds() - wall0;
    bf::setGlobalThreads(threads);

    // ---- metrics ----
    std::vector<std::pair<std::string, double>> m;
    const auto put = [&m](const std::string &k, double v) {
        m.emplace_back(k, v);
    };
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    put("collect.busy_s", totals.collectSeconds);
    put("collect.cpu_s", totals.collectCpu);
    put("collect.traces", static_cast<double>(totals.collectTraces));
    put("collect.traces_per_s",
        ratio(static_cast<double>(totals.collectTraces),
              totals.collectSeconds));
    put("collect.dropped_frac",
        ratio(static_cast<double>(totals.collectDropped),
              static_cast<double>(totals.collectAttempted)));
    put("collect.utilization",
        ratio(totals.collectCpu, totals.collectSeconds * threads));
    put("collect.raw_trace_mb", totals.rawTraceBytesPeak / 1e6);
    put("sim.events", static_cast<double>(totals.simPipeline.eventsSimulated));
    put("sim.interrupts",
        static_cast<double>(totals.simPipeline.interruptsSynthesized));
    put("sim.bytes_sorted",
        static_cast<double>(totals.simPipeline.bytesSorted));
    put("sim.busy_s", sim.simSeconds);
    put("sim.events_per_s",
        ratio(static_cast<double>(sim.simEvents), sim.simSeconds));
    put("sim.probe_cells", static_cast<double>(sim.cells));
    put("attack.busy_s", sim.attackSeconds);
    put("attack.periods", static_cast<double>(sim.attackPeriods));
    put("attack.periods_per_s",
        ratio(static_cast<double>(sim.attackPeriods), sim.attackSeconds));
    put("collect.sim_attack_share",
        ratio(sim.simSeconds + sim.attackSeconds, sample_collect_cpu));
    put("featurize.busy_s", totals.featurizeSeconds);
    put("featurize.samples", static_cast<double>(totals.featurizeSamples));
    put("train.busy_s", totals.trainCpu);
    put("train.folds", static_cast<double>(totals.trainFolds));
    put("train.epochs", static_cast<double>(totals.trainEpochs));
    put("train.samples_per_s",
        ratio(static_cast<double>(totals.trainSampleEpochs), totals.trainCpu));
    put("score.busy_s", totals.scoreCpu);
    put("score.samples", static_cast<double>(totals.scoreSamples));

    double nn_total = 0.0;
    for (const LayerCall &call : layer_calls) {
        if (call.metric == "softmax_xent") {
            const double loss_total =
                call.fwdTrain *
                static_cast<double>(totals.batches.trainBatches);
            put("nn.softmax_xent.step_s", loss_total);
            put("nn.softmax_xent.step_us", call.fwdTrain * 1e6);
            nn_total += loss_total;
            continue;
        }
        const double fwd =
            call.fwdTrain * static_cast<double>(totals.batches.trainBatches) +
            call.fwdEval * static_cast<double>(totals.batches.evalBatches);
        const double bwd =
            call.bwd * static_cast<double>(totals.batches.trainBatches);
        put("nn." + call.metric + ".fwd_s", fwd);
        put("nn." + call.metric + ".bwd_s", bwd);
        put("nn." + call.metric + ".fwd_us", call.fwdTrain * 1e6);
        put("nn." + call.metric + ".bwd_us", call.bwd * 1e6);
        nn_total += fwd + bwd;
    }
    const double adam_total =
        adam_call * static_cast<double>(totals.batches.trainBatches);
    put("nn.adam.step_s", adam_total);
    put("nn.adam.step_us", adam_call * 1e6);
    nn_total += adam_total;
    put("nn.train_batches", static_cast<double>(totals.batches.trainBatches));
    put("nn.coverage", ratio(nn_total, totals.trainCpu));

    put("cache.lookup_s", totals.cache.lookupSeconds);
    put("cache.decode_s", totals.cache.decodeSeconds);
    put("cache.bytes_read", static_cast<double>(totals.cache.bytesRead));
    put("cache.hits", static_cast<double>(totals.cache.hits));
    put("cache.misses", static_cast<double>(totals.cache.misses));
    put("cache.encode_s", totals.cache.encodeSeconds);
    put("cache.put_s", totals.cache.putSeconds);
    put("cache.bytes_written", static_cast<double>(totals.cache.bytesWritten));
    put("cache.stores", static_cast<double>(totals.cache.stores));
    put("cache.encode_mb_per_s", ratio(codec_mb, encode_s));
    put("cache.decode_mb_per_s", ratio(codec_mb, decode_s));

    put("sched.fold_idle_s", totals.foldIdleSeconds);
    put("trace.pipeline_wall_s", pipeline_wall);
    put("trace.wall_s", traced_wall);

    const std::vector<Span> &spans = spanLog().spans();
    const std::map<std::string, double> self = layerSelfTimes(spans);

    std::ofstream out(opts.out);
    out << "{\n  \"threads\": " << threads << ",\n  \"simd\": \""
        << bf::simd::name(bf::simd::active()) << "\",\n  \"metrics\": {\n";
    for (std::size_t i = 0; i < m.size(); ++i)
        out << (i ? ",\n" : "") << "    \"" << m[i].first
            << "\": " << num(m[i].second);
    out << "\n  },\n  \"self_s\": {\n";
    std::size_t i = 0;
    for (const auto &[layer, seconds] : self)
        out << (i++ ? ",\n" : "") << "    \"" << layer << "\": " << num(seconds);
    out << "\n  },\n  \"checks\": {\n"
        << "    \"folds_compared\": " << totals.foldsCompared << ",\n"
        << "    \"fold_mismatches\": " << totals.foldMismatches << ",\n"
        << "    \"featurized_compared\": " << totals.featurizedCompared
        << ",\n"
        << "    \"featurized_mismatches\": " << totals.featurizedMismatches
        << "\n  },\n"
        << "  \"spans\": " << spans.size() << ",\n"
        << "  \"results\": {\n"
        << results.str() << "\n  }\n}\n";
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", opts.out.c_str());
        return 1;
    }
    if (!writeChromeTrace(opts.chromeTrace, spans)) {
        std::fprintf(stderr, "cannot write %s\n", opts.chromeTrace.c_str());
        return 1;
    }
    return 0;
}
