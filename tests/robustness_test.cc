/**
 * @file
 * Corrupted-input robustness tests for the persistence layers.
 *
 * Part 1 (trace files): builds a corpus of ~50 mutated trace files
 * (torn writes, bit flips, wrong headers, NaN counts, out-of-range ids,
 * garbage rows) and checks the error contract: the strict reader
 * reports a Status instead of terminating, and the lenient reader never
 * fails on content while keeping its repair accounting exactly
 * consistent.
 *
 * Part 2 (collection chunks in the stage cache): pins the resume
 * contract — a `--cache-dir` run that lost chunk entries (deleted, or
 * torn mid-payload) recollects exactly those chunks and is
 * bit-identical to an uninterrupted run at any thread count; the
 * crash-after-N IO fault aborts after N chunk commits and leaves a
 * cache the rerun completes identically; and a featurization-only
 * change replays collection without simulating anything.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "attack/trace_io.hh"
#include "base/rng.hh"
#include "core/checkpoint.hh"
#include "core/collector.hh"
#include "core/pipeline.hh"
#include "core/stage_cache.hh"
#include "ml/classifier.hh"

namespace bigfish::attack {
namespace {

TraceSet
exampleSet()
{
    TraceSet set;
    Rng rng(99);
    for (int t = 0; t < 6; ++t) {
        Trace trace;
        trace.siteId = t % 3;
        trace.label = t % 3;
        trace.period = 5'000'000;
        trace.attacker = "loop-counting";
        for (int i = 0; i < 40; ++i)
            trace.counts.push_back(
                20000.0 + static_cast<double>(rng.uniformInt(0, 4999)));
        set.add(trace);
    }
    return set;
}

std::string
baseText()
{
    std::stringstream out;
    EXPECT_TRUE(writeTraces(out, exampleSet()).isOk());
    return out.str();
}

/** ~50 deterministic corruptions of one valid trace file. */
std::vector<std::string>
mutatedCorpus()
{
    const std::string base = baseText();
    std::vector<std::string> files;
    Rng rng(4242);

    // Torn writes: the file cut at an arbitrary byte.
    for (int i = 0; i < 14; ++i) {
        const auto len = static_cast<std::size_t>(rng.uniformInt(
            1, static_cast<std::int64_t>(base.size()) - 1));
        files.push_back(base.substr(0, len));
    }

    // Disk corruption: one flipped bit somewhere in the file.
    for (int i = 0; i < 14; ++i) {
        std::string s = base;
        const auto pos = static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(s.size()) - 1));
        s[pos] = static_cast<char>(s[pos] ^
                                   (1u << rng.uniformInt(0, 7)));
        files.push_back(s);
    }

    // Wrong or missing headers.
    files.push_back("");
    files.push_back("\n");
    files.push_back("junk\n1,1,5000000,loop,10,20\n");
    files.push_back("# bigfish-traces v2\n1,1,5000000,loop,10,20\n");
    files.push_back("# bigfish-weights v1\n1 1 0.5\n");
    files.push_back(base.substr(base.find('\n') + 1)); // Header removed.

    // Non-finite counts.
    files.push_back(base + "1,1,5000000,loop,nan,20\n");
    files.push_back(base + "1,1,5000000,loop,inf\n");
    files.push_back(base + "2,2,5000000,loop,-inf,3\n");
    files.push_back(base + "0,0,5000000,loop,1,nan(0x7)\n");
    files.push_back(base + "1,1,5000000,loop,10,infinity\n");
    files.push_back(base + "1,1,5000000,loop,-nan\n");

    // Out-of-range ids and periods.
    files.push_back(base + "20000001,1,5000000,loop,10\n");
    files.push_back(base + "-5,1,5000000,loop,10\n");
    files.push_back(base + "1,20000001,5000000,loop,10\n");
    files.push_back(base + "1,1,-5,loop,10\n");
    files.push_back(base + "1,1,0,loop,10\n");

    // Short and garbage rows.
    files.push_back(base + "1,1\n");
    files.push_back(base + "1,1,5000000,loop\n");
    files.push_back(base + "x,y,z\n");
    files.push_back(base + "1,1,zzz,loop,10\n");
    files.push_back(base + ",,,,\n");
    files.push_back(base + "1,1,5000000,loop,12,abc\n");

    return files;
}

void
expectConsistentStats(const TraceRepairStats &stats,
                      const TraceSet &traces)
{
    EXPECT_EQ(stats.rowsKept + stats.rowsDropped, stats.rowsTotal);
    EXPECT_EQ(traces.size(), stats.rowsKept);
    EXPECT_EQ(stats.shortRows + stats.badNumberRows + stats.overlongRows +
                  stats.outOfRangeRows + stats.nonFiniteRows,
              stats.rowsDropped);
}

TEST(RobustCorpus, FiftyMutatedFilesNeverAbort)
{
    const auto files = mutatedCorpus();
    ASSERT_GE(files.size(), 50u);
    const std::string dir = ::testing::TempDir();
    int idx = 0;
    for (const std::string &content : files) {
        const std::string path =
            dir + "/bf_corrupt_" + std::to_string(idx++) + ".csv";
        {
            std::ofstream out(path);
            ASSERT_TRUE(out.good());
            out << content;
        }

        // Strict read: failing is fine, terminating is not; errors must
        // carry a message.
        const auto strict = loadTraces(path);
        if (!strict.isOk()) {
            EXPECT_FALSE(strict.status().message().empty())
                << "corpus file " << idx;
        }

        // Lenient read: cannot fail on content, and the repair
        // accounting must add up exactly.
        const auto lenient = loadTracesLenient(path);
        ASSERT_TRUE(lenient.isOk()) << "corpus file " << idx;
        expectConsistentStats(lenient.value().stats,
                              lenient.value().traces);

        // A strict success must agree with the lenient reader.
        if (strict.isOk()) {
            EXPECT_EQ(strict.value().size(),
                      lenient.value().traces.size())
                << "corpus file " << idx;
        }
    }
}

TEST(RobustCorpus, LenientAccountingIsExact)
{
    std::stringstream in;
    in << "# bigfish-traces v1\n"
       << "0,0,5000000,loop,10,20,30\n"          // kept
       << "# a comment\n"                        // ignored
       << "1,1,5000000,loop,11,21,31\n"          // kept
       << "2,2\n"                                // short
       << "x,3,5000000,loop,12\n"                // bad number
       << "3,3,5000000,loop,nan\n"               // non-finite
       << "20000001,4,5000000,loop,13\n"         // out-of-range
       << "\n"                                   // ignored
       << "4,4,5000000,loop,14,24\n";            // kept
    const LenientTraces result = readTracesLenient(in);
    EXPECT_TRUE(result.stats.headerOk);
    EXPECT_EQ(result.stats.rowsTotal, 7u);
    EXPECT_EQ(result.stats.rowsKept, 3u);
    EXPECT_EQ(result.stats.rowsDropped, 4u);
    EXPECT_EQ(result.stats.shortRows, 1u);
    EXPECT_EQ(result.stats.badNumberRows, 1u);
    EXPECT_EQ(result.stats.nonFiniteRows, 1u);
    EXPECT_EQ(result.stats.outOfRangeRows, 1u);
    EXPECT_EQ(result.stats.overlongRows, 0u);
    EXPECT_EQ(result.traces.size(), 3u);
    EXPECT_EQ(result.traces.traces[2].counts.size(), 2u);
    expectConsistentStats(result.stats, result.traces);
    EXPECT_NE(result.stats.summary().find("kept 3/7"),
              std::string::npos);
}

TEST(RobustCorpus, OverlongRowIsRejectedNotStored)
{
    std::string row = "1,1,5000000,loop";
    row.reserve(2 * kMaxCountsPerRow + 32);
    for (std::size_t i = 0; i <= kMaxCountsPerRow; ++i)
        row += ",1";
    std::stringstream strict_in;
    strict_in << "# bigfish-traces v1\n" << row << "\n";
    const auto strict = readTraces(strict_in);
    ASSERT_FALSE(strict.isOk());
    EXPECT_EQ(strict.status().code(), ErrorCode::OutOfRange);

    std::stringstream lenient_in;
    lenient_in << "# bigfish-traces v1\n"
               << row << "\n"
               << "1,1,5000000,loop,10\n";
    const LenientTraces result = readTracesLenient(lenient_in);
    EXPECT_EQ(result.stats.overlongRows, 1u);
    EXPECT_EQ(result.traces.size(), 1u);
    expectConsistentStats(result.stats, result.traces);
}

TEST(RobustCorpus, LenientParsesHeaderlessData)
{
    std::stringstream in;
    in << "1,1,5000000,loop,10,20\n"
       << "2,2,5000000,loop,11,21\n";
    const LenientTraces result = readTracesLenient(in);
    EXPECT_FALSE(result.stats.headerOk);
    EXPECT_EQ(result.stats.headerFound, "1,1,5000000,loop,10,20");
    EXPECT_EQ(result.traces.size(), 2u);
    expectConsistentStats(result.stats, result.traces);
}

TEST(RobustCorpus, VersionMismatchNamesFoundHeader)
{
    std::stringstream in;
    in << "# bigfish-traces v2\n1,1,5000000,loop,10\n";
    const auto result = readTraces(in);
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), ErrorCode::ParseError);
    EXPECT_NE(result.status().message().find("unsupported"),
              std::string::npos);
    EXPECT_NE(result.status().message().find("# bigfish-traces v2"),
              std::string::npos);
}

TEST(RobustCorpus, MissingFileIsAnIoError)
{
    const auto strict = loadTraces("/nonexistent/bigfish/traces.csv");
    ASSERT_FALSE(strict.isOk());
    EXPECT_EQ(strict.status().code(), ErrorCode::IoError);
    const auto lenient =
        loadTracesLenient("/nonexistent/bigfish/traces.csv");
    ASSERT_FALSE(lenient.isOk());
    EXPECT_EQ(lenient.status().code(), ErrorCode::IoError);
}

TEST(RobustCorpus, DiskRoundTripPreservesTraces)
{
    const TraceSet set = exampleSet();
    const std::string path = ::testing::TempDir() + "/bf_roundtrip.csv";
    ASSERT_TRUE(saveTraces(path, set).isOk());
    const auto loaded = loadTraces(path);
    ASSERT_TRUE(loaded.isOk());
    ASSERT_EQ(loaded.value().size(), set.size());
    for (std::size_t t = 0; t < set.size(); ++t) {
        const Trace &a = set.traces[t];
        const Trace &b = loaded.value().traces[t];
        EXPECT_EQ(a.siteId, b.siteId);
        EXPECT_EQ(a.label, b.label);
        EXPECT_EQ(a.period, b.period);
        ASSERT_EQ(a.counts.size(), b.counts.size());
        for (std::size_t i = 0; i < a.counts.size(); ++i)
            EXPECT_DOUBLE_EQ(a.counts[i], b.counts[i]);
    }
}

} // namespace
} // namespace bigfish::attack

namespace bigfish::core {
namespace {

namespace fs = std::filesystem;

/** A fresh, empty cache directory unique to @p leaf. */
std::string
cacheDir(const std::string &leaf)
{
    const std::string dir = testing::TempDir() + "bf_chunks_" + leaf;
    std::error_code ignored;
    fs::remove_all(dir, ignored);
    return dir;
}

/** The entry files of @p kind ("" for every kind) in @p dir, sorted
 *  by name. */
std::vector<std::string>
entries(const std::string &dir, const std::string &kind)
{
    std::vector<std::string> paths;
    for (const auto &item : fs::directory_iterator(dir)) {
        const std::string name = item.path().filename().string();
        if ((kind.empty() || name.rfind(kind + "-", 0) == 0) &&
            item.path().extension() == ".bfc")
            paths.push_back(item.path().string());
    }
    std::sort(paths.begin(), paths.end());
    return paths;
}

/** Removes every featurized entry, so the next run has to collect. */
void
dropFeaturized(const std::string &dir)
{
    for (const std::string &path : entries(dir, "featurized"))
        fs::remove(path);
}

std::string
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(in)) << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void
writeAll(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(static_cast<bool>(out.write(
        bytes.data(), static_cast<std::streamsize>(bytes.size()))))
        << path;
}

/** Sets the global thread count for one scope. */
class ScopedThreads
{
  public:
    explicit ScopedThreads(int threads) { setGlobalThreads(threads); }
    ~ScopedThreads() { setGlobalThreads(0); }
};

/** One small two-attacker job with an open world (2 open chunks, the
 *  last one partial). */
struct SmallRun
{
    CollectionConfig config;
    PipelineConfig pipeline;
    const attack::AttackerKind kinds[2] = {
        attack::AttackerKind::LoopCounting,
        attack::AttackerKind::SweepCounting};

    SmallRun()
    {
        config.seed = 11;
        pipeline.numSites = 4;
        pipeline.tracesPerSite = 6;
        pipeline.openWorldExtra = 8;
        pipeline.featureLen = 64;
        pipeline.eval.folds = 2;
        pipeline.factory = ml::knnFactory(3);
    }

    /** 4 closed-world sites + ceil(8 / 6) open-world chunks. */
    static constexpr std::size_t kChunks = 6;

    std::vector<FingerprintResult>
    run() const
    {
        auto results = runFingerprintingShared(config, kinds, pipeline);
        EXPECT_TRUE(results.isOk()) << results.status().toString();
        return results.isOk() ? std::move(results.value())
                              : std::vector<FingerprintResult>{};
    }

    /** run(), returning what it printed to stdout in @p out. */
    std::vector<FingerprintResult>
    runCapturing(std::string &out) const
    {
        testing::internal::CaptureStdout();
        auto results = run();
        out = testing::internal::GetCapturedStdout();
        return results;
    }
};

void
expectSameResults(const std::vector<FingerprintResult> &got,
                  const std::vector<FingerprintResult> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        const auto &w = want[i];
        const auto &g = got[i];
        EXPECT_EQ(g.closedWorld.top1Mean, w.closedWorld.top1Mean);
        EXPECT_EQ(g.closedWorld.foldTop1, w.closedWorld.foldTop1);
        EXPECT_EQ(g.closedWorld.topKMean, w.closedWorld.topKMean);
        EXPECT_EQ(g.openWorld.openWorld.combinedAccuracy,
                  w.openWorld.openWorld.combinedAccuracy);
        EXPECT_EQ(g.collectedTraces, w.collectedTraces);
        EXPECT_EQ(g.droppedTraces, w.droppedTraces);
    }
}

TEST(CollectionFingerprint, SeparatesTraceAffectingConfigs)
{
    const CollectionConfig base;
    const attack::AttackerKind one[] = {
        attack::AttackerKind::LoopCounting};
    const attack::AttackerKind two[] = {
        attack::AttackerKind::LoopCounting,
        attack::AttackerKind::SweepCounting};

    const auto fp = [&](const CollectionConfig &c,
                        std::span<const attack::AttackerKind> kinds) {
        return collectionFingerprint(c, 7, 4, 8, kinds);
    };

    const std::uint64_t reference = fp(base, one);
    EXPECT_EQ(reference, fp(base, one)) << "fingerprint must be stable";

    CollectionConfig seeded = base;
    seeded.seed = base.seed + 1;
    EXPECT_NE(fp(seeded, one), reference);

    CollectionConfig browser = base;
    browser.browser = web::BrowserProfile::torBrowser();
    EXPECT_NE(fp(browser, one), reference);

    CollectionConfig machine = base;
    machine.machine = sim::MachineConfig::windowsWorkstation();
    EXPECT_NE(fp(machine, one), reference);

    CollectionConfig signal_faults = base;
    signal_faults.faults.truncateProb = 0.5;
    EXPECT_NE(fp(signal_faults, one), reference)
        << "signal faults change trace content, so they key collection";

    EXPECT_NE(fp(base, two), reference);
    EXPECT_NE(collectionFingerprint(base, 8, 4, 8, one), reference);
    EXPECT_NE(collectionFingerprint(base, 7, 5, 8, one), reference);

    // The IO fault aborts persistence, never trace content: a rerun
    // WITHOUT the crash fault must find the crashed run's chunks.
    CollectionConfig io_faults = base;
    io_faults.faults.ioCrashAfterRecords = 3;
    EXPECT_EQ(fp(io_faults, one), reference);
}

TEST(CollectChunks, LostChunksAreRecollectedBitIdenticallyAtEveryThreadCount)
{
    SmallRun small;
    std::vector<FingerprintResult> reference;
    {
        ScopedThreads scoped(1);
        reference = small.run(); // no cache at all
    }
    for (const int threads : {1, 4}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        ScopedThreads scoped(threads);
        small.pipeline.cacheDir = cacheDir("lost" + std::to_string(threads));

        // Cold: every chunk computed and stored, results unchanged.
        std::string printed;
        expectSameResults(small.runCapturing(printed), reference);
        EXPECT_NE(printed.find("replayed 0 of 6 collection chunks"),
                  std::string::npos)
            << printed;
        const auto chunks = entries(small.pipeline.cacheDir, "collect");
        ASSERT_EQ(chunks.size(), SmallRun::kChunks);

        // What a kill -9 can leave: one chunk never committed, another
        // torn mid-payload (only a non-atomic writer could do that, so
        // it stands for any damage the CRC catches).
        fs::remove(chunks[0]);
        const std::string bytes = readAll(chunks[1]);
        writeAll(chunks[1], bytes.substr(0, bytes.size() / 2));
        dropFeaturized(small.pipeline.cacheDir);

        expectSameResults(small.runCapturing(printed), reference);
        EXPECT_NE(printed.find("replayed 4 of 6 collection chunks"),
                  std::string::npos)
            << "exactly the two damaged chunks are recollected:\n"
            << printed;
        EXPECT_EQ(entries(small.pipeline.cacheDir, "collect"), chunks)
            << "the recollected chunks are stored again";
        EXPECT_NE(readAll(chunks[1]).size(), bytes.size() / 2);
    }
}

TEST(CollectChunks, WarmCollectWithChangedFeaturesSimulatesNothing)
{
    SmallRun small;
    small.pipeline.cacheDir = cacheDir("features");
    const auto cold = small.run();
    ASSERT_FALSE(cold.empty());
    EXPECT_EQ(cold[0].stages[0].name, "collect");
    EXPECT_EQ(cold[0].stages[0].cache, StageCacheState::Stored);
    EXPECT_GT(cold[0].stages[0].sim.eventsSimulated, 0);

    // Only the featurization changes: the featurized entries miss, but
    // every collection chunk still fingerprints the same.
    small.pipeline.featureLen = 48;
    const auto warm = small.run();
    ASSERT_FALSE(warm.empty());
    EXPECT_EQ(warm[0].stages[0].cache, StageCacheState::Hit);
    EXPECT_TRUE(warm[0].stages[0].sim.empty());
    EXPECT_EQ(warm[0].stages[1].cache, StageCacheState::Stored);

    small.pipeline.cacheDir.clear();
    expectSameResults(warm, small.run());
}

TEST(CollectChunks, ChunksOfAnotherTracesPerSiteNeverReplay)
{
    SmallRun small;
    small.pipeline.cacheDir = cacheDir("traces");
    ASSERT_FALSE(small.run().empty());

    // Chunk 5 held open-world traces [6, 8) at 6 traces per site; at 2
    // it is [2, 4): the same index and cell count, different cells.
    // A featurization change makes the run reach the chunk probe.
    small.pipeline.tracesPerSite = 2;
    small.pipeline.featureLen = 48;
    std::string printed;
    const auto cached = small.runCapturing(printed);
    EXPECT_NE(printed.find("replayed 0 of 8 collection chunks"),
              std::string::npos)
        << printed;

    small.pipeline.cacheDir.clear();
    expectSameResults(cached, small.run());
}

void
expectSameDataset(const ml::Dataset &got, const ml::Dataset &want)
{
    EXPECT_EQ(got.numClasses, want.numClasses);
    EXPECT_EQ(got.labels, want.labels);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        ASSERT_EQ(got.features[i], want.features[i]) << "row " << i;
}

TEST(Featurization, OpenWorldFromClosedRowsEqualsTheMergedTraceSet)
{
    // The pipeline featurizes each cell as it lands and builds the open
    // world from the closed world's rows. With traces dropped in both
    // worlds, both datasets must still be exactly toDataset() of the
    // swept trace sets, the open one of the merged set — whether the
    // rows came from collected cells or from replayed chunks.
    SmallRun small;
    small.config.faults.truncateProb = 0.3;
    small.config.faults.truncateKeepMin = 0.0;
    small.config.faults.truncateKeepMax = 0.005;
    small.config.faults.seed = 5;
    const PipelineConfig &pipeline = small.pipeline;

    const web::SiteCatalog catalog(pipeline.numSites, pipeline.catalogSeed);
    const TraceCollector collector(small.config);
    std::vector<CollectionStats> closed_stats, open_stats;
    auto closed = collector.collectClosedWorldMulti(
        catalog, pipeline.tracesPerSite, small.kinds, &closed_stats);
    auto extra = collector.collectOpenWorldMulti(
        catalog, pipeline.openWorldExtra, pipeline.numSites, small.kinds,
        &open_stats);
    ASSERT_TRUE(closed.isOk() && extra.isOk());
    ASSERT_GT(closed_stats[0].dropped, 0u);
    ASSERT_GT(open_stats[0].dropped, 0u);

    for (const int threads : {1, 4}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        ScopedThreads scoped(threads);
        small.pipeline.cacheDir = cacheDir("open" + std::to_string(threads));
        for (const char *pass : {"collected", "replayed"}) {
            SCOPED_TRACE(pass);
            const auto results = small.run();
            ASSERT_EQ(results.size(), 2u);
            auto cache = StageCache::open(pipeline.cacheDir);
            ASSERT_TRUE(cache.isOk());
            for (std::size_t a = 0; a < results.size(); ++a) {
                const auto report = std::find_if(
                    results[a].stages.begin(), results[a].stages.end(),
                    [](const StageReport &r) {
                        return r.name.rfind("featurize/", 0) == 0;
                    });
                ASSERT_NE(report, results[a].stages.end());
                const auto payload =
                    cache.value().lookup("featurized", report->fingerprint);
                ASSERT_TRUE(payload.has_value());
                const auto entry = decodeFeaturized(*payload);
                ASSERT_TRUE(entry.has_value());

                attack::TraceSet merged = closed.value()[a];
                for (const attack::Trace &t : extra.value()[a].traces)
                    merged.add(t);
                expectSameDataset(entry->closedWorld,
                                  toDataset(closed.value()[a],
                                            pipeline.featureLen,
                                            pipeline.numSites));
                ASSERT_TRUE(entry->hasOpenWorld);
                expectSameDataset(entry->openWorld,
                                  toDataset(merged, pipeline.featureLen,
                                            pipeline.numSites + 1));
                EXPECT_EQ(entry->droppedTraces,
                          closed_stats[a].dropped + open_stats[a].dropped);
                EXPECT_EQ(entry->collectedTraces,
                          closed_stats[a].collected +
                              open_stats[a].collected);
            }
            // Next pass: the same rows, featurized from the chunks.
            dropFeaturized(pipeline.cacheDir);
        }
    }
}

TEST(CollectChunksDeathTest, CrashAfterNPutsLeavesACacheTheRerunCompletes)
{
    // A fresh process per death statement: the child must not inherit
    // the parent's thread pool without its threads.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    SmallRun small;
    const auto reference = small.run();
    small.pipeline.cacheDir = cacheDir("crash");

    small.config.faults.ioCrashAfterRecords = 2;
    EXPECT_DEATH(
        {
            setGlobalThreads(1);
            (void)runFingerprintingShared(small.config, small.kinds,
                                          small.pipeline);
        },
        "simulated crash after 2 collection chunk entries");
    EXPECT_EQ(entries(small.pipeline.cacheDir, "collect").size(), 2u)
        << "the crash comes right after the second commit";

    // A kill -9 inside atomicWriteFile leaves its temp file behind; it
    // is not an entry, so neither lookup nor eviction may trip on it.
    const std::string stray = small.pipeline.cacheDir +
                              "/collect-0123456789abcdef.bfc.tmp.4242.0";
    writeAll(stray, "torn");

    small.config.faults.ioCrashAfterRecords = 0;
    std::string printed;
    expectSameResults(small.runCapturing(printed), reference);
    EXPECT_NE(printed.find("replayed 2 of 6 collection chunks"),
              std::string::npos)
        << printed;
    EXPECT_EQ(entries(small.pipeline.cacheDir, "collect").size(),
              SmallRun::kChunks);

    auto cache = StageCache::open(small.pipeline.cacheDir);
    ASSERT_TRUE(cache.isOk());
    const std::size_t stored = entries(small.pipeline.cacheDir, "").size();
    EXPECT_EQ(cache.value().evict(stored), 0u);
    EXPECT_EQ(cache.value().evict(0), stored);
    EXPECT_TRUE(fs::exists(stray)) << "eviction only counts entries";
}

} // namespace
} // namespace bigfish::core
