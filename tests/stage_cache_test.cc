/**
 * @file
 * Tests of the content-addressed stage cache (core/stage_cache.hh):
 * payload round-trip bit-exactness through the binary codecs (NaN
 * payloads, signed zeros, subnormals and infinities included),
 * hit/miss/eviction accounting, fingerprint invalidation via
 * stageFingerprint (core/stage.hh), corrupted, stale-format and
 * CRC-valid-but-malformed entry fallback, and concurrent-writer safety
 * under the deterministic-payload contract.
 */

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/hash.hh"
#include "base/rng.hh"
#include "base/thread_pool.hh"
#include "core/stage.hh"
#include "core/stage_cache.hh"

// Allocation tracking for the decoder-hardening tests: while armed,
// every operator new records the largest request, so a test can prove
// a malformed payload never made the decoder allocate beyond its size.
namespace {
std::atomic<bool> gTrackAllocations{false};
std::atomic<std::size_t> gLargestAllocation{0};
} // namespace

void *
operator new(std::size_t size)
{
    if (gTrackAllocations.load(std::memory_order_relaxed)) {
        std::size_t seen = gLargestAllocation.load(std::memory_order_relaxed);
        while (size > seen &&
               !gLargestAllocation.compare_exchange_weak(seen, size))
            ;
    }
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

// The replacement pair is malloc/free; GCC flags the free() once it
// inlines these into std::allocator, as if new and free were mixed.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
#pragma GCC diagnostic pop

namespace bigfish::core {
namespace {

namespace fs = std::filesystem;

/** A fresh empty cache directory unique to @p leaf. */
std::string
freshDir(const std::string &leaf)
{
    const std::string dir = testing::TempDir() + "bf_stage_cache_" + leaf;
    fs::remove_all(dir);
    return dir;
}

/** Opens a cache at a fresh directory, failing the test on error. */
StageCache
openFresh(const std::string &leaf)
{
    auto opened = StageCache::open(freshDir(leaf));
    EXPECT_TRUE(opened.isOk()) << opened.status().message();
    return std::move(opened).valueOrDie();
}

/** A deterministic dataset with awkward doubles (negative zero, inexact
 *  sums, tiny magnitudes) to stress the round-trip. */
ml::Dataset
makeDataset(std::uint64_t seed, std::size_t rows, std::size_t cols)
{
    Rng rng(seed);
    ml::Dataset data;
    data.numClasses = 7;
    for (std::size_t i = 0; i < rows; ++i) {
        std::vector<double> x(cols);
        for (std::size_t j = 0; j < cols; ++j)
            x[j] = rng.normal(0.0, 1.0) * 1e-3;
        if (!x.empty())
            x[0] = (i % 2 == 0) ? -0.0 : 0.1 + 0.2; // inexact sum
        data.add(std::move(x), static_cast<Label>(i % 7));
    }
    return data;
}

FeaturizedEntry
makeEntry(std::uint64_t seed, bool open_world)
{
    FeaturizedEntry entry;
    entry.closedWorld = makeDataset(seed, 11, 13);
    entry.hasOpenWorld = open_world;
    if (open_world)
        entry.openWorld = makeDataset(seed + 1, 5, 13);
    entry.droppedTraces = 3;
    entry.collectedTraces = 220;
    return entry;
}

/** Doubles a text codec cannot carry bit-exactly: a quiet NaN with a
 *  non-default payload, -NaN, -0.0, the smallest and the largest
 *  negative subnormal, and both infinities. */
std::vector<double>
specialValues()
{
    const std::uint64_t bits[] = {
        0x7ff8'0000'dead'beefULL, 0xfff8'0000'0000'0000ULL,
        0x8000'0000'0000'0000ULL, 0x0000'0000'0000'0001ULL,
        0x800f'ffff'ffff'ffffULL, 0x7ff0'0000'0000'0000ULL,
        0xfff0'0000'0000'0000ULL,
    };
    std::vector<double> values;
    for (const std::uint64_t b : bits)
        values.push_back(std::bit_cast<double>(b));
    return values;
}

void
expectRowsBitEqual(const std::vector<std::vector<double>> &got,
                   const std::vector<std::vector<double>> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].size(), want[i].size());
        for (std::size_t j = 0; j < got[i].size(); ++j)
            // Bit-level comparison: -0.0 == 0.0 and NaN != NaN under
            // operator==, but the replay contract is bitwise identity.
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i][j]),
                      std::bit_cast<std::uint64_t>(want[i][j]))
                << "row " << i << " col " << j;
    }
}

void
expectDatasetsBitEqual(const ml::Dataset &got, const ml::Dataset &want)
{
    ASSERT_EQ(got.numClasses, want.numClasses);
    ASSERT_EQ(got.labels, want.labels);
    expectRowsBitEqual(got.features, want.features);
}

/**
 * A chunk of @p cells cells with two attacker slots each: traces whose
 * counts include every special value and whose wall times need all 64
 * bits, and every third slot dropped with a multi-line message.
 */
std::vector<CollectedCell>
makeChunk(std::uint64_t seed, std::size_t cells)
{
    Rng rng(seed);
    std::vector<CollectedCell> chunk(cells);
    std::size_t slot = 0;
    for (std::size_t c = 0; c < cells; ++c) {
        for (int a = 0; a < 2; ++a, ++slot) {
            if (slot % 3 == 2) {
                chunk[c].traces.emplace_back(Status(
                    ErrorCode::DataError,
                    "trace of site " + std::to_string(c) + "\ntruncated"));
                continue;
            }
            attack::Trace trace;
            trace.siteId = static_cast<SiteId>(c);
            trace.label = static_cast<Label>(c);
            trace.period = 5'000'000;
            trace.attacker = a == 0 ? "loop-counting" : "sweep-counting";
            trace.counts = specialValues();
            for (int i = 0; i < 9; ++i) {
                trace.counts.push_back(rng.uniform() * 1e5 / 3.0);
                trace.wallTimes.push_back(
                    (std::int64_t{1} << 40) + rng.uniformInt(-40000, 40000));
            }
            chunk[c].traces.emplace_back(std::move(trace));
        }
    }
    return chunk;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
}

TEST(StageCache, MissThenStoreThenHitRoundTripsBitExactly)
{
    StageCache cache = openFresh("roundtrip");

    const std::uint64_t key = 0x1234'5678'9abc'def0ULL;
    EXPECT_FALSE(cache.lookup("featurized", key).has_value());
    EXPECT_EQ(cache.stats().misses, 1u);

    const FeaturizedEntry entry = makeEntry(42, /*open_world=*/true);
    ASSERT_TRUE(
        cache.put("featurized", key, encodeFeaturized(entry)).isOk());
    EXPECT_EQ(cache.stats().stores, 1u);

    const auto payload = cache.lookup("featurized", key);
    ASSERT_TRUE(payload.has_value());
    EXPECT_EQ(cache.stats().hits, 1u);
    const auto hit = decodeFeaturized(*payload);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->droppedTraces, entry.droppedTraces);
    EXPECT_EQ(hit->collectedTraces, entry.collectedTraces);
    EXPECT_TRUE(hit->hasOpenWorld);
    expectDatasetsBitEqual(hit->closedWorld, entry.closedWorld);
    expectDatasetsBitEqual(hit->openWorld, entry.openWorld);
}

TEST(StageCache, ClosedWorldOnlyEntryOmitsOpenSection)
{
    StageCache cache = openFresh("closed_only");
    const std::uint64_t key = 7;
    const FeaturizedEntry entry = makeEntry(9, /*open_world=*/false);
    ASSERT_TRUE(
        cache.put("featurized", key, encodeFeaturized(entry)).isOk());
    const auto payload = cache.lookup("featurized", key);
    ASSERT_TRUE(payload.has_value());
    const auto hit = decodeFeaturized(*payload);
    ASSERT_TRUE(hit.has_value());
    EXPECT_FALSE(hit->hasOpenWorld);
    EXPECT_EQ(hit->openWorld.size(), 0u);
    expectDatasetsBitEqual(hit->closedWorld, entry.closedWorld);
}

TEST(StageCache, FoldScoresRoundTripBitExactly)
{
    StageCache cache = openFresh("scores");
    ml::FoldScores fold;
    Rng rng(17);
    for (int row = 0; row < 9; ++row) {
        std::vector<double> scores(5);
        for (auto &s : scores)
            s = rng.normal(0.0, 1.0);
        scores[0] = row % 2 == 0 ? -0.0 : 0.1 + 0.2;
        fold.scores.push_back(std::move(scores));
        fold.truths.push_back(static_cast<Label>(row % 5));
        fold.predictions.push_back(static_cast<Label>((row + 1) % 5));
    }
    ASSERT_TRUE(cache.put("scores", 21, encodeFoldScores(fold)).isOk());
    const auto payload = cache.lookup("scores", 21);
    ASSERT_TRUE(payload.has_value());
    const auto hit = decodeFoldScores(*payload);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->truths, fold.truths);
    EXPECT_EQ(hit->predictions, fold.predictions);
    expectRowsBitEqual(hit->scores, fold.scores);
}

TEST(StageCache, CollectChunkRoundTripsBitExactlyIncludingDroppedTraces)
{
    StageCache cache = openFresh("chunk");
    const std::vector<CollectedCell> chunk = makeChunk(9, 4);
    ASSERT_TRUE(cache.put("collect", 21, encodeCollectChunk(chunk)).isOk());
    const auto payload = cache.lookup("collect", 21);
    ASSERT_TRUE(payload.has_value());
    const auto decoded = decodeCollectChunk(*payload, 4, 2);
    ASSERT_TRUE(decoded.has_value());
    ASSERT_EQ(decoded->size(), chunk.size());
    for (std::size_t c = 0; c < chunk.size(); ++c) {
        ASSERT_EQ((*decoded)[c].traces.size(), 2u);
        EXPECT_TRUE((*decoded)[c].perf.empty())
            << "a replayed cell performed no simulation";
        for (std::size_t a = 0; a < 2; ++a) {
            const Result<attack::Trace> &got = (*decoded)[c].traces[a];
            const Result<attack::Trace> &want = chunk[c].traces[a];
            ASSERT_EQ(got.isOk(), want.isOk()) << c << "/" << a;
            if (!want.isOk()) {
                EXPECT_EQ(got.status().code(), want.status().code());
                EXPECT_EQ(got.status().message(), want.status().message());
                continue;
            }
            EXPECT_EQ(got.value().siteId, want.value().siteId);
            EXPECT_EQ(got.value().label, want.value().label);
            EXPECT_EQ(got.value().period, want.value().period);
            EXPECT_EQ(got.value().attacker, want.value().attacker);
            expectRowsBitEqual({got.value().counts}, {want.value().counts});
            EXPECT_EQ(got.value().wallTimes, want.value().wallTimes);
        }
    }
}

TEST(StageCache, SpecialValuesRoundTripBitExactly)
{
    // "%a"/strtod drops NaN payload bits, so the old text codec was
    // never bit-exact for these; raw doubles must be.
    StageCache cache = openFresh("special");
    const std::vector<double> special = specialValues();
    FeaturizedEntry entry;
    entry.hasOpenWorld = true;
    ml::FoldScores fold;
    for (std::size_t r = 0; r < special.size(); ++r) {
        std::vector<double> row = special;
        std::rotate(row.begin(), row.begin() + static_cast<long>(r),
                    row.end());
        entry.closedWorld.add(row, static_cast<Label>(r % 3));
        entry.openWorld.add(row, static_cast<Label>(r % 4));
        fold.scores.push_back(row);
        fold.truths.push_back(static_cast<Label>(r));
        fold.predictions.push_back(static_cast<Label>(r));
    }
    ASSERT_TRUE(cache.put("featurized", 1, encodeFeaturized(entry)).isOk());
    ASSERT_TRUE(cache.put("scores", 2, encodeFoldScores(fold)).isOk());

    const auto featurized = cache.lookup("featurized", 1);
    ASSERT_TRUE(featurized.has_value());
    const auto hit = decodeFeaturized(*featurized);
    ASSERT_TRUE(hit.has_value());
    expectDatasetsBitEqual(hit->closedWorld, entry.closedWorld);
    expectDatasetsBitEqual(hit->openWorld, entry.openWorld);

    const auto scores = cache.lookup("scores", 2);
    ASSERT_TRUE(scores.has_value());
    const auto replayed = decodeFoldScores(*scores);
    ASSERT_TRUE(replayed.has_value());
    expectRowsBitEqual(replayed->scores, fold.scores);
}

TEST(StageCache, FingerprintChangesWithEveryInput)
{
    // Any change to a stage's name, canonical config text or upstream
    // fingerprints must address a different entry — that is the whole
    // invalidation story: stale entries are never *found*.
    const std::uint64_t up[] = {0x11ULL, 0x22ULL};
    const std::uint64_t base = stageFingerprint("featurize", "len=256\n", up);
    EXPECT_NE(base, stageFingerprint("featurize2", "len=256\n", up));
    EXPECT_NE(base, stageFingerprint("featurize", "len=255\n", up));
    const std::uint64_t other_up[] = {0x11ULL, 0x23ULL};
    EXPECT_NE(base, stageFingerprint("featurize", "len=256\n", other_up));
    const std::uint64_t swapped[] = {0x22ULL, 0x11ULL};
    EXPECT_NE(base, stageFingerprint("featurize", "len=256\n", swapped));
    const std::uint64_t fewer[] = {0x11ULL};
    EXPECT_NE(base, stageFingerprint("featurize", "len=256\n", fewer));
    // And the function itself is deterministic.
    EXPECT_EQ(base, stageFingerprint("featurize", "len=256\n", up));
}

TEST(StageCache, DifferentKeyOrKindMissesDespiteStoredEntry)
{
    StageCache cache = openFresh("invalidation");
    ASSERT_TRUE(
        cache.put("featurized", 1, encodeFeaturized(makeEntry(1, true)))
            .isOk());
    EXPECT_FALSE(cache.lookup("featurized", 2).has_value());
    EXPECT_FALSE(cache.lookup("model", 1).has_value());
    EXPECT_TRUE(cache.lookup("featurized", 1).has_value());
}

TEST(StageCache, CorruptedEntryIsRemovedAndMisses)
{
    StageCache cache = openFresh("corrupt");
    const std::uint64_t key = 3;
    ASSERT_TRUE(
        cache.put("featurized", key,
                    encodeFeaturized(makeEntry(3, false)))
            .isOk());

    // Flip one payload byte; the CRC trailer must catch it.
    const std::string path = cache.entryPath("featurized", key);
    std::string content = readFile(path);
    ASSERT_GT(content.size(), 100u);
    content[content.size() / 2] ^= 0x20;
    writeFile(path, content);

    EXPECT_FALSE(cache.lookup("featurized", key).has_value());
    EXPECT_EQ(cache.stats().corrupt, 1u);
    // The poisoned file is gone, so the next run re-stores cleanly.
    EXPECT_FALSE(fs::exists(path));
    ASSERT_TRUE(
        cache.put("featurized", key,
                    encodeFeaturized(makeEntry(3, false)))
            .isOk());
    EXPECT_TRUE(cache.lookup("featurized", key).has_value());
}

TEST(StageCache, TruncatedEntryIsAMiss)
{
    StageCache cache = openFresh("torn");
    const std::uint64_t key = 4;
    ASSERT_TRUE(
        cache.put("featurized", key,
                    encodeFeaturized(makeEntry(4, true)))
            .isOk());

    // Simulate a torn write: keep only the first half of the file.
    const std::string path = cache.entryPath("featurized", key);
    const std::string content = readFile(path);
    writeFile(path, content.substr(0, content.size() / 2));

    EXPECT_FALSE(cache.lookup("featurized", key).has_value());
    EXPECT_FALSE(fs::exists(path));
}

TEST(StageCache, UnframeRejectsKindOrKeyMismatch)
{
    // An entry framed under one (kind, key) must not validate under
    // another even if the bytes are intact (guards renamed files).
    const std::string text = StageCache::frame("model", 11, "payload\n");
    std::string payload;
    EXPECT_TRUE(StageCache::unframe(text, "model", 11, payload));
    EXPECT_EQ(payload, "payload\n");
    EXPECT_FALSE(StageCache::unframe(text, "model", 12, payload));
    EXPECT_FALSE(StageCache::unframe(text, "scores", 11, payload));
}

TEST(StageCache, UnframeReadsTheTrailerAtAFixedOffset)
{
    // A binary payload need not end in '\n' and may itself contain
    // "@crc "; the trailer is found by position, never by search.
    using namespace std::string_literals;
    const std::string binary = "\0@crc 00000000\n\xff\x01"s;
    const std::string text = StageCache::frame("scores", 5, binary);
    EXPECT_EQ(text.rfind("# bigfish-stage-cache v2 kind=scores ", 0), 0u);
    std::string payload;
    ASSERT_TRUE(StageCache::unframe(text, "scores", 5, payload));
    EXPECT_EQ(payload, binary);
    EXPECT_TRUE(StageCache::unframe(StageCache::frame("scores", 5, ""),
                                    "scores", 5, payload));
    EXPECT_TRUE(payload.empty());
    // Dropping or adding one byte at the end breaks the trailer.
    EXPECT_FALSE(StageCache::unframe(text.substr(0, text.size() - 1),
                                     "scores", 5, payload));
    EXPECT_FALSE(StageCache::unframe(text + "\n", "scores", 5, payload));
}

TEST(StageCache, StaleV1EntryMissesIsRemovedAndIsStoredAgainAsV2)
{
    StageCache cache = openFresh("stale_v1");
    const std::uint64_t key = 0xabcd'ef01ULL;
    // A well-formed entry in the old text format, CRC intact.
    char header[96];
    std::snprintf(header, sizeof(header),
                  "# bigfish-stage-cache v1 kind=featurized key=%016" PRIx64
                  "\n",
                  key);
    std::string v1 =
        std::string(header) + "meta dropped=0 collected=4 open=0\n";
    char trailer[16];
    std::snprintf(trailer, sizeof(trailer), "@crc %08x\n", crc32(v1));
    v1 += trailer;
    const std::string path = cache.entryPath("featurized", key);
    writeFile(path, v1);

    EXPECT_FALSE(cache.lookup("featurized", key).has_value());
    EXPECT_FALSE(fs::exists(path));
    EXPECT_EQ(cache.stats().corrupt, 1u);

    const FeaturizedEntry entry = makeEntry(8, false);
    ASSERT_TRUE(
        cache.put("featurized", key, encodeFeaturized(entry)).isOk());
    EXPECT_EQ(readFile(path).rfind("# bigfish-stage-cache v2 ", 0), 0u);
    const auto payload = cache.lookup("featurized", key);
    ASSERT_TRUE(payload.has_value());
    const auto hit = decodeFeaturized(*payload);
    ASSERT_TRUE(hit.has_value());
    expectDatasetsBitEqual(hit->closedWorld, entry.closedWorld);
}

TEST(StageCache, EvictRemovesOldestBeyondBudget)
{
    StageCache cache = openFresh("evict");
    std::vector<std::uint64_t> keys;
    for (std::uint64_t i = 0; i < 6; ++i) {
        keys.push_back(i);
        ASSERT_TRUE(cache
                        .put("featurized", i,
                               encodeFeaturized(makeEntry(i, false)))
                        .isOk());
        // Distinct mtimes so eviction order is the store order even on
        // coarse-granularity filesystems.
        const std::string path = cache.entryPath("featurized", i);
        const auto stamp = fs::last_write_time(path);
        fs::last_write_time(path, stamp + std::chrono::seconds(i));
    }

    EXPECT_EQ(cache.evict(6), 0u); // within budget: no-op
    EXPECT_EQ(cache.evict(4), 2u); // oldest two go
    EXPECT_EQ(cache.stats().evicted, 2u);
    EXPECT_FALSE(fs::exists(cache.entryPath("featurized", keys[0])));
    EXPECT_FALSE(fs::exists(cache.entryPath("featurized", keys[1])));
    for (std::size_t i = 2; i < keys.size(); ++i)
        EXPECT_TRUE(fs::exists(cache.entryPath("featurized", keys[i])))
            << i;
}

TEST(StageCache, HitRefreshesMtimeSoHotEntriesSurviveEviction)
{
    // Regression test: eviction ranks entries by mtime, and before
    // touch-on-hit a lookup left the mtime at store time — so the
    // *hottest* entry of a long-lived cache (stored first, hit on
    // every run) was always the first one evicted.
    StageCache cache = openFresh("touch_on_hit");
    for (std::uint64_t i = 0; i < 4; ++i) {
        ASSERT_TRUE(cache
                        .put("featurized", i,
                               encodeFeaturized(makeEntry(i, false)))
                        .isOk());
        // Backdate into the past, store order = age order (oldest
        // first), so the touch below — which stamps "now" — must beat
        // every sibling on any filesystem granularity.
        const std::string path = cache.entryPath("featurized", i);
        const auto stamp = fs::last_write_time(path);
        fs::last_write_time(path,
                            stamp - std::chrono::seconds(100 - 10 * i));
    }

    // Hit the oldest-stored entry: the touch must move it past its
    // siblings' mtimes, or the assertion below would evict it.
    ASSERT_TRUE(cache.lookup("featurized", 0).has_value());
    const auto touched = fs::last_write_time(cache.entryPath("featurized", 0));
    for (std::uint64_t i = 1; i < 4; ++i)
        EXPECT_GT(touched,
                  fs::last_write_time(cache.entryPath("featurized", i)))
            << "entry " << i;

    // Evicting down to one entry must keep the hot key 0 and drop the
    // never-hit entries instead.
    EXPECT_EQ(cache.evict(1), 3u);
    EXPECT_TRUE(fs::exists(cache.entryPath("featurized", 0)));
    for (std::uint64_t i = 1; i < 4; ++i)
        EXPECT_FALSE(fs::exists(cache.entryPath("featurized", i))) << i;
}

TEST(StageCache, ConcurrentWritersOfSameKeyLeaveAValidEntry)
{
    // The pipeline's contract: concurrent writers race to write
    // *identical* bytes (collection is deterministic), so whichever
    // atomic rename lands last must leave a parseable, correct entry.
    const std::string dir = freshDir("concurrent");
    const std::uint64_t key = 6;
    const FeaturizedEntry entry = makeEntry(6, true);
    const std::string payload = encodeFeaturized(entry);

    ThreadPool pool(8);
    std::vector<int> ok(16, 0);
    pool.parallelFor(16, [&](std::size_t i) {
        auto opened = StageCache::open(dir);
        if (!opened.isOk())
            return;
        StageCache writer = std::move(opened).valueOrDie();
        if (writer.put("featurized", key, payload).isOk())
            ok[i] = 1;
    });
    for (std::size_t i = 0; i < ok.size(); ++i)
        EXPECT_EQ(ok[i], 1) << "writer " << i;

    StageCache cache = StageCache::open(dir).valueOrDie();
    const auto framed = cache.lookup("featurized", key);
    ASSERT_TRUE(framed.has_value());
    const auto hit = decodeFeaturized(*framed);
    ASSERT_TRUE(hit.has_value());
    expectDatasetsBitEqual(hit->closedWorld, entry.closedWorld);
    expectDatasetsBitEqual(hit->openWorld, entry.openWorld);
}


/** Appends raw host-order values: hand-built payloads in the binary
 *  codecs' layout, for inputs their encoders never produce. */
class Bytes
{
  public:
    template <typename T>
    Bytes &
    operator<<(T value)
    {
        out_.append(reinterpret_cast<const char *>(&value), sizeof(value));
        return *this;
    }
    const std::string &str() const { return out_; }

  private:
    std::string out_;
};

/** A closed-world-only featurized payload: the given class count and
 *  labels, a rows × cols matrix header and @p doubles feature values. */
std::string
closedOnlyPayload(std::int32_t classes,
                  const std::vector<std::int32_t> &labels,
                  std::uint64_t rows, std::uint64_t cols,
                  std::size_t doubles)
{
    Bytes b;
    b << std::uint64_t{0} << std::uint64_t{labels.size()} << std::uint8_t{0}
      << classes << std::uint64_t{labels.size()};
    for (const std::int32_t label : labels)
        b << label;
    b << rows << cols;
    for (std::size_t i = 0; i < doubles; ++i)
        b << 0.5 * static_cast<double>(i);
    return b.str();
}

/** A scores payload with the given truth, prediction and matrix
 *  shapes. */
std::string
scoresPayload(std::uint64_t truths, std::uint64_t predictions,
              std::uint64_t rows, std::uint64_t cols)
{
    Bytes b;
    b << truths;
    for (std::uint64_t i = 0; i < truths; ++i)
        b << std::int32_t{0};
    b << predictions;
    for (std::uint64_t i = 0; i < predictions; ++i)
        b << std::int32_t{1};
    b << rows << cols;
    for (std::uint64_t i = 0; i < rows * cols; ++i)
        b << 0.25;
    return b.str();
}

/**
 * Stores @p payload as a declared stage's entry — framed with a correct
 * CRC, so only the decoder can reject it — and probes it through the
 * stage graph. Returns whether it replayed; a rejected entry must be
 * gone, and no single allocation of the probe may outgrow a small
 * multiple of the entry plus I/O buffers (a count read from disk never
 * sizes an allocation by itself).
 */
template <typename Out>
bool
replays(StageCache &cache, const StageCodec<Out> &codec,
        const std::string &payload)
{
    StageGraph graph(&cache);
    const std::size_t id = graph.declare("stage", "eval", "canon\n", {});
    const std::uint64_t key = graph.fingerprint(id);
    EXPECT_TRUE(cache.put(codec.kind, key, payload).isOk());
    gLargestAllocation = 0;
    gTrackAllocations = true;
    const bool hit = graph.fromCache(id, codec).has_value();
    gTrackAllocations = false;
    EXPECT_LE(gLargestAllocation.load(), (64u << 10) + 8 * payload.size());
    if (!hit) {
        EXPECT_FALSE(fs::exists(cache.entryPath(codec.kind, key)));
    }
    return hit;
}

const StageCodec<FeaturizedEntry> kFeaturizedCodec{
    "featurized", &encodeFeaturized, &decodeFeaturized};
const StageCodec<ml::FoldScores> kScoresCodec{"scores", &encodeFoldScores,
                                              &decodeFoldScores};

/** The collect codec for chunks of @p cells cells × @p attackers. */
StageCodec<std::vector<CollectedCell>>
chunkCodec(std::size_t cells, std::size_t attackers)
{
    return {"collect",
            [](const std::vector<CollectedCell> &chunk) {
                return encodeCollectChunk(chunk);
            },
            [=](const std::string &payload) {
                return decodeCollectChunk(payload, cells, attackers);
            }};
}

/** A one-cell, two-attacker chunk payload: an OK slot whose counts
 *  header says @p counts_header but that carries @p counts values and
 *  two wall times, then a slot dropped with error code @p code. */
std::string
chunkPayload(std::uint64_t counts_header, std::size_t counts,
             std::int32_t code, std::uint64_t message_header = 4)
{
    Bytes b;
    b << std::uint64_t{1} << std::uint64_t{2};
    b << std::uint8_t{1} << std::int32_t{3} << std::int32_t{3}
      << std::int64_t{5'000'000} << std::uint64_t{4} << 'l' << 'o' << 'o'
      << 'p' << counts_header;
    for (std::size_t i = 0; i < counts; ++i)
        b << 0.5 * static_cast<double>(i);
    b << std::uint64_t{2} << std::int64_t{-1} << std::int64_t{1};
    b << std::uint8_t{0} << code << message_header << 'g' << 'o' << 'n'
      << 'e';
    return b.str();
}

TEST(StageCacheDecoder, HandBuiltPayloadsMatchTheCodecLayout)
{
    // Positive controls: the builders below are only evidence if their
    // well-formed outputs do decode.
    StageCache cache = openFresh("decoder_layout");
    EXPECT_TRUE(replays(cache, kFeaturizedCodec,
                        closedOnlyPayload(7, {0, 6}, 2, 3, 6)));
    EXPECT_TRUE(replays(cache, kScoresCodec, scoresPayload(3, 3, 3, 4)));
    EXPECT_TRUE(replays(cache, chunkCodec(1, 2),
                        chunkPayload(3, 3, std::int32_t{6})));

    // And the encoder writes exactly that layout.
    CollectedCell cell;
    attack::Trace trace;
    trace.siteId = 3;
    trace.label = 3;
    trace.period = 5'000'000;
    trace.attacker = "loop";
    trace.counts = {0.0, 0.5, 1.0};
    trace.wallTimes = {-1, 1};
    cell.traces.emplace_back(std::move(trace));
    cell.traces.emplace_back(dataError("gone"));
    const CollectedCell cells[] = {cell};
    EXPECT_EQ(encodeCollectChunk(cells),
              chunkPayload(3, 3, std::int32_t{6}));
}

TEST(StageCacheDecoder, EveryTruncationOfAFeaturizedPayloadMisses)
{
    StageCache cache = openFresh("decoder_truncation");
    const std::string full = encodeFeaturized(makeEntry(5, true));
    ASSERT_TRUE(replays(cache, kFeaturizedCodec, full));
    for (std::size_t n = 0; n < full.size(); ++n)
        ASSERT_FALSE(replays(cache, kFeaturizedCodec, full.substr(0, n)))
            << "truncated to " << n << " of " << full.size() << " bytes";
}

TEST(StageCacheDecoder, OverflowingShapeMisses)
{
    StageCache cache = openFresh("decoder_overflow");
    // rows × cols wraps to exactly 0 in 64 bits ...
    EXPECT_FALSE(replays(cache, kFeaturizedCodec,
                         closedOnlyPayload(7, {0, 1}, 2, 1ULL << 63, 0)));
    // ... or fits in 64 bits but not once scaled to bytes.
    EXPECT_FALSE(replays(cache, kFeaturizedCodec,
                         closedOnlyPayload(7, {0, 1}, 2, 1ULL << 61, 0)));
    EXPECT_FALSE(replays(
        cache, kFeaturizedCodec,
        closedOnlyPayload(7, {0, 1}, 2,
                          std::numeric_limits<std::uint64_t>::max(), 0)));
    // A label count larger than the payload.
    EXPECT_FALSE(replays(cache, kScoresCodec,
                         scoresPayload(0, 0, 0, 0).replace(
                             0, 8, std::string(8, '\xff'))));
}

TEST(StageCacheDecoder, OutOfRangeLabelMisses)
{
    StageCache cache = openFresh("decoder_labels");
    EXPECT_FALSE(replays(cache, kFeaturizedCodec,
                         closedOnlyPayload(7, {0, 7}, 2, 3, 6)));
    EXPECT_FALSE(replays(cache, kFeaturizedCodec,
                         closedOnlyPayload(7, {-1, 0}, 2, 3, 6)));
    EXPECT_FALSE(replays(cache, kFeaturizedCodec,
                         closedOnlyPayload(-1, {}, 0, 0, 0)));
}

TEST(StageCacheDecoder, MatrixRowCountDisagreeingWithLabelsMisses)
{
    // With zero columns no feature bytes betray the wrong row count;
    // only the stored count does.
    StageCache cache = openFresh("decoder_rows");
    EXPECT_FALSE(replays(cache, kFeaturizedCodec,
                         closedOnlyPayload(7, {0, 1}, 3, 0, 0)));
    EXPECT_FALSE(replays(cache, kFeaturizedCodec,
                         closedOnlyPayload(7, {0, 1}, 1, 3, 3)));
    EXPECT_FALSE(replays(cache, kScoresCodec, scoresPayload(3, 3, 4, 0)));
}

TEST(StageCacheDecoder, TrailingBytesMiss)
{
    StageCache cache = openFresh("decoder_trailing");
    EXPECT_FALSE(replays(cache, kFeaturizedCodec,
                         encodeFeaturized(makeEntry(6, false)) + '\0'));
    EXPECT_FALSE(
        replays(cache, kScoresCodec, scoresPayload(3, 3, 3, 4) + "x"));
    EXPECT_FALSE(replays(cache, chunkCodec(1, 2),
                         chunkPayload(3, 3, std::int32_t{6}) + '\0'));
}

TEST(StageCacheDecoder, EveryTruncationOfACollectChunkMisses)
{
    StageCache cache = openFresh("decoder_chunk_truncation");
    const std::string full = encodeCollectChunk(makeChunk(4, 3));
    ASSERT_TRUE(replays(cache, chunkCodec(3, 2), full));
    for (std::size_t n = 0; n < full.size(); ++n)
        ASSERT_FALSE(replays(cache, chunkCodec(3, 2), full.substr(0, n)))
            << "truncated to " << n << " of " << full.size() << " bytes";
}

TEST(StageCacheDecoder, CollectChunkWithAnOutOfRangeErrorCodeMisses)
{
    StageCache cache = openFresh("decoder_chunk_code");
    const auto exhausted = static_cast<std::int32_t>(ErrorCode::Exhausted);
    EXPECT_TRUE(replays(cache, chunkCodec(1, 2),
                        chunkPayload(3, 3, exhausted)));
    // A dropped trace whose code is Ok would be no drop at all.
    for (const std::int32_t code : {std::int32_t{0}, exhausted + 1,
                                    std::int32_t{-1}})
        EXPECT_FALSE(replays(cache, chunkCodec(1, 2),
                             chunkPayload(3, 3, code)))
            << "code " << code;
    // A slot tag that is neither a trace (1) nor a drop (0).
    std::string bad_tag = chunkPayload(3, 3, exhausted);
    bad_tag[16] = 2;
    EXPECT_FALSE(replays(cache, chunkCodec(1, 2), bad_tag));
}

TEST(StageCacheDecoder, CollectChunkCountOverflowMisses)
{
    StageCache cache = openFresh("decoder_chunk_overflow");
    const auto code = std::int32_t{6};
    // A counts length whose byte size wraps to exactly 0 in 64 bits, or
    // that no payload could hold.
    EXPECT_FALSE(replays(cache, chunkCodec(1, 2),
                         chunkPayload(1ULL << 61, 0, code)));
    EXPECT_FALSE(replays(
        cache, chunkCodec(1, 2),
        chunkPayload(std::numeric_limits<std::uint64_t>::max(), 0, code)));
    // A message length beyond the payload.
    EXPECT_FALSE(replays(
        cache, chunkCodec(1, 2),
        chunkPayload(3, 3, code, std::numeric_limits<std::uint64_t>::max())));
    EXPECT_FALSE(
        replays(cache, chunkCodec(1, 2), chunkPayload(3, 3, code, 5)));
}

TEST(StageCacheDecoder, CollectChunkOfTheWrongShapeMisses)
{
    StageCache cache = openFresh("decoder_chunk_shape");
    const std::string payload = encodeCollectChunk(makeChunk(5, 3));
    EXPECT_TRUE(replays(cache, chunkCodec(3, 2), payload));
    // A chunk written for another attacker set or chunk size.
    EXPECT_FALSE(replays(cache, chunkCodec(3, 1), payload));
    EXPECT_FALSE(replays(cache, chunkCodec(3, 3), payload));
    EXPECT_FALSE(replays(cache, chunkCodec(2, 2), payload));
    EXPECT_FALSE(replays(cache, chunkCodec(4, 2), payload));
    // Two slots whose header claims one attacker: the slots would fill
    // the expected shape exactly, so only the stored count betrays it.
    std::string misstated = chunkPayload(3, 3, std::int32_t{6});
    const std::uint64_t one = 1;
    misstated.replace(8, sizeof(one),
                      reinterpret_cast<const char *>(&one), sizeof(one));
    EXPECT_FALSE(replays(cache, chunkCodec(1, 2), misstated));
}

TEST(StageCacheDecoder, ScoresWithMismatchedLengthsMiss)
{
    StageCache cache = openFresh("decoder_scores");
    EXPECT_FALSE(replays(cache, kScoresCodec, scoresPayload(3, 2, 3, 4)));
    EXPECT_FALSE(replays(cache, kScoresCodec, scoresPayload(2, 3, 3, 4)));
    EXPECT_FALSE(replays(cache, kScoresCodec, scoresPayload(3, 3, 2, 4)));
    EXPECT_FALSE(replays(cache, kScoresCodec, scoresPayload(3, 3, 4, 4)));
}

} // namespace
} // namespace bigfish::core
