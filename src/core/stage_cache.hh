/**
 * @file
 * StageCache: a content-addressed store of stage outputs.
 *
 * The stage graph (core/stage.hh) makes every pipeline phase a pure
 * function of its configuration and its upstream outputs, so any
 * stage's output can be reused across runs that share its fingerprint:
 * raw collection chunks (a killed run resumes from the chunks it
 * committed), featurized datasets (sweeps that vary only the classifier
 * or the evaluation protocol), trained fold models (ml/serialize
 * snapshots) and per-fold evaluation scores. A hit replays the payload
 * bit-identically: the collect, featurized and scores codecs store
 * every double as its raw IEEE-754 bytes (NaN payloads and signed zeros
 * included), so a cached run's artifact matches the uncached run's
 * except for phase timings and cache provenance.
 *
 * Entries are keyed by (kind, fingerprint): the kind names the payload
 * namespace ("collect", "featurized", "model", "scores") and the
 * fingerprint is the owning stage's input fingerprint (config ⊕
 * upstream fingerprints, core/stage.hh; a collection chunk's key adds
 * its chunk index, world and cell range to the Collect stage's). Any
 * input change simply
 * misses — stale payloads can never leak into a non-matching run.
 *
 * An entry file is one header line, "# bigfish-stage-cache v2
 * kind=<kind> key=<16 hex> order=<le|be>\n", then the payload bytes,
 * then a fixed-width "@crc xxxxxxxx\n" trailer: a whole-file CRC32
 * (base/hash.hh) read at a fixed offset from the end, so the payload
 * may hold any bytes. The order tag names the host byte order the
 * payload's raw numbers were written in; an entry from a host of the
 * other order, or of an older format version, fails the header check
 * and is treated like a corrupt one, so an existing cache directory
 * refills once.
 *
 * Durability contract: entries are committed with atomicWriteFile
 * (write-temp-fsync-rename, unique temp names). A torn, interleaved,
 * bit-flipped or stale-format entry is detected on lookup, removed,
 * and reported as a miss — the pipeline falls back to recomputing,
 * never to wrong data. Concurrent writers of the same key race to
 * write *identical* bytes (the pipeline is deterministic), so whichever
 * rename lands last is correct.
 */

#ifndef BF_CORE_STAGE_CACHE_HH
#define BF_CORE_STAGE_CACHE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.hh"
#include "core/collector.hh"
#include "ml/dataset.hh"
#include "ml/evaluation.hh"

namespace bigfish::core {

/** Lookup/store accounting for one StageCache instance. */
struct StageCacheStats
{
    std::size_t hits = 0;
    std::size_t misses = 0;
    /** Entries dropped by lookup() as torn/corrupt (counted as misses too). */
    std::size_t corrupt = 0;
    std::size_t stores = 0;
    /** Entries removed by evict(). */
    std::size_t evicted = 0;
};

/**
 * Content-addressed store of stage payloads, one file per (kind, key)
 * under a cache directory. Thread-safe: fold stages probe and store
 * concurrently from pool workers.
 */
class StageCache
{
  public:
    /** Opens the cache at @p dir, creating the directory as needed. */
    [[nodiscard]] static Result<StageCache> open(const std::string &dir);

    /**
     * The cached payload for (@p kind, @p key), or nullopt on miss. The
     * entry is read with one read into a buffer sized from the file,
     * and the header and trailer are stripped in place. A present but
     * unreadable entry (CRC failure, malformed framing, other format
     * version or byte order, kind/key mismatch) is removed and reported
     * as a miss.
     */
    [[nodiscard]] std::optional<std::string> lookup(std::string_view kind,
                                                    std::uint64_t key);

    /** Atomically commits @p payload under (kind, key). */
    [[nodiscard]] Status put(std::string_view kind, std::uint64_t key,
                               std::string_view payload);

    /**
     * Drops one entry (used when a payload passes the CRC but fails
     * its semantic decode — dead weight either way).
     */
    void remove(std::string_view kind, std::uint64_t key);

    /**
     * Removes oldest-modified entries until at most @p maxEntries
     * remain. Returns the number removed.
     */
    std::size_t evict(std::size_t maxEntries);

    /** The entry file path for (kind, key) (tests and diagnostics). */
    std::string entryPath(std::string_view kind, std::uint64_t key) const;

    const std::string &dir() const { return dir_; }
    StageCacheStats stats() const;

    // --- Framing internals, exposed for tests -------------------------
    /** Frames @p payload with the versioned header + CRC32 trailer. */
    static std::string frame(std::string_view kind, std::uint64_t key,
                             std::string_view payload);
    /** Inverse of frame(); false on any malformation. */
    static bool unframe(const std::string &text, std::string_view kind,
                        std::uint64_t key, std::string &payload);

  private:
    explicit StageCache(std::string dir) : dir_(std::move(dir)) {}

    std::string dir_;
    StageCacheStats stats_;
    /** unique_ptr keeps the class movable (Result<StageCache>). */
    std::unique_ptr<std::mutex> mutex_ = std::make_unique<std::mutex>();
};

// ---------------------------------------------------------------------
// Stage payload codecs: one binary encoding for the payloads the
// fingerprinting pipeline caches. Counts are uint64, labels int32, and
// every feature or score row and every trace is its raw doubles, all in
// host byte order and copied with memcpy, so a decoded payload is
// bit-identical to the encoded one by construction. Decoders check
// every count against the bytes that remain before allocating, reject
// rows × cols overflow, out-of-range labels and error codes, shape
// mismatches and trailing bytes, and return nullopt — never crash — on
// any malformed payload.

/**
 * One collection chunk's cells (the "collect" payload): a closed-world
 * site's runs, or consecutive open-world traces. Each cell holds one
 * slot per attacker, either an OK trace (identity, raw counts and
 * int64 wall times) or a dropped trace (its ErrorCode and message).
 * Perf counters are not stored: a replayed cell performed no
 * simulation, so it reports zero.
 */
std::string encodeCollectChunk(std::span<const CollectedCell> cells);
/** Decodes a chunk that must hold exactly @p cells cells of
 *  @p attackers slots each. */
[[nodiscard]] std::optional<std::vector<CollectedCell>>
decodeCollectChunk(const std::string &payload, std::size_t cells,
                   std::size_t attackers);

/** Everything one attacker's evaluation consumes downstream of
 *  featurization (the "featurized" payload). */
struct FeaturizedEntry
{
    ml::Dataset closedWorld;
    /** Present only when the run had openWorldExtra > 0. */
    ml::Dataset openWorld;
    bool hasOpenWorld = false;
    /** Trace accounting replayed into FingerprintResult. */
    std::uint64_t droppedTraces = 0;
    std::uint64_t collectedTraces = 0;
};

std::string encodeFeaturized(const FeaturizedEntry &entry);
[[nodiscard]] std::optional<FeaturizedEntry>
decodeFeaturized(const std::string &payload);

/** One fold's raw evaluation outputs (the "scores" payload). */
std::string encodeFoldScores(const ml::FoldScores &fold);
[[nodiscard]] std::optional<ml::FoldScores>
decodeFoldScores(const std::string &payload);

} // namespace bigfish::core

#endif // BF_CORE_STAGE_CACHE_HH
