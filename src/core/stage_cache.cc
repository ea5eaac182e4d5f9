#include "core/stage_cache.hh"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <vector>

#include "base/atomic_file.hh"
#include "base/hash.hh"
#include "base/logging.hh"

namespace bigfish::core {

namespace {

namespace fs = std::filesystem;

std::string
hex16(std::uint64_t value)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
    return buf;
}

constexpr char kHeaderPrefix[] = "# bigfish-stage-cache v2 kind=";
constexpr char kEntrySuffix[] = ".bfc";
/** "@crc xxxxxxxx\n": fixed width, so it sits at a fixed offset from
 *  the end of the entry whatever bytes the payload holds. */
constexpr std::size_t kTrailerSize = 14;
/** Payload integers and doubles are raw host-order bytes; the header
 *  names the order, so an entry written on a host of the other
 *  endianness fails the header check and misses. */
constexpr const char *kByteOrder =
    std::endian::native == std::endian::little ? "le" : "be";

static_assert(sizeof(Label) == sizeof(std::int32_t),
              "labels are stored as int32");
static_assert(sizeof(SiteId) == sizeof(std::int32_t),
              "site ids are stored as int32");
static_assert(sizeof(TimeNs) == sizeof(std::int64_t),
              "wall times are stored as int64");

std::string
headerLine(std::string_view kind, std::uint64_t key)
{
    return kHeaderPrefix + std::string(kind) + " key=" + hex16(key) +
           " order=" + kByteOrder + "\n";
}

/** The "@crc xxxxxxxx\n" trailer that seals @p body. */
std::string
trailerFor(std::string_view body)
{
    char trailer[kTrailerSize + 1];
    std::snprintf(trailer, sizeof(trailer), "@crc %08x\n", crc32(body));
    return trailer;
}

/** The payload of a framed entry (a view into @p text), or nullopt
 *  unless its CRC, version, byte order, kind and key all check out. */
std::optional<std::string_view>
framedPayload(std::string_view text, std::string_view kind,
              std::uint64_t key)
{
    if (text.size() < kTrailerSize)
        return std::nullopt;
    const std::string_view body = text.substr(0, text.size() - kTrailerSize);
    const std::string header = headerLine(kind, key);
    if (text.substr(body.size()) != trailerFor(body) ||
        !body.starts_with(header))
        return std::nullopt;
    return body.substr(header.size());
}

// Payloads are raw host-order bytes: fixed-width counts, int32 labels
// and IEEE-754 doubles, each copied with memcpy.

template <typename T>
void
putArray(std::string &out, const T *values, std::size_t n)
{
    out.append(reinterpret_cast<const char *>(values), n * sizeof(T));
}

template <typename T>
void
put(std::string &out, T value)
{
    putArray(out, &value, 1);
}

/** A rows × cols matrix; every row is as wide as the first. */
void
putMatrix(std::string &out, const std::vector<std::vector<double>> &rows)
{
    const std::size_t cols = rows.empty() ? 0 : rows.front().size();
    put<std::uint64_t>(out, rows.size());
    put<std::uint64_t>(out, cols);
    for (const auto &row : rows) {
        panicIf(row.size() != cols, "stage cache: ragged matrix rows");
        putArray(out, row.data(), cols);
    }
}

// The get functions consume what the put functions wrote from the
// front of @p in. Every count is checked against the bytes that remain
// before anything is allocated for it, so a malformed payload fails
// cleanly instead of allocating or reading past its end.

template <typename T>
[[nodiscard]] bool
getArray(std::string_view &in, T *values, std::size_t n)
{
    if (n > in.size() / sizeof(T))
        return false;
    if (n > 0)
        std::memcpy(values, in.data(), n * sizeof(T));
    in.remove_prefix(n * sizeof(T));
    return true;
}

template <typename T>
[[nodiscard]] bool
get(std::string_view &in, T &value)
{
    return getArray(in, &value, 1);
}

/** A length-prefixed array of raw values. */
template <typename T>
void
putVector(std::string &out, const std::vector<T> &values)
{
    put<std::uint64_t>(out, values.size());
    putArray(out, values.data(), values.size());
}

template <typename T>
[[nodiscard]] bool
getVector(std::string_view &in, std::vector<T> &values)
{
    std::uint64_t n = 0;
    if (!get(in, n) || n > in.size() / sizeof(T))
        return false;
    values.resize(static_cast<std::size_t>(n));
    return getArray(in, values.data(), values.size());
}

/** A length-prefixed label vector, every label in [0, classes). */
[[nodiscard]] bool
getLabels(std::string_view &in, std::vector<Label> &labels, Label classes)
{
    return getVector(in, labels) &&
           std::all_of(labels.begin(), labels.end(),
                       [&](Label l) { return l >= 0 && l < classes; });
}

/** A matrix that must have exactly @p rows rows. */
[[nodiscard]] bool
getMatrix(std::string_view &in, std::vector<std::vector<double>> &out,
          std::size_t rows)
{
    std::uint64_t stored_rows = 0, cols = 0;
    if (!get(in, stored_rows) || !get(in, cols) || stored_rows != rows ||
        (cols != 0 && rows > UINT64_MAX / cols) ||
        rows * cols > in.size() / sizeof(double))
        return false;
    out.resize(rows);
    for (auto &row : out) {
        row.resize(static_cast<std::size_t>(cols));
        if (!getArray(in, row.data(), row.size()))
            return false;
    }
    return true;
}

/** One dataset section: the class count, the labels, the features. */
void
putDataset(std::string &out, const ml::Dataset &data)
{
    put<std::int32_t>(out, data.numClasses);
    putVector(out, data.labels);
    putMatrix(out, data.features);
}

[[nodiscard]] bool
getDataset(std::string_view &in, ml::Dataset &data)
{
    std::int32_t classes = 0;
    if (!get(in, classes) || classes < 0)
        return false;
    data.numClasses = classes;
    return getLabels(in, data.labels, classes) &&
           getMatrix(in, data.features, data.labels.size());
}

/** A length-prefixed byte string. */
void
putString(std::string &out, std::string_view text)
{
    put<std::uint64_t>(out, text.size());
    out.append(text);
}

[[nodiscard]] bool
getString(std::string_view &in, std::string &text)
{
    std::uint64_t n = 0;
    if (!get(in, n) || n > in.size())
        return false;
    text.assign(in.substr(0, static_cast<std::size_t>(n)));
    in.remove_prefix(static_cast<std::size_t>(n));
    return true;
}

/** One attacker slot of a collection cell: tag 1 and the trace, or
 *  tag 0 and the Status it was dropped with. */
void
putSlot(std::string &out, const Result<attack::Trace> &slot)
{
    put<std::uint8_t>(out, slot.isOk() ? 1 : 0);
    if (!slot.isOk()) {
        put<std::int32_t>(out,
                          static_cast<std::int32_t>(slot.status().code()));
        putString(out, slot.status().message());
        return;
    }
    const attack::Trace &trace = slot.value();
    put<std::int32_t>(out, trace.siteId);
    put<std::int32_t>(out, trace.label);
    put<std::int64_t>(out, trace.period);
    putString(out, trace.attacker);
    putVector(out, trace.counts);
    putVector(out, trace.wallTimes);
}

[[nodiscard]] std::optional<Result<attack::Trace>>
getSlot(std::string_view &in)
{
    std::uint8_t ok = 0;
    if (!get(in, ok) || ok > 1)
        return std::nullopt;
    if (ok == 0) {
        std::int32_t code = 0;
        std::string message;
        if (!get(in, code) ||
            code <= static_cast<std::int32_t>(ErrorCode::Ok) ||
            code > static_cast<std::int32_t>(ErrorCode::Exhausted) ||
            !getString(in, message))
            return std::nullopt;
        return Result<attack::Trace>(
            Status(static_cast<ErrorCode>(code), std::move(message)));
    }
    attack::Trace trace;
    std::int32_t site = 0, label = 0;
    std::int64_t period = 0;
    if (!get(in, site) || !get(in, label) || !get(in, period) ||
        !getString(in, trace.attacker) || !getVector(in, trace.counts) ||
        !getVector(in, trace.wallTimes))
        return std::nullopt;
    trace.siteId = site;
    trace.label = label;
    trace.period = period;
    return Result<attack::Trace>(std::move(trace));
}

/** Reads the entry at @p path whole into @p content with one read. */
bool
readEntry(const std::string &path, std::string &content)
{
    std::ifstream in(path, std::ios::binary);
    std::error_code ec;
    const std::uintmax_t size = fs::file_size(path, ec);
    if (!in || ec)
        return false;
    content.resize(static_cast<std::size_t>(size));
    in.read(content.data(), static_cast<std::streamsize>(size));
    content.resize(static_cast<std::size_t>(in.gcount()));
    return true;
}

} // namespace

Result<StageCache>
StageCache::open(const std::string &dir)
{
    Status created = createDirectories(dir);
    if (!created.isOk())
        return created;
    return StageCache(dir);
}

std::string
StageCache::entryPath(std::string_view kind, std::uint64_t key) const
{
    return dir_ + "/" + std::string(kind) + "-" + hex16(key) + kEntrySuffix;
}

std::string
StageCache::frame(std::string_view kind, std::uint64_t key,
                  std::string_view payload)
{
    std::string framed = headerLine(kind, key);
    framed.reserve(framed.size() + payload.size() + kTrailerSize);
    framed += payload;
    framed += trailerFor(framed);
    return framed;
}

bool
StageCache::unframe(const std::string &text, std::string_view kind,
                    std::uint64_t key, std::string &payload)
{
    const std::optional<std::string_view> found =
        framedPayload(text, kind, key);
    if (found)
        payload.assign(*found);
    return found.has_value();
}

std::optional<std::string>
StageCache::lookup(std::string_view kind, std::uint64_t key)
{
    const std::string path = entryPath(kind, key);
    std::string content;
    if (!readEntry(path, content)) {
        const std::lock_guard<std::mutex> lock(*mutex_);
        ++stats_.misses;
        return std::nullopt;
    }
    const std::optional<std::string_view> payload =
        framedPayload(content, kind, key);
    if (!payload) {
        // A torn, corrupt or stale-format entry is dead weight: drop it
        // so the next run re-stores a clean one, and fall back to
        // recomputing.
        std::error_code ec;
        fs::remove(path, ec);
        warn("stage cache entry " + path +
             " failed validation; removed and treated as a miss");
        const std::lock_guard<std::mutex> lock(*mutex_);
        ++stats_.corrupt;
        ++stats_.misses;
        return std::nullopt;
    }
    // Strip the header and trailer in place, so the payload needs no
    // second buffer.
    const std::size_t begin =
        static_cast<std::size_t>(payload->data() - content.data());
    content.resize(begin + payload->size());
    content.erase(0, begin);
    // Touch-on-hit: evict() ranks entries by mtime, so a hit must
    // refresh the entry or a long-lived cache would evict its hottest
    // entries first (they are the oldest-written ones). Best-effort —
    // a read-only cache dir still serves hits, it just ages.
    std::error_code touch_ec;
    fs::last_write_time(path, fs::file_time_type::clock::now(), touch_ec);
    {
        const std::lock_guard<std::mutex> lock(*mutex_);
        ++stats_.hits;
    }
    return content;
}

Status
StageCache::put(std::string_view kind, std::uint64_t key,
                  std::string_view payload)
{
    Status written =
        atomicWriteFile(entryPath(kind, key), frame(kind, key, payload));
    if (written.isOk()) {
        const std::lock_guard<std::mutex> lock(*mutex_);
        ++stats_.stores;
    }
    return written;
}

void
StageCache::remove(std::string_view kind, std::uint64_t key)
{
    std::error_code ec;
    fs::remove(entryPath(kind, key), ec);
}

std::size_t
StageCache::evict(std::size_t maxEntries)
{
    std::vector<std::pair<fs::file_time_type, fs::path>> entries;
    std::error_code ec;
    for (const auto &item : fs::directory_iterator(dir_, ec)) {
        if (!item.is_regular_file(ec))
            continue;
        if (item.path().extension() != kEntrySuffix)
            continue;
        entries.emplace_back(fs::last_write_time(item.path(), ec),
                             item.path());
    }
    if (entries.size() <= maxEntries)
        return 0;
    // Oldest-modified first; lookup() touches entries on hit, so mtime
    // order is least-recently-*used* order, not least-recently-written.
    // Ties broken by path so eviction order is stable under equal
    // timestamps.
    std::sort(entries.begin(), entries.end());
    const std::size_t excess = entries.size() - maxEntries;
    std::size_t removed = 0;
    for (std::size_t i = 0; i < excess; ++i)
        if (fs::remove(entries[i].second, ec))
            ++removed;
    const std::lock_guard<std::mutex> lock(*mutex_);
    stats_.evicted += removed;
    return removed;
}

StageCacheStats
StageCache::stats() const
{
    const std::lock_guard<std::mutex> lock(*mutex_);
    return stats_;
}

std::string
encodeCollectChunk(std::span<const CollectedCell> cells)
{
    const std::size_t attackers =
        cells.empty() ? 0 : cells.front().traces.size();
    std::string out;
    put<std::uint64_t>(out, cells.size());
    put<std::uint64_t>(out, attackers);
    for (const CollectedCell &cell : cells) {
        panicIf(cell.traces.size() != attackers,
                "stage cache: ragged collection chunk");
        for (const Result<attack::Trace> &slot : cell.traces)
            putSlot(out, slot);
    }
    return out;
}

std::optional<std::vector<CollectedCell>>
decodeCollectChunk(const std::string &payload, std::size_t cells,
                   std::size_t attackers)
{
    std::string_view in = payload;
    std::uint64_t stored_cells = 0, stored_attackers = 0;
    // Every slot takes at least its tag byte.
    if (!get(in, stored_cells) || !get(in, stored_attackers) ||
        stored_cells != cells || stored_attackers != attackers ||
        (attackers != 0 && cells > in.size() / attackers))
        return std::nullopt;
    std::vector<CollectedCell> out(cells);
    for (CollectedCell &cell : out) {
        cell.traces.reserve(attackers);
        for (std::size_t a = 0; a < attackers; ++a) {
            std::optional<Result<attack::Trace>> slot = getSlot(in);
            if (!slot)
                return std::nullopt;
            cell.traces.push_back(std::move(*slot));
        }
    }
    if (!in.empty())
        return std::nullopt;
    return out;
}

std::string
encodeFeaturized(const FeaturizedEntry &entry)
{
    std::string out;
    put<std::uint64_t>(out, entry.droppedTraces);
    put<std::uint64_t>(out, entry.collectedTraces);
    put<std::uint8_t>(out, entry.hasOpenWorld ? 1 : 0);
    putDataset(out, entry.closedWorld);
    if (entry.hasOpenWorld)
        putDataset(out, entry.openWorld);
    return out;
}

std::optional<FeaturizedEntry>
decodeFeaturized(const std::string &payload)
{
    std::string_view in = payload;
    FeaturizedEntry entry;
    std::uint8_t open = 0;
    if (!get(in, entry.droppedTraces) || !get(in, entry.collectedTraces) ||
        !get(in, open) || open > 1)
        return std::nullopt;
    entry.hasOpenWorld = open == 1;
    if (!getDataset(in, entry.closedWorld) ||
        (entry.hasOpenWorld && !getDataset(in, entry.openWorld)) ||
        !in.empty())
        return std::nullopt;
    return entry;
}

std::string
encodeFoldScores(const ml::FoldScores &fold)
{
    std::string out;
    putVector(out, fold.truths);
    putVector(out, fold.predictions);
    putMatrix(out, fold.scores);
    return out;
}

std::optional<ml::FoldScores>
decodeFoldScores(const std::string &payload)
{
    std::string_view in = payload;
    ml::FoldScores fold;
    const Label any = std::numeric_limits<Label>::max();
    if (!getLabels(in, fold.truths, any) ||
        !getLabels(in, fold.predictions, any) ||
        fold.predictions.size() != fold.truths.size() ||
        !getMatrix(in, fold.scores, fold.truths.size()) || !in.empty())
        return std::nullopt;
    return fold;
}

} // namespace bigfish::core
