/**
 * @file
 * Unit tests for src/base: RNG determinism and distributions, hashing,
 * and table formatting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>

#include "base/hash.hh"
#include "base/logging.hh"
#include "base/result.hh"
#include "base/rng.hh"
#include "base/status.hh"
#include "base/table.hh"
#include "base/thread_pool.hh"
#include "base/types.hh"

namespace bigfish {
namespace {

TEST(TimeConstants, RelateCorrectly)
{
    EXPECT_EQ(kUsec, 1000);
    EXPECT_EQ(kMsec, 1000 * kUsec);
    EXPECT_EQ(kSec, 1000 * kMsec);
}

TEST(Crc32, MatchesIeeeCheckValue)
{
    // The CRC-32/IEEE "check" input: crc32("123456789") = 0xCBF43926.
    EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
    EXPECT_EQ(crc32(""), 0u);
}

TEST(Crc32, DetectsSingleBitFlips)
{
    const std::string clean = "stage-cache payload\n";
    std::string flipped = clean;
    flipped[4] ^= 0x01;
    EXPECT_NE(crc32(clean), crc32(flipped));
    EXPECT_EQ(crc32(clean), crc32(std::string(clean)));
}

/** The bitwise CRC-32/IEEE definition, the reference for crc32(). */
std::uint32_t
referenceCrc32(std::string_view data)
{
    std::uint32_t crc = 0xffffffffu;
    for (const char byte : data) {
        crc ^= static_cast<unsigned char>(byte);
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc & 1) ? 0xedb88320u ^ (crc >> 1) : crc >> 1;
    }
    return crc ^ 0xffffffffu;
}

std::string
seededBytes(std::uint64_t seed, std::size_t n)
{
    Rng rng(seed);
    std::string bytes(n, '\0');
    for (char &b : bytes)
        b = static_cast<char>(rng() & 0xffu);
    return bytes;
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndAlignment)
{
    // The 8-byte blocks and the bytewise tail must agree with the
    // definition for every split of a buffer into blocks and tail, and
    // whatever the start address's alignment.
    const std::string bytes = seededBytes(7, 257 + 8);
    for (std::size_t offset = 0; offset < 8; ++offset)
        for (std::size_t len = 0; len <= 257; ++len) {
            const std::string_view slice(bytes.data() + offset, len);
            ASSERT_EQ(crc32(slice), referenceCrc32(slice))
                << "offset " << offset << " length " << len;
        }
}

TEST(Crc32, MatchesBytewiseReferenceOnOneMegabyte)
{
    const std::string bytes = seededBytes(2022, 1 << 20);
    EXPECT_EQ(crc32(bytes), referenceCrc32(bytes));
}

TEST(Fnv64, MatchesReferenceVectors)
{
    // FNV-1a 64-bit reference vectors: offset basis for "", and the
    // published single-byte results.
    EXPECT_EQ(fnv64(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv64("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv64("foobar"), 0x85944171f73967e8ULL);
}

TEST(Fnv64, OrderAndLengthSensitive)
{
    EXPECT_NE(fnv64("ab"), fnv64("ba"));
    EXPECT_NE(fnv64("ab"), fnv64(std::string_view("ab\0", 3)));
    EXPECT_EQ(fnv64("collection=1\n"), fnv64("collection=1\n"));
}

TEST(Mix64, IsDeterministic)
{
    EXPECT_EQ(mix64(42), mix64(42));
    EXPECT_NE(mix64(42), mix64(43));
}

TEST(Mix64, SpreadsAdjacentInputs)
{
    // Adjacent inputs should differ in roughly half their bits.
    const std::uint64_t a = mix64(1000);
    const std::uint64_t b = mix64(1001);
    const int differing = __builtin_popcountll(a ^ b);
    EXPECT_GT(differing, 16);
    EXPECT_LT(differing, 48);
}

TEST(Rng, SameSeedSameSequence)
{
    Rng a(7), b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDifferentSequences)
{
    Rng a(7), b(8);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        if (a() == b())
            ++equal;
    EXPECT_LT(equal, 3);
}

TEST(Rng, ForksWithDifferentSaltsDiffer)
{
    Rng parent(11);
    Rng f1 = parent.fork(1);
    Rng f2 = parent.fork(2);
    EXPECT_NE(f1(), f2());
}

TEST(Rng, UniformStaysInRange)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        const double v = rng.uniform(5.0, 6.0);
        EXPECT_GE(v, 5.0);
        EXPECT_LT(v, 6.0);
    }
}

TEST(Rng, UniformIntCoversInclusiveRange)
{
    Rng rng(4);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniformInt(0, 4);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 4);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NormalHasRequestedMoments)
{
    Rng rng(5);
    double sum = 0.0, sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.normal(10.0, 2.0);
        sum += v;
        sq += v * v;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.1);
    EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(Rng, LognormalMedianIsParameter)
{
    Rng rng(6);
    std::vector<double> values;
    for (int i = 0; i < 20001; ++i)
        values.push_back(rng.lognormal(100.0, 0.5));
    std::nth_element(values.begin(), values.begin() + 10000, values.end());
    EXPECT_NEAR(values[10000], 100.0, 5.0);
    for (double v : values)
        EXPECT_GT(v, 0.0);
}

TEST(Rng, ExponentialMeanMatches)
{
    Rng rng(7);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(50.0);
    EXPECT_NEAR(sum / n, 50.0, 2.0);
}

TEST(Rng, PoissonMeanMatches)
{
    Rng rng(8);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.poisson(3.5);
    EXPECT_NEAR(sum / n, 3.5, 0.1);
}

TEST(Rng, PoissonZeroMeanIsZero)
{
    Rng rng(9);
    EXPECT_EQ(rng.poisson(0.0), 0);
    EXPECT_EQ(rng.poisson(-1.0), 0);
}

TEST(Rng, BernoulliProbability)
{
    Rng rng(10);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        if (rng.bernoulli(0.25))
            ++hits;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(Table, RendersHeadersAndRows)
{
    Table t({"A", "Bee"});
    t.addRow({"1", "2"});
    t.addRow({"long-cell", "x"});
    const std::string out = t.render();
    EXPECT_NE(out.find("A"), std::string::npos);
    EXPECT_NE(out.find("Bee"), std::string::npos);
    EXPECT_NE(out.find("long-cell"), std::string::npos);
    // Header, separator, two rows.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Table, FormatHelpers)
{
    EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
    EXPECT_EQ(formatPercent(0.966, 1), "96.6%");
    EXPECT_EQ(formatPercentPm(0.966, 0.008, 1), "96.6 +/- 0.8");
}

TEST(Status, OkAndErrorBasics)
{
    const Status ok = Status::ok();
    EXPECT_TRUE(ok.isOk());
    EXPECT_EQ(ok.code(), ErrorCode::Ok);

    const Status err = parseError("bad row");
    EXPECT_FALSE(err.isOk());
    EXPECT_EQ(err.code(), ErrorCode::ParseError);
    EXPECT_EQ(err.message(), "bad row");
    EXPECT_EQ(err.toString(), "parse-error: bad row");
    EXPECT_EQ(err, parseError("different message, same code"));
    EXPECT_NE(err, dataError("bad row"));
}

TEST(Result, HoldsValueOrStatus)
{
    Result<int> good(42);
    ASSERT_TRUE(good.isOk());
    EXPECT_EQ(good.value(), 42);
    EXPECT_TRUE(good.status().isOk());

    Result<int> bad(invalidArgumentError("nope"));
    ASSERT_FALSE(bad.isOk());
    EXPECT_EQ(bad.status().code(), ErrorCode::InvalidArgument);
    EXPECT_EQ(std::move(bad).valueOr(-1), -1);
}

TEST(Result, MapAndAndThenForwardErrors)
{
    const auto doubled =
        Result<int>(21).map([](int v) { return v * 2; });
    ASSERT_TRUE(doubled.isOk());
    EXPECT_EQ(doubled.value(), 42);

    const auto from_error = Result<int>(dataError("gone"))
                                .map([](int v) { return v * 2; });
    ASSERT_FALSE(from_error.isOk());
    EXPECT_EQ(from_error.status().code(), ErrorCode::DataError);

    const auto chained =
        Result<int>(10).andThen([](int v) -> Result<std::string> {
            if (v < 0)
                return Status(outOfRangeError("negative"));
            return std::string(static_cast<std::size_t>(v), 'x');
        });
    ASSERT_TRUE(chained.isOk());
    EXPECT_EQ(chained.value().size(), 10u);

    const auto chained_err =
        Result<int>(exhaustedError("dry"))
            .andThen([](int) -> Result<std::string> {
                return std::string("unreachable");
            });
    ASSERT_FALSE(chained_err.isOk());
    EXPECT_EQ(chained_err.status().code(), ErrorCode::Exhausted);
}

TEST(ResultDeath, ValueOrDieTerminatesWithMessage)
{
    EXPECT_EXIT(
        {
            Result<int> bad(ioError("disk on fire"));
            std::move(bad).valueOrDie();
        },
        ::testing::ExitedWithCode(1), "disk on fire");
}

TEST(Logging, WarnOncePrintsOncePerKey)
{
    ::testing::internal::CaptureStderr();
    warnOnce("base-test/key-a", "first message");
    warnOnce("base-test/key-a", "second message");
    warnOnce("base-test/key-b", "other key");
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("first message"), std::string::npos);
    EXPECT_EQ(err.find("second message"), std::string::npos);
    EXPECT_NE(err.find("other key"), std::string::npos);
}

TEST(LoggingDeath, BfLogLevelSilentSuppressesWarnings)
{
    // threadsafe style re-executes the binary, so the child process
    // evaluates warningsEnabled()'s cached getenv under the modified
    // environment.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            setenv("BF_LOG_LEVEL", "silent", 1);
            warn("this must not appear");
            std::exit(warningsEnabled() ? 2 : 0);
        },
        ::testing::ExitedWithCode(0), "");
}

TEST(FatalDeath, ExitsOneFromAPoolWorker)
{
    // exit() would run the global pool's destructor on the worker that
    // called fatal(), and a thread cannot join itself.
    EXPECT_EXIT(
        {
            setGlobalThreads(2);
            globalPool().parallelFor(64, [](std::size_t) {
                if (currentWorkerIndex() != 0)
                    fatal("fatal on a pool worker");
                // The caller holds its chunk until the worker ends the
                // process; if no worker ever runs, the exit code says so.
                for (long spin = 0; spin < 100'000'000L; ++spin)
                    std::this_thread::yield();
            });
            std::exit(2);
        },
        ::testing::ExitedWithCode(1), "fatal on a pool worker");
}

} // namespace
} // namespace bigfish
