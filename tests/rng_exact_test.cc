/**
 * @file
 * Pins Rng's inlined distribution fast paths to the <random> semantics
 * they replicate.
 *
 * Rng::uniform/normal/lognormal/exponential used to construct a fresh
 * std distribution object per draw; the hot-path rewrite replaced them
 * with inline replicas of the libstdc++ algorithms (generate_canonical
 * over one 64-bit draw, Marsaglia polar without the saved-deviate
 * cache) so the simulator's deviate streams stay bit-identical to
 * every trace recorded before the rewrite. These tests drive an Rng
 * and a same-seeded reference engine side by side and require exact
 * bit equality against freshly constructed std distributions — the
 * construct-per-call pattern Rng always used, which is what makes the
 * uncached replica exact.
 *
 * The comparison encodes libstdc++'s implementation, which ROADMAP
 * and DESIGN already pin as the reproducibility baseline (the
 * byArrival introsort permutation has the same dependence), so it is
 * compiled only under __GLIBCXX__. The value-level invariants at the
 * bottom hold on any standard library.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "base/mt64.hh"
#include "base/rng.hh"
#include "base/simd.hh"

namespace {

using bigfish::Rng;

/** A reference engine positioned identically to rng's internal one. */
std::mt19937_64
referenceEngine(std::uint64_t seed)
{
    return std::mt19937_64(bigfish::mix64(seed));
}

#if defined(__GLIBCXX__)

TEST(RngExact, UniformMatchesStdUniformRealDistribution)
{
    Rng rng(2022);
    std::mt19937_64 ref = referenceEngine(2022);
    for (int i = 0; i < 200000; ++i) {
        std::uniform_real_distribution<double> dist(0.0, 1.0);
        const double expected = dist(ref);
        ASSERT_EQ(rng.uniform(), expected) << "draw " << i;
    }
}

TEST(RngExact, BoundedUniformMatchesStdUniformRealDistribution)
{
    Rng rng(7);
    std::mt19937_64 ref = referenceEngine(7);
    const double lo[] = {-3.0, 0.0, 0.8, 1e-9, -1e6};
    const double hi[] = {4.5, 1.6, 1.6, 2e-9, 1e6};
    for (int i = 0; i < 200000; ++i) {
        const int b = i % 5;
        std::uniform_real_distribution<double> dist(lo[b], hi[b]);
        const double expected = dist(ref);
        ASSERT_EQ(rng.uniform(lo[b], hi[b]), expected) << "draw " << i;
    }
}

TEST(RngExact, NormalMatchesFreshStdNormalDistribution)
{
    Rng rng(42);
    std::mt19937_64 ref = referenceEngine(42);
    for (int i = 0; i < 200000; ++i) {
        // Fresh distribution per draw: the polar method's cached second
        // deviate is discarded, exactly as Rng::normal always behaved.
        std::normal_distribution<double> dist(1.5, 0.25);
        const double expected = dist(ref);
        ASSERT_EQ(rng.normal(1.5, 0.25), expected) << "draw " << i;
    }
}

TEST(RngExact, LognormalMatchesFreshStdLognormalDistribution)
{
    Rng rng(99);
    std::mt19937_64 ref = referenceEngine(99);
    for (int i = 0; i < 200000; ++i) {
        std::lognormal_distribution<double> dist(std::log(12.0), 0.6);
        const double expected = dist(ref);
        ASSERT_EQ(rng.lognormal(12.0, 0.6), expected) << "draw " << i;
    }
}

TEST(RngExact, LogMedianLognormalMatchesFreshStdLognormalDistribution)
{
    Rng rng(1234);
    std::mt19937_64 ref = referenceEngine(1234);
    const double log_median = std::log(3500.0);
    for (int i = 0; i < 200000; ++i) {
        std::lognormal_distribution<double> dist(log_median, 1.1);
        const double expected = dist(ref);
        ASSERT_EQ(rng.lognormalFromLogMedian(log_median, 1.1), expected)
            << "draw " << i;
    }
}

TEST(RngExact, ExponentialMatchesFreshStdExponentialDistribution)
{
    Rng rng(777);
    std::mt19937_64 ref = referenceEngine(777);
    for (int i = 0; i < 200000; ++i) {
        std::exponential_distribution<double> dist(1.0 / 12000.0);
        const double expected = dist(ref);
        ASSERT_EQ(rng.exponential(12000.0), expected) << "draw " << i;
    }
}

TEST(RngExact, InterleavedKindsStayInLockstep)
{
    // Mixing draw kinds must keep both streams aligned: each helper has
    // to consume exactly as many raw engine words as its std original.
    Rng rng(31337);
    std::mt19937_64 ref = referenceEngine(31337);
    Rng chooser(1);
    for (int i = 0; i < 100000; ++i) {
        switch (chooser() % 5) {
          case 0: {
            std::uniform_real_distribution<double> d(0.0, 1.0);
            ASSERT_EQ(rng.uniform(), d(ref)) << "draw " << i;
            break;
          }
          case 1: {
            std::uniform_real_distribution<double> d(-2.0, 9.0);
            ASSERT_EQ(rng.uniform(-2.0, 9.0), d(ref)) << "draw " << i;
            break;
          }
          case 2: {
            std::normal_distribution<double> d(0.0, 2.0);
            ASSERT_EQ(rng.normal(0.0, 2.0), d(ref)) << "draw " << i;
            break;
          }
          case 3: {
            std::lognormal_distribution<double> d(std::log(5.0), 0.4);
            ASSERT_EQ(rng.lognormal(5.0, 0.4), d(ref)) << "draw " << i;
            break;
          }
          default: {
            std::exponential_distribution<double> d(1.0 / 3.0);
            ASSERT_EQ(rng.exponential(3.0), d(ref)) << "draw " << i;
            break;
          }
        }
    }
}

#endif // __GLIBCXX__

// Mt64 vs std::mt19937_64 is a portable equality: the reference here is
// the standard's normative engine definition, not a libstdc++ detail,
// so these run on any standard library. Two million draws cover several
// thousand state refills on every dispatch path the host supports.
TEST(RngExact, Mt64MatchesStdMt19937_64RawDraws)
{
    const bigfish::simd::Tag previous = bigfish::simd::active();
    const bigfish::simd::Tag tags[] = {bigfish::simd::Tag::Scalar,
                                       bigfish::simd::Tag::Avx2};
    for (const bigfish::simd::Tag want : tags) {
        const bigfish::simd::Tag got = bigfish::simd::setActive(want);
        bigfish::Mt64 engine(2022);
        std::mt19937_64 ref(2022);
        for (int i = 0; i < 2000000; ++i)
            ASSERT_EQ(engine(), ref())
                << "draw " << i << " under " << bigfish::simd::name(got);
    }
    bigfish::simd::setActive(previous);
}

TEST(RngExact, Mt64MatchesStdSeedingAndDistributionConsumption)
{
    // The seeding recurrence and min/max must match too, or std
    // distribution templates would consume the stream differently.
    static_assert(bigfish::Mt64::min() == std::mt19937_64::min());
    static_assert(bigfish::Mt64::max() == std::mt19937_64::max());
    bigfish::Mt64 engine(0); // Zero seed exercises the seeding fixup path.
    std::mt19937_64 ref(0);
    for (int i = 0; i < 5000; ++i) {
        std::uniform_int_distribution<std::int64_t> dist(-17, 4000);
        const std::int64_t expected = dist(ref);
        std::uniform_int_distribution<std::int64_t> mine(-17, 4000);
        ASSERT_EQ(mine(engine), expected) << "draw " << i;
    }
}

TEST(RngExact, UniformStaysInHalfOpenUnitInterval)
{
    Rng rng(5);
    for (int i = 0; i < 100000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
    }
}

TEST(RngExact, HelpersAreDeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i) {
        ASSERT_EQ(a.uniform(), b.uniform());
        ASSERT_EQ(a.normal(3.0, 0.5), b.normal(3.0, 0.5));
        ASSERT_EQ(a.lognormal(10.0, 0.9), b.lognormal(10.0, 0.9));
        ASSERT_EQ(a.exponential(250.0), b.exponential(250.0));
        ASSERT_EQ(a.poisson(4.2), b.poisson(4.2));
    }
}

} // namespace
