/**
 * @file
 * Unit tests for src/attack: trace containers, feature extraction, and
 * the loop-counting / sweep-counting attackers (Figure 2 semantics).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "attack/attacker.hh"
#include "attack/segmentation.hh"
#include "attack/trace.hh"
#include "attack/trace_io.hh"
#include "sim/synthesizer.hh"
#include "stats/descriptive.hh"
#include "timers/timer.hh"
#include "web/catalog.hh"
#include "web/session.hh"
#include "web/site.hh"

namespace bigfish::attack {
namespace {

TEST(Trace, MaxAndNormalization)
{
    Trace trace;
    trace.counts = {10, 20, 5};
    EXPECT_DOUBLE_EQ(trace.maxCount(), 20.0);
    const auto norm = trace.normalized();
    EXPECT_DOUBLE_EQ(norm[0], 0.5);
    EXPECT_DOUBLE_EQ(norm[1], 1.0);
    EXPECT_DOUBLE_EQ(norm[2], 0.25);
}

TEST(TraceSet, LabelsAndClasses)
{
    TraceSet set;
    Trace a, b;
    a.label = 0;
    b.label = 4;
    set.add(a);
    set.add(b);
    EXPECT_EQ(set.numClasses(), 5);
    EXPECT_EQ(set.labels(), (std::vector<Label>{0, 4}));
}

TEST(TraceSet, ToFeaturesFixedLength)
{
    TraceSet set;
    Trace a;
    a.counts.assign(1000, 5.0);
    a.counts[500] = 10.0;
    set.add(a);
    EXPECT_EQ(set.traces[0].meanFeatures(100).size(), 100u);
    EXPECT_EQ(set.traces[0].dipFeatures(100).size(), 100u);
}

/** Synthesizes a timeline for one example site. */
sim::RunTimeline
exampleTimeline(std::uint64_t seed, TimeNs duration = 5 * kSec)
{
    Rng rng(seed);
    const auto site = web::amazonSignature(0);
    const auto activity = web::realizeWorkload(
        site, duration, 1.0, web::RealizationNoise{}, rng);
    sim::InterruptSynthesizer synth(sim::MachineConfig::linuxDesktop());
    Rng synth_rng(seed + 1);
    return synth.synthesize(activity, synth_rng);
}

TEST(IterationCosts, LoopIsConstantUpToMachineFactor)
{
    const auto timeline = exampleTimeline(1);
    const auto machine = sim::MachineConfig::linuxDesktop();
    AttackerParams params;
    const auto costs = iterationCosts(AttackerKind::LoopCounting, params,
                                      machine, timeline);
    ASSERT_EQ(costs.size(), timeline.iterCostFactor.size());
    for (std::size_t i = 0; i < costs.size(); ++i)
        EXPECT_NEAR(costs[i],
                    params.loopIterNs * timeline.iterCostFactor[i], 1e-9);
}

TEST(IterationCosts, SweepTracksOccupancy)
{
    // Hand-built timeline: occupancy 0 in the first step, 1 in the
    // second, no machine factor noise — the sweep cost difference must
    // be exactly the observed-occupancy miss term.
    sim::RunTimeline timeline;
    timeline.duration = 20 * kMsec;
    timeline.activityInterval = 10 * kMsec;
    timeline.iterCostFactor = {1.0, 1.0};
    timeline.occupancy = {0.0, 1.0};
    const auto machine = sim::MachineConfig::linuxDesktop();
    AttackerParams params;
    const auto costs = iterationCosts(AttackerKind::SweepCounting, params,
                                      machine, timeline);
    ASSERT_EQ(costs.size(), 2u);
    const double lines = static_cast<double>(machine.llcLines());
    EXPECT_NEAR(costs[0],
                lines * machine.sweepHitNsPerLine + params.sweepOverheadNs,
                1e-6);
    EXPECT_NEAR(costs[1] - costs[0],
                params.sweepObservedOccupancy * lines *
                    machine.sweepMissExtraNsPerLine,
                1e-6);
}

TEST(Attackers, LoopCountsAreOrdersOfMagnitudeLarger)
{
    // Paper Section 3.3: ~27,000 loop iterations vs ~32 sweeps per 5 ms.
    const auto machine = sim::MachineConfig::linuxDesktop();
    const auto timeline = exampleTimeline(3);
    AttackerParams params;
    timers::PreciseTimer t1, t2;
    const Trace loop = collectTraceOrDie(AttackerKind::LoopCounting, params,
                                    machine, timeline, t1, 5 * kMsec);
    const Trace sweep = collectTraceOrDie(AttackerKind::SweepCounting, params,
                                     machine, timeline, t2, 5 * kMsec);
    EXPECT_NEAR(loop.maxCount(), 27000.0, 3000.0);
    // ~32 sweeps per idle period; the max over a trace rides the
    // memory-noise tail, so allow a wider band than for the loop.
    EXPECT_NEAR(sweep.maxCount(), 32.0, 10.0);
    EXPECT_NEAR(stats::quantile(sweep.counts, 0.9), 31.0, 6.0);
}

TEST(Attackers, TraceLengthMatchesDurationOverPeriod)
{
    const auto machine = sim::MachineConfig::linuxDesktop();
    const auto timeline = exampleTimeline(4, 10 * kSec);
    AttackerParams params;
    timers::PreciseTimer timer;
    const Trace trace = collectTraceOrDie(AttackerKind::LoopCounting, params,
                                     machine, timeline, timer, 5 * kMsec);
    EXPECT_NEAR(static_cast<double>(trace.size()), 2000.0, 20.0);
    EXPECT_EQ(trace.counts.size(), trace.wallTimes.size());
    EXPECT_EQ(trace.attacker, "loop-counting");
}

TEST(Attackers, BusyPhasesDepressCounts)
{
    // The amazon workload is busy in the first 2 s: counts there must be
    // lower than in the 7-8 s lull.
    const auto machine = sim::MachineConfig::linuxDesktop();
    const auto timeline = exampleTimeline(5, 10 * kSec);
    AttackerParams params;
    timers::PreciseTimer timer;
    const Trace trace = collectTraceOrDie(AttackerKind::LoopCounting, params,
                                     machine, timeline, timer, 5 * kMsec);
    ASSERT_GT(trace.size(), 1800u);
    double busy = 0.0, quiet = 0.0;
    int busy_n = 0, quiet_n = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const double t_ms = static_cast<double>(i) * 5.0;
        if (t_ms > 200 && t_ms < 1500) {
            busy += trace.counts[i];
            ++busy_n;
        } else if (t_ms > 7000 && t_ms < 8000) {
            quiet += trace.counts[i];
            ++quiet_n;
        }
    }
    EXPECT_GT(quiet / quiet_n, busy / busy_n);
}

TEST(Attackers, LoopAndSweepTracesCorrelate)
{
    // Figure 4: both attackers observe the same system events, so their
    // averaged normalized traces are strongly correlated.
    const auto machine = sim::MachineConfig::linuxDesktop();
    AttackerParams params;
    std::vector<std::vector<double>> loop_runs, sweep_runs;
    for (int run = 0; run < 10; ++run) {
        const auto timeline = exampleTimeline(100 + run, 10 * kSec);
        timers::PreciseTimer t1, t2;
        const Trace loop =
            collectTraceOrDie(AttackerKind::LoopCounting, params, machine,
                         timeline, t1, 5 * kMsec);
        const Trace sweep =
            collectTraceOrDie(AttackerKind::SweepCounting, params, machine,
                         timeline, t2, 5 * kMsec);
        loop_runs.push_back(
            stats::downsample(loop.normalized(), 100));
        sweep_runs.push_back(
            stats::downsample(sweep.normalized(), 100));
    }
    const auto loop_avg = stats::elementwiseMean(loop_runs);
    const auto sweep_avg = stats::elementwiseMean(sweep_runs);
    EXPECT_GT(stats::pearson(loop_avg, sweep_avg), 0.6);
}

TEST(Attackers, WallTimesMatchPeriodUnderPreciseTimer)
{
    const auto machine = sim::MachineConfig::linuxDesktop();
    const auto timeline = exampleTimeline(6);
    AttackerParams params;
    timers::PreciseTimer timer;
    const Trace trace = collectTraceOrDie(AttackerKind::LoopCounting, params,
                                     machine, timeline, timer, 5 * kMsec);
    for (std::size_t i = 0; i + 1 < trace.wallTimes.size(); ++i) {
        EXPECT_GE(trace.wallTimes[i], 5 * kMsec);
        // A handler can overshoot the period end by at most one handler
        // duration plus one iteration.
        EXPECT_LE(trace.wallTimes[i], 5 * kMsec + 10 * kMsec);
    }
}

TEST(Segmentation, FindsSyntheticOnsets)
{
    // Synthetic long trace: calm at 27000 counts with two loading
    // regions (depressed counts) starting at bins 400 and 1400.
    Trace trace;
    trace.period = 5 * kMsec;
    trace.counts.assign(2400, 27000.0);
    Rng rng(9);
    for (auto &c : trace.counts)
        c += rng.normal(0.0, 60.0);
    for (std::size_t i = 400; i < 700; ++i)
        trace.counts[i] -= 3000.0;
    for (std::size_t i = 1400; i < 1750; ++i)
        trace.counts[i] -= 3000.0;

    const auto onsets = detectNavigations(trace);
    ASSERT_EQ(onsets.size(), 2u);
    EXPECT_NEAR(static_cast<double>(onsets[0]), 400.0, 50.0);
    EXPECT_NEAR(static_cast<double>(onsets[1]), 1400.0, 50.0);
}

TEST(Segmentation, MinSpacingSuppressesDoubleFires)
{
    Trace trace;
    trace.period = 5 * kMsec;
    trace.counts.assign(1200, 27000.0);
    // Two bursts only 1 s apart: must merge into one navigation.
    for (std::size_t i = 300; i < 350; ++i)
        trace.counts[i] -= 4000.0;
    for (std::size_t i = 500; i < 560; ++i)
        trace.counts[i] -= 4000.0;
    const auto onsets = detectNavigations(trace);
    EXPECT_EQ(onsets.size(), 1u);
}

TEST(Segmentation, QuietTraceHasNoOnsets)
{
    Trace trace;
    trace.period = 5 * kMsec;
    trace.counts.assign(1000, 27000.0);
    Rng rng(10);
    for (auto &c : trace.counts)
        c += rng.normal(0.0, 30.0);
    // With no sustained dip region the detector should fire rarely.
    const auto onsets = detectNavigations(trace);
    EXPECT_LE(onsets.size(), 2u);
}

TEST(Segmentation, SliceCoversTraceWithoutOverlap)
{
    Trace trace;
    trace.period = 5 * kMsec;
    for (int i = 0; i < 900; ++i)
        trace.counts.push_back(i);
    trace.wallTimes.assign(900, 5 * kMsec);
    const auto slices = sliceTrace(trace, {100, 400, 700});
    ASSERT_EQ(slices.size(), 3u);
    EXPECT_EQ(slices[0].counts.size(), 300u);
    EXPECT_EQ(slices[1].counts.size(), 300u);
    EXPECT_EQ(slices[2].counts.size(), 200u);
    EXPECT_DOUBLE_EQ(slices[0].counts.front(), 100.0);
    EXPECT_DOUBLE_EQ(slices[2].counts.back(), 899.0);
    EXPECT_EQ(slices[1].wallTimes.size(), 300u);
}

TEST(Segmentation, EndToEndOnRealSessionTrace)
{
    // Build a 3-visit session, collect the long trace, and require the
    // detector to land within 3 s of every true navigation.
    const web::SiteCatalog catalog(6, 7);
    web::BrowsingSession session;
    session.steps = {{0, 18 * kSec}, {3, 18 * kSec}, {5, 18 * kSec}};
    Rng rng(11);
    const auto activity = web::realizeSession(
        session, catalog, 1.0, web::RealizationNoise{}, rng);
    sim::InterruptSynthesizer synth(sim::MachineConfig::linuxDesktop());
    Rng synth_rng(12);
    const auto timeline = synth.synthesize(activity, synth_rng);
    timers::PreciseTimer timer;
    AttackerParams params;
    const auto trace = collectTraceOrDie(
        AttackerKind::LoopCounting, params,
        sim::MachineConfig::linuxDesktop(), timeline, timer, 5 * kMsec);

    const auto onsets = detectNavigations(trace);
    const auto truths = session.navigationTimes();
    for (TimeNs truth : truths) {
        bool found = false;
        for (std::size_t onset : onsets) {
            const TimeNs at =
                static_cast<TimeNs>(onset) * trace.period;
            if (std::abs(at - truth) < 3 * kSec)
                found = true;
        }
        EXPECT_TRUE(found) << "missed navigation at " << truth;
    }
}

TEST(GapTrace, ChargesStolenTimePerPeriod)
{
    sim::RunTimeline timeline;
    timeline.duration = 20 * kMsec;
    timeline.activityInterval = 10 * kMsec;
    timeline.iterCostFactor = {1.0, 1.0};
    timeline.occupancy = {0.0, 0.0};
    timeline.stolen = {
        {kMsec, 100 * kUsec, sim::InterruptKind::TimerTick},
        {2 * kMsec, 50 * kUsec, sim::InterruptKind::ReschedIpi},
        // In the second 5 ms period:
        {6 * kMsec, 200 * kUsec, sim::InterruptKind::SoftirqNetRx},
    };
    const Trace trace = collectGapTraceOrDie(timeline, 5 * kMsec);
    ASSERT_EQ(trace.size(), 4u);
    EXPECT_DOUBLE_EQ(trace.counts[0], 150.0 * kUsec);
    EXPECT_DOUBLE_EQ(trace.counts[1], 200.0 * kUsec);
    EXPECT_DOUBLE_EQ(trace.counts[2], 0.0);
    EXPECT_EQ(trace.attacker, "gap-trace");
}

TEST(GapTrace, SplitsSpanAcrossPeriodBoundary)
{
    sim::RunTimeline timeline;
    timeline.duration = 10 * kMsec;
    timeline.activityInterval = 10 * kMsec;
    timeline.iterCostFactor = {1.0};
    timeline.occupancy = {0.0};
    // 2 ms handler straddling the 5 ms boundary: 1 ms in each period.
    timeline.stolen = {
        {4 * kMsec, 2 * kMsec, sim::InterruptKind::Preemption}};
    const Trace trace = collectGapTraceOrDie(timeline, 5 * kMsec);
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_DOUBLE_EQ(trace.counts[0], 1.0 * kMsec);
    EXPECT_DOUBLE_EQ(trace.counts[1], 1.0 * kMsec);
}

TEST(GapTrace, ThresholdFiltersTinyGaps)
{
    sim::RunTimeline timeline;
    timeline.duration = 10 * kMsec;
    timeline.activityInterval = 10 * kMsec;
    timeline.iterCostFactor = {1.0};
    timeline.occupancy = {0.0};
    timeline.stolen = {{kMsec, 40, sim::InterruptKind::TimerTick}};
    // 40 ns + 30 ns poll = 70 ns < 100 ns threshold: invisible.
    const Trace trace = collectGapTraceOrDie(timeline, 5 * kMsec, 30, 100);
    EXPECT_DOUBLE_EQ(trace.counts[0], 0.0);
}

TEST(GapTrace, CorrelatesWithLoopTrace)
{
    // Section 5.2: different attack code, same channel — the stolen-time
    // trace must anti-correlate with the loop counter trace.
    const auto machine = sim::MachineConfig::linuxDesktop();
    const auto timeline = exampleTimeline(77, 10 * kSec);
    AttackerParams params;
    timers::PreciseTimer timer;
    const Trace loop = collectTraceOrDie(AttackerKind::LoopCounting, params,
                                    machine, timeline, timer, 5 * kMsec);
    const Trace gaps = collectGapTraceOrDie(timeline, 5 * kMsec);
    const auto loop_ds = stats::downsample(loop.normalized(), 200);
    const auto gap_ds = stats::downsample(gaps.counts, 200);
    EXPECT_LT(stats::pearson(loop_ds, gap_ds), -0.5);
}

TEST(TraceIo, RoundTripsExactly)
{
    TraceSet set;
    Trace a;
    a.siteId = 3;
    a.label = 3;
    a.period = 5 * kMsec;
    a.attacker = "loop-counting";
    a.counts = {27013, 26500.5, 21000};
    set.add(a);
    Trace b;
    b.siteId = 7;
    b.label = 99;
    b.period = 100 * kMsec;
    b.attacker = "sweep-counting";
    b.counts = {31, 28, 12, 30};
    set.add(b);

    std::stringstream stream;
    ASSERT_TRUE(writeTraces(stream, set).isOk());
    const TraceSet loaded = readTracesOrDie(stream);
    ASSERT_EQ(loaded.size(), 2u);
    EXPECT_EQ(loaded.traces[0].siteId, 3);
    EXPECT_EQ(loaded.traces[0].label, 3);
    EXPECT_EQ(loaded.traces[0].period, 5 * kMsec);
    EXPECT_EQ(loaded.traces[0].attacker, "loop-counting");
    EXPECT_EQ(loaded.traces[0].counts, a.counts);
    EXPECT_EQ(loaded.traces[1].counts, b.counts);
    EXPECT_EQ(loaded.traces[1].label, 99);
}

TEST(TraceIo, RoundTripsRealCollectedTraces)
{
    const auto machine = sim::MachineConfig::linuxDesktop();
    const auto timeline = exampleTimeline(42, 3 * kSec);
    AttackerParams params;
    timers::PreciseTimer timer;
    TraceSet set;
    set.add(collectTraceOrDie(AttackerKind::LoopCounting, params, machine,
                         timeline, timer, 5 * kMsec));
    std::stringstream stream;
    ASSERT_TRUE(writeTraces(stream, set).isOk());
    const TraceSet loaded = readTracesOrDie(stream);
    ASSERT_EQ(loaded.traces[0].counts.size(), set.traces[0].counts.size());
    for (std::size_t i = 0; i < set.traces[0].counts.size(); ++i)
        EXPECT_DOUBLE_EQ(loaded.traces[0].counts[i],
                         set.traces[0].counts[i]);
}

TEST(TraceIo, SkipsCommentsAndBlankLines)
{
    std::stringstream stream;
    stream << "# bigfish-traces v1\n"
           << "# a comment\n"
           << "\n"
           << "1,1,5000000,loop-counting,10,20,30\n";
    const TraceSet loaded = readTracesOrDie(stream);
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_EQ(loaded.traces[0].counts.size(), 3u);
}

TEST(TraceIoErrors, RejectsWrongHeaderNamingWhatWasFound)
{
    std::stringstream stream;
    stream << "not a trace file\n";
    const auto result = readTraces(stream);
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), ErrorCode::ParseError);
    EXPECT_NE(result.status().message().find("bigfish-traces"),
              std::string::npos);
    EXPECT_NE(result.status().message().find("not a trace file"),
              std::string::npos);
}

TEST(TraceIoErrors, RejectsRowWithoutCounts)
{
    std::stringstream stream;
    stream << "# bigfish-traces v1\n"
           << "1,1,5000000,loop-counting\n";
    const auto result = readTraces(stream);
    ASSERT_FALSE(result.isOk());
    EXPECT_NE(result.status().message().find("line 2"), std::string::npos);
}

TEST(TraceIoErrors, RejectsGarbageNumbers)
{
    std::stringstream stream;
    stream << "# bigfish-traces v1\n"
           << "x,1,5000000,loop-counting,10\n";
    const auto result = readTraces(stream);
    ASSERT_FALSE(result.isOk());
    EXPECT_NE(result.status().message().find("malformed"),
              std::string::npos);
}

TEST(TraceIoErrors, ReadTracesOrDieStillAbortsOnBadInput)
{
    std::stringstream stream;
    stream << "not a trace file\n";
    EXPECT_EXIT(readTracesOrDie(stream), ::testing::ExitedWithCode(1),
                "bigfish-traces");
}

TEST(Attackers, KindNames)
{
    EXPECT_EQ(attackerKindName(AttackerKind::LoopCounting),
              "loop-counting");
    EXPECT_EQ(attackerKindName(AttackerKind::SweepCounting),
              "sweep-counting");
}

} // namespace
} // namespace bigfish::attack
