/**
 * @file
 * Unit tests for src/core: configuration plumbing, deterministic trace
 * collection, dataset assembly, and the fingerprinting pipeline.
 */

#include <gtest/gtest.h>

#include "base/rng.hh"
#include "core/artifact.hh"
#include "core/collector.hh"
#include "core/pipeline.hh"
#include "core/presets.hh"
#include "stats/descriptive.hh"

namespace bigfish::core {
namespace {

TEST(CollectionConfig, EffectiveDefaults)
{
    CollectionConfig config;
    EXPECT_EQ(config.effectivePeriod(), 5 * kMsec);
    EXPECT_EQ(config.effectiveTimer().kind, timers::TimerKind::Jittered);
}

TEST(CollectionConfig, OverridesWin)
{
    CollectionConfig config;
    config.period = 100 * kMsec;
    config.timerOverride = timers::TimerSpec::randomizedDefense();
    EXPECT_EQ(config.effectivePeriod(), 100 * kMsec);
    EXPECT_EQ(config.effectiveTimer().kind, timers::TimerKind::Randomized);
}

TEST(TraceCollector, DeterministicPerSeed)
{
    CollectionConfig config;
    config.seed = 77;
    const TraceCollector c1(config), c2(config);
    const auto site = web::amazonSignature(3);
    const auto a = c1.collectOneOrDie(site, 5);
    const auto b = c2.collectOneOrDie(site, 5);
    ASSERT_EQ(a.counts.size(), b.counts.size());
    for (std::size_t i = 0; i < a.counts.size(); ++i)
        EXPECT_DOUBLE_EQ(a.counts[i], b.counts[i]);
}

TEST(TraceCollector, RunsDiffer)
{
    CollectionConfig config;
    const TraceCollector collector(config);
    const auto site = web::amazonSignature(3);
    const auto a = collector.collectOneOrDie(site, 0);
    const auto b = collector.collectOneOrDie(site, 1);
    double diff = 0.0;
    for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i)
        diff += std::abs(a.counts[i] - b.counts[i]);
    EXPECT_GT(diff, 100.0);
}

TEST(TraceCollector, LabelsFollowSiteIds)
{
    CollectionConfig config;
    const TraceCollector collector(config);
    const web::SiteCatalog catalog(4, 7);
    const auto set = collector.collectClosedWorldOrDie(catalog, 3);
    ASSERT_EQ(set.size(), 12u);
    EXPECT_EQ(set.traces[0].label, 0);
    EXPECT_EQ(set.traces[11].label, 3);
    EXPECT_EQ(set.numClasses(), 4);
}

TEST(TraceCollector, OpenWorldLabeledAsCatchAll)
{
    CollectionConfig config;
    const TraceCollector collector(config);
    const web::SiteCatalog catalog(4, 7);
    const auto set = collector.collectOpenWorldOrDie(catalog, 5, 4);
    ASSERT_EQ(set.size(), 5u);
    for (const auto &trace : set.traces)
        EXPECT_EQ(trace.label, 4);
    // Traces come from distinct one-off sites and thus differ.
    double diff = 0.0;
    for (std::size_t i = 0;
         i < std::min(set.traces[0].size(), set.traces[1].size()); ++i)
        diff += std::abs(set.traces[0].counts[i] - set.traces[1].counts[i]);
    EXPECT_GT(diff, 100.0);
}

TEST(TraceCollector, TimelineExposedForInstrumentation)
{
    CollectionConfig config;
    const TraceCollector collector(config);
    const auto site = web::nytimesSignature(0);
    const auto timeline = collector.synthesizeTimeline(site, 0);
    EXPECT_EQ(timeline.duration, config.browser.traceDuration);
    EXPECT_FALSE(timeline.stolen.empty());
    // The exposed timeline is the one the attacker measured: a second
    // call reproduces it exactly.
    const auto again = collector.synthesizeTimeline(site, 0);
    ASSERT_EQ(timeline.stolen.size(), again.stolen.size());
    EXPECT_EQ(timeline.stolen[5].arrival, again.stolen[5].arrival);
}

TEST(TraceCollector, NoiseCountermeasureChangesTraces)
{
    CollectionConfig plain;
    CollectionConfig noisy = plain;
    noisy.spuriousInterruptNoise = true;
    const auto site = web::amazonSignature(1);
    const auto a = TraceCollector(plain).collectOneOrDie(site, 0);
    const auto b = TraceCollector(noisy).collectOneOrDie(site, 0);
    // Under injected interrupts the attacker completes fewer iterations.
    EXPECT_LT(stats::mean(b.counts), stats::mean(a.counts));
}

TEST(TraceCollector, CacheSweepSlowsOnlySweepAttacker)
{
    CollectionConfig loop_cfg;
    loop_cfg.attacker = attack::AttackerKind::LoopCounting;
    CollectionConfig loop_noise = loop_cfg;
    loop_noise.cacheSweepNoise = true;

    CollectionConfig sweep_cfg;
    sweep_cfg.attacker = attack::AttackerKind::SweepCounting;
    CollectionConfig sweep_noise = sweep_cfg;
    sweep_noise.cacheSweepNoise = true;

    const auto site = web::nytimesSignature(0);
    const double loop_drop =
        stats::mean(TraceCollector(loop_cfg).collectOneOrDie(site, 0).counts) /
        std::max(1.0, stats::mean(TraceCollector(loop_noise)
                                      .collectOneOrDie(site, 0)
                                      .counts));
    const double sweep_drop =
        stats::mean(TraceCollector(sweep_cfg).collectOneOrDie(site, 0).counts) /
        std::max(1.0, stats::mean(TraceCollector(sweep_noise)
                                      .collectOneOrDie(site, 0)
                                      .counts));
    // The sweeping attacker's iterations slow under full-LLC occupancy
    // (prefetch-amortized misses on every victim-touched line); the
    // loop attacker barely notices.
    EXPECT_GT(sweep_drop, 1.04);
    EXPECT_LT(loop_drop, 1.03);
    EXPECT_GT(sweep_drop, loop_drop);
}

TEST(ToDataset, StandardizesFeatures)
{
    attack::TraceSet set;
    attack::Trace t;
    t.label = 0;
    t.counts.assign(200, 100.0);
    t.counts[50] = 50.0;
    set.add(t);
    const auto data = toDataset(set, 100, 2);
    ASSERT_EQ(data.size(), 1u);
    EXPECT_NEAR(stats::mean(data.features[0]), 0.0, 1e-9);
}

TEST(ToDataset, EmptyTraceSetYieldsEmptyDatasetWithDeclaredClasses)
{
    const attack::TraceSet set;
    const auto data = toDataset(set, 64, 5);
    EXPECT_EQ(data.size(), 0u);
    EXPECT_TRUE(data.features.empty());
    EXPECT_TRUE(data.labels.empty());
    // The declared class count survives even with no rows, so a
    // degraded-collection check can still reason about the world size.
    EXPECT_EQ(data.numClasses, 5);
}

TEST(ToDataset, FeatureLenLongerThanShortestTraceStillFixedWidth)
{
    // Interpolating resample: a trace with fewer periods than
    // feature_len buckets must still produce exactly feature_len values
    // per channel, never a ragged row.
    attack::TraceSet set;
    attack::Trace shorty;
    shorty.label = 0;
    shorty.counts = {90.0, 100.0, 95.0, 80.0, 100.0};
    set.add(shorty);
    attack::Trace longer;
    longer.label = 1;
    longer.counts.assign(500, 100.0);
    set.add(longer);
    const std::size_t feature_len = 64;
    const auto data = toDataset(set, feature_len, 2);
    ASSERT_EQ(data.size(), 2u);
    // Two channels (bucket mean + dip depth), concatenated.
    EXPECT_EQ(data.features[0].size(), 2 * feature_len);
    EXPECT_EQ(data.features[1].size(), 2 * feature_len);
    EXPECT_EQ(data.featureLen(), 2 * feature_len);
}

TEST(ToDataset, AllDroppedSiteLeavesGapInLabelsNotInRows)
{
    // Fault-degraded collection can silently drop every trace of one
    // site; the dataset must keep the surviving rows and cover the
    // absent class via the declared class count.
    attack::TraceSet set;
    for (int label : {0, 0, 2, 2}) {
        attack::Trace t;
        t.label = label;
        t.counts.assign(64, 100.0 + label);
        t.counts[10 + label] = 40.0;
        set.add(t);
    }
    const auto data = toDataset(set, 16, 3);
    ASSERT_EQ(data.size(), 4u);
    EXPECT_EQ(data.numClasses, 3);
    EXPECT_EQ(data.labels, (std::vector<Label>{0, 0, 2, 2}));
}

TEST(ToDataset, SingleClassInputsKeepDeclaredWorldSize)
{
    attack::TraceSet set;
    for (int i = 0; i < 3; ++i) {
        attack::Trace t;
        t.label = 0;
        t.counts.assign(128, 100.0);
        t.counts[20 * (i + 1)] = 55.0;
        set.add(t);
    }
    const auto data = toDataset(set, 32, 4);
    ASSERT_EQ(data.size(), 3u);
    for (const auto &label : data.labels)
        EXPECT_EQ(label, 0);
    // num_classes is a floor, not a measurement: the single surviving
    // class does not shrink the declared world.
    EXPECT_EQ(data.numClasses, 4);
}

TEST(ToDataset, EqualsThePerTraceRowsConcatenated)
{
    // The pipeline featurizes each collection cell on its own with
    // featureRow(); toDataset() must be exactly those rows in order, for
    // traces of every shape: shorter than the feature length, shorter
    // than the dip channel's pairing threshold, odd lengths, flat ones.
    Rng rng(20221018);
    for (int round = 0; round < 20; ++round) {
        attack::TraceSet set;
        const auto traces = rng.uniformInt(1, 12);
        for (std::int64_t i = 0; i < traces; ++i) {
            attack::Trace t;
            t.label = static_cast<Label>(rng.uniformInt(0, 4));
            const auto len = rng.uniformInt(1, 900);
            const bool flat = rng.bernoulli(0.1);
            for (std::int64_t k = 0; k < len; ++k)
                t.counts.push_back(flat ? 100.0 : rng.uniform(20.0, 120.0));
            set.add(std::move(t));
        }
        const std::size_t feature_len =
            static_cast<std::size_t>(rng.uniformInt(4, 64));
        const int declared = static_cast<int>(rng.uniformInt(1, 7));
        const ml::Dataset data = toDataset(set, feature_len, declared);
        ASSERT_EQ(data.size(), set.size());
        int classes = declared;
        for (std::size_t i = 0; i < set.size(); ++i) {
            const std::vector<double> row =
                featureRow(set.traces[i], feature_len);
            ASSERT_EQ(row.size(), 2 * feature_len);
            // Equal, not merely close.
            EXPECT_EQ(data.features[i], row) << "round " << round;
            EXPECT_EQ(data.labels[i], set.traces[i].label);
            classes = std::max(classes, set.traces[i].label + 1);
        }
        EXPECT_EQ(data.numClasses, classes);
    }
}

TEST(Presets, Table1MatrixMatchesPaper)
{
    const auto rows = presets::table1Rows();
    ASSERT_EQ(rows.size(), 8u);
    EXPECT_EQ(rows[0].name, "chrome/linux");
    EXPECT_EQ(rows[7].name, "tor/linux");
    // Tor rows must carry the 100 ms quantized timer and 50 s traces.
    EXPECT_EQ(rows[7].config.browser.timer.kind,
              timers::TimerKind::Quantized);
    EXPECT_EQ(rows[7].config.browser.traceDuration, 50 * kSec);
    // Windows rows run the Xeon workstation profile.
    EXPECT_EQ(rows[1].config.machine.os.name, "windows");
}

TEST(PresetsDeath, RejectsUnevaluatedCombinations)
{
    EXPECT_EXIT(presets::table1Row("safari", "windows"),
                ::testing::ExitedWithCode(1), "Safari");
    EXPECT_EXIT(presets::table1Row("tor", "macos"),
                ::testing::ExitedWithCode(1), "Tor");
    EXPECT_EXIT(presets::table1Row("opera", "linux"),
                ::testing::ExitedWithCode(1), "unknown browser");
}

TEST(Presets, Table2ConditionsToggleDefenses)
{
    const auto none = presets::table2Condition(
        "none", attack::AttackerKind::LoopCounting);
    EXPECT_FALSE(none.spuriousInterruptNoise);
    EXPECT_FALSE(none.cacheSweepNoise);
    const auto irq = presets::table2Condition(
        "interrupt", attack::AttackerKind::SweepCounting);
    EXPECT_TRUE(irq.spuriousInterruptNoise);
    EXPECT_EQ(irq.attacker, attack::AttackerKind::SweepCounting);
    const auto cache = presets::table2Condition(
        "cache-sweep", attack::AttackerKind::LoopCounting);
    EXPECT_TRUE(cache.cacheSweepNoise);
    const auto bg = presets::table2Condition(
        "background", attack::AttackerKind::LoopCounting);
    EXPECT_TRUE(bg.backgroundApps);
}

TEST(Presets, Table3LevelsAccumulate)
{
    const auto l0 = presets::table3Isolation(0);
    EXPECT_TRUE(l0.machine.frequencyScaling);
    EXPECT_FALSE(l0.machine.pinnedCores);
    const auto l2 = presets::table3Isolation(2);
    EXPECT_FALSE(l2.machine.frequencyScaling);
    EXPECT_TRUE(l2.machine.pinnedCores);
    EXPECT_EQ(l2.machine.routing, sim::IrqRoutingPolicy::Spread);
    const auto l4 = presets::table3Isolation(4);
    EXPECT_EQ(l4.machine.routing, sim::IrqRoutingPolicy::PinnedAway);
    EXPECT_TRUE(l4.machine.vmIsolation);
    // The Python attacker with a precise clock, as in the paper.
    EXPECT_EQ(l4.browser.timer.kind, timers::TimerKind::Precise);
}

TEST(Presets, Table4TimersAndPeriods)
{
    const auto jitter = presets::table4Timer("jittered", 5);
    ASSERT_TRUE(jitter.timerOverride.has_value());
    EXPECT_EQ(jitter.timerOverride->kind, timers::TimerKind::Jittered);
    EXPECT_EQ(jitter.effectivePeriod(), 5 * kMsec);
    const auto rand500 = presets::table4Timer("randomized", 500);
    EXPECT_EQ(rand500.timerOverride->kind, timers::TimerKind::Randomized);
    EXPECT_EQ(rand500.effectivePeriod(), 500 * kMsec);
}

TEST(Pipeline, EndToEndBeatsChanceClearly)
{
    CollectionConfig config;
    config.seed = 5;
    PipelineConfig pipeline;
    pipeline.numSites = 5;
    pipeline.tracesPerSite = 8;
    pipeline.featureLen = 192;
    pipeline.eval.folds = 4;
    pipeline.factory = ml::knnFactory(3); // Fast and adequate here.
    const auto result = runFingerprintingOrDie(config, pipeline);
    EXPECT_GT(result.closedWorld.top1Mean, 0.6); // Chance is 0.2.
    EXPECT_FALSE(result.hasOpenWorld);
}

TEST(Pipeline, OpenWorldProducesMetrics)
{
    CollectionConfig config;
    config.seed = 6;
    PipelineConfig pipeline;
    pipeline.numSites = 4;
    pipeline.tracesPerSite = 8;
    pipeline.openWorldExtra = 16;
    pipeline.featureLen = 192;
    pipeline.eval.folds = 4;
    pipeline.factory = ml::knnFactory(3);
    const auto result = runFingerprintingOrDie(config, pipeline);
    ASSERT_TRUE(result.hasOpenWorld);
    EXPECT_GT(result.openWorld.openWorld.combinedAccuracy, 0.5);
    EXPECT_GT(result.openWorld.openWorld.sensitiveAccuracy, 0.0);
}

StageReport
timedStage(const char *phase, double start, double end, double cpu)
{
    StageReport report;
    report.name = phase;
    report.phase = phase;
    report.startSeconds = start;
    report.endSeconds = end;
    report.wallSeconds = end - start;
    report.cpuSeconds = cpu;
    report.worker = 1;
    return report;
}

TEST(RunArtifact, PhaseWallsAreIntervalUnionsNotSums)
{
    RunArtifact artifact("unit", spec::RunSpec{});
    FingerprintResult result;
    // Overlapping train folds [1, 3] and [2, 4], a later one [6, 7], and
    // a never-run stage: the union is 4 s, the plain sum would be 5 s.
    StageReport skipped;
    skipped.name = "skipped";
    skipped.phase = "train";
    result.stages = {timedStage("train", 1.0, 3.0, 1.5),
                     timedStage("train", 2.0, 4.0, 1.5),
                     timedStage("train", 6.0, 7.0, 1.0), skipped};
    artifact.addResult("a", result);
    EXPECT_NEAR(artifact.trainWallSeconds(), 4.0, 1e-9);
    EXPECT_NEAR(artifact.trainCpuSeconds(), 4.0, 1e-9);
    EXPECT_EQ(artifact.evalWallSeconds(), 0.0);
    // Stage offsets are rebased onto the artifact's own start; a stage
    // that never ran keeps no timeline.
    EXPECT_LE(artifact.stages()[0].startSeconds, 1.0);
    EXPECT_NEAR(artifact.stages()[1].startSeconds -
                    artifact.stages()[0].startSeconds,
                1.0, 1e-9);
    EXPECT_EQ(artifact.stages()[3].worker, -1);
    EXPECT_EQ(artifact.stages()[3].startSeconds, 0.0);
}

TEST(RunArtifact, UtilizationIsCpuOverWallTimesThreads)
{
    RunArtifact artifact("unit", spec::RunSpec{});
    EXPECT_EQ(artifact.utilization(), 0.0);
    artifact.setThreads(4);
    artifact.setWallSeconds(2.0);
    artifact.setCpuSeconds(6.0);
    EXPECT_DOUBLE_EQ(artifact.utilization(), 0.75);
    const std::string json = artifact.toJson();
    EXPECT_NE(json.find("\"wallSeconds\": 2.000, \"cpuSeconds\": 6.000, "
                        "\"utilization\": 0.750,"),
              std::string::npos);
    EXPECT_NE(artifact.explainText().find("utilization 0.750"),
              std::string::npos);
}

TEST(RunArtifact, PeakRssSharesTheTimingLine)
{
    RunArtifact artifact("unit", spec::RunSpec{});
    artifact.setPeakRssMb(412.5);
    EXPECT_EQ(artifact.peakRssMb(), 412.5);
    const std::string json = artifact.toJson();
    // Run-to-run it varies like the timings, so it must sit on the
    // wallSeconds line that Seconds-filtered artifact diffs drop.
    const std::size_t at = json.find("\"peakRssMb\": 412.5");
    ASSERT_NE(at, std::string::npos) << json;
    const std::size_t line = json.rfind('\n', at) + 1;
    EXPECT_EQ(json.compare(line, 16, "  \"wallSeconds\":"), 0) << json;
    EXPECT_NE(artifact.explainText().find("peak RSS 412.5 MB"),
              std::string::npos);
}

TEST(RunArtifact, MinorFaultsShareTheTimingLine)
{
    RunArtifact artifact("unit", spec::RunSpec{});
    artifact.setPeakRssMb(165.0);
    artifact.setMinorFaults(91234);
    EXPECT_EQ(artifact.minorFaults(), 91234);
    const std::string json = artifact.toJson();
    // Page faults vary run to run like peak RSS, so they sit on the same
    // wallSeconds line that Seconds-filtered artifact diffs drop.
    const std::size_t at = json.find("\"minorFaults\": 91234");
    ASSERT_NE(at, std::string::npos) << json;
    const std::size_t line = json.rfind('\n', at) + 1;
    EXPECT_EQ(json.compare(line, 16, "  \"wallSeconds\":"), 0) << json;
    EXPECT_NE(artifact.explainText().find(
                  "peak RSS 165.0 MB, minor faults 91234"),
              std::string::npos);
}

} // namespace
} // namespace bigfish::core
