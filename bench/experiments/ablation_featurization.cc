/**
 * @file
 * Ablation of the classifier featurization (DESIGN.md decision #6) and
 * of the attacker's measurement primitive.
 *
 * Featurization: the pipeline feeds the CNN-LSTM two channels per time
 * bucket — bucket mean (coarse profile) and sub-bucket dip depth (fine
 * interrupt texture). This experiment measures each channel alone, the
 * combination, and the effect of dropping winsorization.
 *
 * Primitive: compares the loop-counting trace against the gap-trace
 * attacker (per-period stolen time from CLOCK_MONOTONIC polling), the
 * paper's Section 5.2 observation that different attack code sees the
 * same channel.
 *
 * Every variant and the primitive pair are jobs of one batch on the
 * stage graph, so they share the executor and the stage cache.
 */

#include <cstdio>
#include <iterator>

#include "base/table.hh"
#include "experiments.hh"

namespace bigfish::bench {

namespace {

Result<core::RunArtifact>
run(const core::RunContext &ctx)
{
    const auto scale = core::scaleFromSpec(ctx.spec);
    auto artifact = core::makeArtifact(ctx);

    core::CollectionConfig collection = core::collectionForScale(scale);
    collection.browser = web::BrowserProfile::chrome();

    struct Variant
    {
        const char *name;
        core::Featurization featurization;
        std::size_t channels;
    };
    const Variant variants[] = {
        {"mean + dip (default)", core::Featurization::MeanDip, 2},
        {"mean only", core::Featurization::MeanOnly, 1},
        {"dip only", core::Featurization::DipOnly, 1},
        {"mean + dip, no winsorize",
         core::Featurization::MeanDipUnwinsorized, 2},
    };

    // The variants train the bench-scale CNN-LSTM whatever the scale's
    // model, sized to the variant's channels; the primitive pair runs
    // the scale's own classifier over both attackers' traces of one
    // shared-timeline collection.
    std::vector<core::FingerprintJob> jobs;
    for (const Variant &v : variants) {
        core::FingerprintJob job{collection,
                                 {attack::AttackerKind::LoopCounting},
                                 core::pipelineForScale(scale)};
        auto params = ml::CnnLstmParams::traceDefaults();
        params.inputChannels = v.channels;
        job.pipeline.factory = ml::cnnLstmFactory(params);
        job.pipeline.featurization = v.featurization;
        jobs.push_back(std::move(job));
    }
    jobs.push_back({collection,
                    {attack::AttackerKind::LoopCounting,
                     attack::AttackerKind::GapTrace},
                    core::pipelineForScale(scale)});
    auto batch = core::runFingerprintingBatch(jobs);
    if (!batch.isOk())
        return batch.status();

    Table table({"featurization", "top-1", "top-k"});
    for (std::size_t i = 0; i < std::size(variants); ++i) {
        const ml::EvalResult &result = batch.value()[i][0].closedWorld;
        artifact.addResult("variant" + std::to_string(i),
                           batch.value()[i][0]);
        table.addRow({variants[i].name,
                      formatPercentPm(result.top1Mean, result.top1Std),
                      formatPercent(result.topKMean)});
    }
    std::printf("\nFEATURIZATION ABLATION (chance = %.1f%%)\n%s",
                100.0 / scale.sites, table.render().c_str());

    // Measurement-primitive comparison: loop counter vs gap trace.
    const auto &primitives = batch.value().back();
    artifact.addResult("loop_primitive", primitives[0]);
    artifact.addResult("gap_primitive", primitives[1]);
    const ml::EvalResult &loop_result = primitives[0].closedWorld;
    const ml::EvalResult &gap_result = primitives[1].closedWorld;
    Table prim({"measurement primitive", "top-1", "top-k"});
    prim.addRow({"loop counter (throughput)",
                 formatPercentPm(loop_result.top1Mean,
                                 loop_result.top1Std),
                 formatPercent(loop_result.topKMean)});
    prim.addRow({"monotonic-clock gaps (stolen time)",
                 formatPercentPm(gap_result.top1Mean, gap_result.top1Std),
                 formatPercent(gap_result.topKMean)});
    std::printf("\nMEASUREMENT-PRIMITIVE COMPARISON\n%s",
                prim.render().c_str());
    std::printf("\nexpected: both primitives fingerprint websites — the "
                "channel is the interrupt\nactivity itself, not any one "
                "way of observing it (Section 5.2).\n");
    return artifact;
}

} // namespace

void
registerAblationFeaturization(core::ExperimentRegistry &registry)
{
    core::ExperimentDescriptor d;
    d.name = "ablation_featurization";
    d.title = "classifier input channels & measurement primitives";
    d.paperReference = "DESIGN.md decision #6 (not a paper table)";
    d.schema = core::commonScaleSchema();
    d.run = run;
    registry.add(std::move(d));
}

} // namespace bigfish::bench
