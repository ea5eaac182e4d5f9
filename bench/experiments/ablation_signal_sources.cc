/**
 * @file
 * Ablation: which simulated leakage channels carry the attack?
 *
 * DESIGN.md calls out the interrupt-stream decomposition as the central
 * modelling decision; this experiment deletes one channel at a time from
 * the machine model and re-measures closed-world accuracy, quantifying
 * each channel's contribution. It also ablates the classifier (CNN-LSTM
 * vs softmax regression vs kNN) and the feature length.
 *
 * Expected shape: non-movable channels (softirqs + resched/TLB IPIs)
 * carry the majority of the signal, mirroring the paper's Section 5;
 * DVFS and contention are minor; the attack survives any single
 * deletion (defense-in-depth failure).
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
    const auto pipeline = core::pipelineForScale(scale);

    core::CollectionConfig base = core::collectionForScale(scale);
    base.browser = web::BrowserProfile::nativePython();
    base.machine.pinnedCores = true; // Isolate the interrupt channels.

    struct Step
    {
        const char *name;
        void (*apply)(core::CollectionConfig &);
    };
    const Step steps[] = {
        {"full model", [](core::CollectionConfig &) {}},
        {"- movable device IRQs",
         [](core::CollectionConfig &c) {
             c.machine.routing = sim::IrqRoutingPolicy::PinnedAway;
         }},
        {"- softirq dispatch to attacker core",
         [](core::CollectionConfig &c) {
             c.machine.os.softirqShare = 0.0;
         }},
        {"- victim resched/TLB IPIs",
         [](core::CollectionConfig &c) {
             // Zeroing the victim's IPI activity is not possible from
             // config, so approximate by muting the IPI handlers.
             c.machine.handlerCosts.setParams(
                 sim::InterruptKind::ReschedIpi, {1, 0.01});
             c.machine.handlerCosts.setParams(
                 sim::InterruptKind::TlbShootdown, {1, 0.01});
             c.machine.handlerCosts.contextSwitchNs = 1500;
         }},
        {"- DVFS signal",
         [](core::CollectionConfig &c) {
             c.machine.frequencyScaling = false;
         }},
        {"- tick work modulation",
         [](core::CollectionConfig &c) {
             c.machine.handlerCosts.setParams(
                 sim::InterruptKind::SoftirqTimer, {1, 0.01});
             c.machine.handlerCosts.setParams(
                 sim::InterruptKind::IrqWork, {1, 0.01});
         }},
    };

    struct ClfRow
    {
        const char *name;
        ml::ClassifierFactory factory;
    };
    const ClfRow classifiers[] = {
        {"cnn-lstm (paper architecture)",
         core::classifierForScale(scale)},
        {"softmax regression", ml::softmaxRegressionFactory()},
        {"kNN (k=5)", ml::knnFactory(5)},
    };
    const std::size_t feature_lens[] = {64, 128, 256, 512};

    // Every channel deletion, classifier and feature length is one job
    // of a single batch; results come back in declaration order.
    std::vector<core::FingerprintJob> jobs;
    core::CollectionConfig config = base;
    for (const auto &step : steps) {
        step.apply(config);
        jobs.push_back({config, {config.attacker}, pipeline});
    }
    // The classifier and feature-length ablations run the unmodified
    // attack.
    for (const auto &row : classifiers) {
        jobs.push_back({base, {base.attacker}, pipeline});
        jobs.back().pipeline.factory = row.factory;
    }
    for (const std::size_t len : feature_lens) {
        jobs.push_back({base, {base.attacker}, pipeline});
        jobs.back().pipeline.featureLen = len;
    }
    auto batch = core::runFingerprintingBatch(jobs);
    if (!batch.isOk())
        return batch.status();
    std::size_t next = 0;
    const auto accuracy = [&](const std::string &label) {
        const core::FingerprintResult &result = batch.value()[next++][0];
        artifact.addResult(label, result);
        return result.closedWorld.top1Mean;
    };

    Table table({"model (cumulative deletions)", "top-1", "delta"});
    double prev = -1.0;
    for (std::size_t i = 0; i < std::size(steps); ++i) {
        const double acc = accuracy("channel_step" + std::to_string(i));
        table.addRow({steps[i].name, formatPercent(acc),
                      prev < 0 ? std::string("-")
                               : formatDouble((acc - prev) * 100.0, 1)});
        prev = acc;
    }
    std::printf("\nLEAKAGE-CHANNEL ABLATION (chance = %.1f%%)\n%s",
                100.0 / scale.sites, table.render().c_str());

    Table clf({"classifier", "top-1"});
    for (std::size_t i = 0; i < std::size(classifiers); ++i)
        clf.addRow({classifiers[i].name,
                    formatPercent(
                        accuracy("classifier" + std::to_string(i)))});
    std::printf("\nCLASSIFIER ABLATION\n%s", clf.render().c_str());

    Table feat({"feature length", "top-1"});
    for (const std::size_t len : feature_lens)
        feat.addRow({std::to_string(len),
                     formatPercent(
                         accuracy("features" + std::to_string(len)))});
    std::printf("\nFEATURE-LENGTH ABLATION\n%s", feat.render().c_str());
    return artifact;
}

} // namespace

void
registerAblationSignalSources(core::ExperimentRegistry &registry)
{
    core::ExperimentDescriptor d;
    d.name = "ablation_signal_sources";
    d.title = "per-channel leakage contributions";
    d.paperReference = "DESIGN.md ablations (not a paper table)";
    d.schema = core::commonScaleSchema();
    d.run = run;
    registry.add(std::move(d));
}

} // namespace bigfish::bench
