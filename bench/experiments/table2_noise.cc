/**
 * @file
 * Table 2: controlled comparison on one machine (Chrome on Linux): the
 * loop-counting and sweep-counting attackers under (a) no noise,
 * (b) the cache-sweep countermeasure of Shusterman et al., and (c) the
 * spurious-interrupt countermeasure introduced by the paper.
 *
 * Expected shape (paper): loop 95.7 / 92.6 / 62.0; sweep 78.4 / 76.2 /
 * 55.3 — interrupt noise devastates both attacks while cache noise
 * barely registers, and the loop attacker dominates throughout.
 *
 * The old table2_noise binary also ran the Section 4.2 background-noise
 * and Section 6.2 overhead experiments; those are now their own
 * registrations (background_noise, defense_overhead).
 */

#include <cstdio>

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
    base.machine = sim::MachineConfig::linuxDesktop();
    base.browser = web::BrowserProfile::chrome();

    const char *attackers[] = {"loop-counting", "sweep-counting"};
    const attack::AttackerKind kinds[] = {
        attack::AttackerKind::LoopCounting,
        attack::AttackerKind::SweepCounting};

    core::CollectionConfig cache_noise = base;
    cache_noise.cacheSweepNoise = true;
    core::CollectionConfig irq_noise = base;
    irq_noise.spuriousInterruptNoise = true;
    const struct
    {
        const char *name;
        const char *slug;
        const core::CollectionConfig &config;
    } variants[] = {
        {"no noise", "none", base},
        {"cache-sweep noise", "cache_noise", cache_noise},
        {"interrupt noise", "irq_noise", irq_noise},
    };

    // Loop- and sweep-counting attack the same victim under each noise
    // condition: shared-timeline collection runs the expensive synthesis
    // once per condition instead of once per (attacker, condition). The
    // three conditions run as one batch on the shared executor.
    std::vector<core::FingerprintJob> jobs;
    for (const auto &variant : variants)
        jobs.push_back({variant.config, {kinds[0], kinds[1]}, pipeline});
    auto batch = core::runFingerprintingBatch(jobs);
    if (!batch.isOk())
        return batch.status();
    double acc[2][3];
    for (std::size_t v = 0; v < 3; ++v) {
        for (std::size_t a = 0; a < 2; ++a) {
            const core::FingerprintResult &result = batch.value()[v][a];
            artifact.addResult(std::string(attackers[a]) + "_" +
                                   variants[v].slug,
                               result);
            acc[a][v] = result.closedWorld.top1Mean;
        }
    }

    const auto expected = [&ctx](const std::string &metric) {
        return formatPercent(
            ctx.descriptor->expectedValue(metric).value_or(0.0));
    };
    Table table({"attack", "no noise (paper/meas)",
                 "cache-sweep noise (paper/meas)",
                 "interrupt noise (paper/meas)"});
    for (std::size_t a = 0; a < 2; ++a) {
        const std::string name = attackers[a];
        table.addRow({name,
                      expected(name + "_none_top1") + " / " +
                          formatPercent(acc[a][0]),
                      expected(name + "_cache_noise_top1") + " / " +
                          formatPercent(acc[a][1]),
                      expected(name + "_irq_noise_top1") + " / " +
                          formatPercent(acc[a][2])});
    }
    std::printf("\n%s", table.render().c_str());
    std::printf("\nexpected shape: interrupt noise >> cache noise for "
                "both attacks;\nloop-counting > sweep-counting in every "
                "column.\n");
    return artifact;
}

} // namespace

void
registerTable2Noise(core::ExperimentRegistry &registry)
{
    core::ExperimentDescriptor d;
    d.name = "table2_noise";
    d.title = "attacks under noise-injection countermeasures";
    d.paperReference = "Table 2 (Chrome on Linux, closed world)";
    d.schema = core::commonScaleSchema();
    d.expected = {
        {"loop-counting_none_top1", 0.957},
        {"loop-counting_cache_noise_top1", 0.926},
        {"loop-counting_irq_noise_top1", 0.620},
        {"sweep-counting_none_top1", 0.784},
        {"sweep-counting_cache_noise_top1", 0.762},
        {"sweep-counting_irq_noise_top1", 0.553},
    };
    d.run = run;
    registry.add(std::move(d));
}

} // namespace bigfish::bench
