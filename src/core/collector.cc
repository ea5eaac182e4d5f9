#include "core/collector.hh"

#include <cmath>

#include "base/logging.hh"
#include "base/thread_pool.hh"
#include "core/checkpoint.hh"

namespace bigfish::core {

TraceCollector::TraceCollector(CollectionConfig config)
    : config_(std::move(config)), synthesizer_(config_.machine)
{
}

Rng
TraceCollector::traceRng(SiteId site_id, int run_index) const
{
    return Rng(mix64(config_.seed) ^
               mix64(static_cast<std::uint64_t>(site_id) * 1000003ULL +
                     static_cast<std::uint64_t>(run_index) + 17ULL));
}

std::uint64_t
TraceCollector::faultSalt(SiteId site_id, int run_index) const
{
    return mix64(static_cast<std::uint64_t>(site_id) * 2654435761ULL +
                 static_cast<std::uint64_t>(run_index) + 101ULL);
}

sim::RunTimeline
TraceCollector::synthesizeTimeline(const web::SiteSignature &site,
                                   int run_index,
                                   sim::PerfCounters *perf) const
{
    Rng rng = traceRng(site.id, run_index);
    Rng workload_rng = rng.fork(1);
    Rng synth_rng = rng.fork(2);
    Rng browser_rng = rng.fork(3);
    Rng defense_rng = rng.fork(4);

    // The browser's connection path scales how repeatable loads are
    // (Tor circuits make the same page load very differently each time).
    web::RealizationNoise noise = config_.realization;
    noise.phaseStartJitterMs *= config_.browser.loadVariability;
    noise.phaseDurationSigma *= config_.browser.loadVariability;
    noise.rateSigma *= config_.browser.loadVariability;
    noise.runLoadSigma *= config_.browser.loadVariability;

    sim::ActivityTimeline activity = web::realizeWorkload(
        site, config_.browser.traceDuration, config_.browser.loadTimeScale,
        noise, workload_rng);

    if (config_.spuriousInterruptNoise) {
        activity.superimpose(defense::spuriousInterruptOverlay(
            activity.duration(), config_.spuriousParams, defense_rng));
    }
    if (config_.cacheSweepNoise) {
        activity.superimpose(defense::cacheSweepOverlay(
            activity.duration(), config_.cacheSweepParams));
    }
    if (config_.backgroundApps) {
        activity.superimpose(defense::backgroundAppsOverlay(
            activity.duration(), defense_rng));
    }
    activity.clampPhysical();

    sim::RunTimeline timeline =
        synthesizer_.synthesize(activity, synth_rng, perf);
    web::applyBrowserRuntime(timeline, config_.browser, browser_rng);

    // Injected delivery faults and stalls mutate the shared ground
    // truth, so the kernel tracer / gap detector observe the same
    // faulted schedule the attacker measured.
    if (config_.faults.enabled()) {
        const sim::FaultPlan plan(config_.faults,
                                  faultSalt(site.id, run_index));
        plan.applyToTimeline(timeline);
    }
    return timeline;
}

Result<attack::Trace>
TraceCollector::collectForAttacker(attack::AttackerKind attacker,
                                   const web::SiteSignature &site,
                                   int run_index,
                                   const sim::RunTimeline &timeline,
                                   const sim::FaultPlan &plan,
                                   std::uint64_t timer_seed,
                                   sim::PerfCounters *perf) const
{
    auto timer = config_.effectiveTimer().make(timer_seed);
    if (plan.enabled())
        timer = plan.wrapTimer(std::move(timer));

    Result<attack::Trace> collected = attack::collectTrace(
        attacker, config_.attackerParams, config_.machine, timeline,
        *timer, config_.effectivePeriod(), timer_seed ^ 0x5eedULL);
    if (!collected.isOk())
        return collected;
    attack::Trace trace = std::move(collected.value());
    trace.siteId = site.id;
    trace.label = site.id;
    if (perf != nullptr) {
        // One simulated event per attacker measurement period, counted
        // before truncation faults trim the record: the work happened.
        perf->eventsSimulated +=
            static_cast<long long>(trace.counts.size());
        perf->allocations += 2; // counts + wallTimes materialization
    }

    if (plan.enabled()) {
        // Truncation faults cut the recorded suffix (victim navigated
        // away, tab killed); the counts/wallTimes stay aligned.
        const std::size_t keep = plan.truncatedLength(trace.counts.size());
        if (keep < trace.counts.size()) {
            trace.counts.resize(keep);
            if (trace.wallTimes.size() > keep)
                trace.wallTimes.resize(keep);
        }
    }

    if (trace.counts.size() < kMinViablePeriods) {
        return Status(dataError(
            "trace of site " + std::to_string(site.id) + " run " +
            std::to_string(run_index) + " has " +
            std::to_string(trace.counts.size()) + " periods (< " +
            std::to_string(kMinViablePeriods) + " required)"));
    }
    for (double c : trace.counts) {
        if (!std::isfinite(c))
            return Status(dataError(
                "trace of site " + std::to_string(site.id) + " run " +
                std::to_string(run_index) + " has non-finite counts"));
    }
    return trace;
}

Result<attack::Trace>
TraceCollector::collectOne(const web::SiteSignature &site,
                           int run_index) const
{
    if (config_.effectivePeriod() <= 0)
        return Status(invalidArgumentError(
            "collection period must be positive (browser default and "
            "override are both unset)"));
    const sim::RunTimeline timeline = synthesizeTimeline(site, run_index);
    const auto timer_seed =
        mix64(config_.seed ^ 0x71e4aeedULL) ^
        mix64(static_cast<std::uint64_t>(site.id) * 7919ULL +
              static_cast<std::uint64_t>(run_index));
    const sim::FaultPlan plan(config_.faults,
                              faultSalt(site.id, run_index));
    return collectForAttacker(config_.attacker, site, run_index, timeline,
                              plan, timer_seed);
}

std::vector<Result<attack::Trace>>
TraceCollector::collectOneMulti(
    const web::SiteSignature &site, int run_index,
    std::span<const attack::AttackerKind> attackers,
    sim::PerfCounters *perf) const
{
    std::vector<Result<attack::Trace>> out;
    out.reserve(attackers.size());
    if (config_.effectivePeriod() <= 0) {
        for (std::size_t i = 0; i < attackers.size(); ++i)
            out.emplace_back(Status(invalidArgumentError(
                "collection period must be positive (browser default and "
                "override are both unset)")));
        return out;
    }
    // Everything up to the attack itself — victim workload, timeline
    // synthesis, browser runtime, fault plan, timer seed — depends only
    // on (config seed, site, run). Synthesize once and run each attacker
    // over the shared ground truth with its own freshly seeded timer.
    const sim::RunTimeline timeline =
        synthesizeTimeline(site, run_index, perf);
    const auto timer_seed =
        mix64(config_.seed ^ 0x71e4aeedULL) ^
        mix64(static_cast<std::uint64_t>(site.id) * 7919ULL +
              static_cast<std::uint64_t>(run_index));
    const sim::FaultPlan plan(config_.faults,
                              faultSalt(site.id, run_index));
    for (attack::AttackerKind attacker : attackers)
        out.push_back(collectForAttacker(attacker, site, run_index,
                                         timeline, plan, timer_seed, perf));
    return out;
}

CollectedCell
TraceCollector::collectCell(
    int world, SiteId site_key, const web::SiteSignature &site,
    int run_index, std::span<const attack::AttackerKind> attackers) const
{
    CollectedCell cell;
    if (checkpoint_ != nullptr) {
        auto cached = checkpoint_->lookup(world, site_key, run_index);
        // A cell journaled under a different attacker set cannot occur
        // (the fingerprint keys the attacker list), but stay defensive:
        // a size mismatch falls through to a fresh collection.
        // Replayed cells deliberately add nothing to the perf counters:
        // they measure work performed, exactly like cpuSeconds.
        if (cached.has_value() && cached->size() == attackers.size()) {
            cell.traces = std::move(*cached);
            return cell;
        }
    }
    cell.traces = collectOneMulti(site, run_index, attackers, &cell.perf);
    if (checkpoint_ != nullptr) {
        // A journal that stops accepting records (disk full, journal
        // file deleted) only costs resumability, never the run itself.
        const Status appended = checkpoint_->appendCell(
            world, site_key, run_index, cell.traces);
        if (!appended.isOk())
            warnOnce("collector/checkpoint-append",
                     "checkpoint append failed (run continues without "
                     "resumability): " +
                         appended.toString());
    }
    return cell;
}

Result<std::vector<attack::TraceSet>>
assembleSweep(std::vector<CollectedCell> &cells, std::size_t attackers,
              std::optional<Label> relabel, bool require_traces,
              const char *world, std::vector<CollectionStats> *stats,
              sim::PerfCounters *perf)
{
    std::vector<CollectionStats> local(attackers);
    std::vector<attack::TraceSet> sets(attackers);
    for (attack::TraceSet &set : sets)
        set.traces.reserve(cells.size());
    for (CollectedCell &cell : cells) {
        if (perf != nullptr)
            *perf += cell.perf;
        for (std::size_t a = 0; a < attackers; ++a) {
            ++local[a].attempted;
            if (!cell.traces[a].isOk()) {
                ++local[a].dropped;
                warnOnce("collector/dropped-trace",
                         "dropping unusable trace(s); first: " +
                             cell.traces[a].status().toString());
                continue;
            }
            ++local[a].collected;
            if (relabel)
                cell.traces[a].value().label = *relabel;
            sets[a].add(std::move(cell.traces[a].value()));
        }
    }
    if (stats != nullptr)
        *stats = local;
    for (std::size_t a = 0; a < attackers; ++a) {
        if (require_traces && sets[a].traces.empty())
            return Status(exhaustedError(
                std::string(world) + " collection dropped all " +
                std::to_string(local[a].attempted) + " traces"));
    }
    return sets;
}

attack::Trace
TraceCollector::collectOneOrDie(const web::SiteSignature &site,
                                int run_index) const
{
    // OrDie wrapper implementation: abort-on-error is the contract.
    // bigfish-lint: allow(ordie-outside-binary)
    return collectOne(site, run_index).valueOrDie();
}

Result<attack::TraceSet>
TraceCollector::collectClosedWorld(const web::SiteCatalog &catalog,
                                   int traces_per_site,
                                   CollectionStats *stats) const
{
    const attack::AttackerKind attackers[] = {config_.attacker};
    std::vector<CollectionStats> multi_stats;
    Result<std::vector<attack::TraceSet>> sets = collectClosedWorldMulti(
        catalog, traces_per_site, attackers,
        stats != nullptr ? &multi_stats : nullptr);
    if (!sets.isOk())
        return Status(sets.status());
    if (stats != nullptr)
        *stats = multi_stats[0];
    return std::move(sets.value()[0]);
}

Result<std::vector<attack::TraceSet>>
TraceCollector::collectClosedWorldMulti(
    const web::SiteCatalog &catalog, int traces_per_site,
    std::span<const attack::AttackerKind> attackers,
    std::vector<CollectionStats> *stats, sim::PerfCounters *perf) const
{
    if (traces_per_site <= 0)
        return Status(
            invalidArgumentError("traces_per_site must be positive"));
    if (attackers.empty())
        return Status(
            invalidArgumentError("need at least one attacker kind"));
    const std::size_t cells =
        static_cast<std::size_t>(catalog.size()) *
        static_cast<std::size_t>(traces_per_site);

    // Every (site, run) cell derives its randomness from the config seed
    // alone, so the cells are independent and collect in parallel; each
    // result lands in its own pre-sized slot and assembleSweep() walks
    // the slots in serial order, so the produced TraceSets, the
    // dropped-trace stats and the summed perf counters are identical at
    // any thread count.
    auto cell_results = parallelMap(cells, [&](std::size_t idx) {
        const SiteId id = static_cast<SiteId>(
            idx / static_cast<std::size_t>(traces_per_site));
        const int run = static_cast<int>(
            idx % static_cast<std::size_t>(traces_per_site));
        return collectCell(kCheckpointClosedWorld, id, catalog.site(id),
                           run, attackers);
    });
    return assembleSweep(cell_results, attackers.size(), std::nullopt,
                         true, "closed-world", stats, perf);
}

attack::TraceSet
TraceCollector::collectClosedWorldOrDie(const web::SiteCatalog &catalog,
                                        int traces_per_site,
                                        CollectionStats *stats) const
{
    // OrDie wrapper implementation: abort-on-error is the contract.
    // bigfish-lint: allow(ordie-outside-binary)
    return collectClosedWorld(catalog, traces_per_site, stats).valueOrDie();
}

Result<attack::TraceSet>
TraceCollector::collectOpenWorld(const web::SiteCatalog &catalog,
                                 int num_extra, Label non_sensitive_label,
                                 CollectionStats *stats) const
{
    const attack::AttackerKind attackers[] = {config_.attacker};
    std::vector<CollectionStats> multi_stats;
    Result<std::vector<attack::TraceSet>> sets = collectOpenWorldMulti(
        catalog, num_extra, non_sensitive_label, attackers,
        stats != nullptr ? &multi_stats : nullptr);
    if (!sets.isOk())
        return Status(sets.status());
    if (stats != nullptr)
        *stats = multi_stats[0];
    return std::move(sets.value()[0]);
}

Result<std::vector<attack::TraceSet>>
TraceCollector::collectOpenWorldMulti(
    const web::SiteCatalog &catalog, int num_extra,
    Label non_sensitive_label,
    std::span<const attack::AttackerKind> attackers,
    std::vector<CollectionStats> *stats, sim::PerfCounters *perf) const
{
    if (attackers.empty())
        return Status(
            invalidArgumentError("need at least one attacker kind"));
    const std::size_t cells =
        static_cast<std::size_t>(std::max(num_extra, 0));
    // Each open-world trace visits a distinct one-off site (the paper's
    // 5,000 unique non-sensitive pages); the cells are independent, so
    // they collect in parallel with the same slot-then-account scheme as
    // the closed world.
    // The journal keys open-world cells by extension index (not the
    // one-off site id), which is stable across catalog id schemes.
    auto cell_results = parallelMap(cells, [&](std::size_t i) {
        return collectCell(kCheckpointOpenWorld, static_cast<SiteId>(i),
                           catalog.openWorldSite(static_cast<int>(i)), 0,
                           attackers);
    });
    return assembleSweep(cell_results, attackers.size(),
                         non_sensitive_label, num_extra > 0, "open-world",
                         stats, perf);
}

attack::TraceSet
TraceCollector::collectOpenWorldOrDie(const web::SiteCatalog &catalog,
                                      int num_extra,
                                      Label non_sensitive_label,
                                      CollectionStats *stats) const
{
    return collectOpenWorld(catalog, num_extra, non_sensitive_label, stats)
        // OrDie wrapper implementation: abort-on-error is the contract.
        // bigfish-lint: allow(ordie-outside-binary)
        .valueOrDie();
}

} // namespace bigfish::core
