/**
 * @file
 * FingerprintPipeline: collect → featurize → cross-validated classify.
 *
 * This is the library's highest-level entry point: given one
 * CollectionConfig (the attack setup) and one PipelineConfig (dataset
 * scale + classifier), it reproduces the paper's evaluation protocol and
 * returns Table-ready accuracy numbers for the closed-world and
 * open-world settings.
 *
 * Internally the run is a declared stage graph (core/stage.hh):
 * Collect → Featurize per attacker → per world FoldSplit →
 * TrainFold×k → ScoreFold×k → Aggregate. Every stage is
 * content-addressed, so with a cacheDir any upstream prefix whose
 * fingerprints match a previous run replays from the stage cache
 * bit-identically, and the per-stage timing/cache table comes back in
 * FingerprintResult::stages. Collect persists its raw traces there
 * too, one entry per collection chunk (a site's runs, or tracesPerSite
 * open-world traces), so rerunning a killed run with the same cacheDir
 * collects only the chunks it never committed.
 *
 * runFingerprintingBatch() declares many jobs — each a collection
 * setup, its attackers and its own PipelineConfig — into one graph and
 * executes it once: every job's per-(site, run) collection tasks,
 * featurization and per-fold train/score tasks share the executor with
 * no barrier between jobs or phases. Each collection task featurizes
 * its own cell, so a cell's raw traces live only until then, or with a
 * cacheDir until its chunk is committed; the Featurize stage then only
 * gathers the rows.
 *
 * Error contract: runFingerprinting() returns Result<FingerprintResult>.
 * Traces that come back unusable (fault-truncated, empty) are dropped
 * with accounting in FingerprintResult::droppedTraces rather than
 * aborting the evaluation; the run fails only when the configuration is
 * invalid or so few traces survive that cross-validation is impossible.
 */

#ifndef BF_CORE_PIPELINE_HH
#define BF_CORE_PIPELINE_HH

#include <span>
#include <vector>

#include "base/result.hh"
#include "core/collector.hh"
#include "core/stage.hh"
#include "ml/classifier.hh"
#include "ml/evaluation.hh"

namespace bigfish::core {

/**
 * What featureRow() makes of a trace. The default is the pipeline's
 * two-channel row; the others are the ablation variants of DESIGN.md
 * decision #6 (one channel alone, or both without winsorizing).
 */
enum class Featurization
{
    MeanDip,             ///< Winsorized bucket means, then dip depths.
    MeanOnly,            ///< Winsorized bucket means alone.
    DipOnly,             ///< Dip depths alone.
    MeanDipUnwinsorized, ///< Both channels, means not winsorized.
};

/** Dataset scale and classifier choice for one evaluation. */
struct PipelineConfig
{
    int numSites = 20;      ///< Paper: 100.
    int tracesPerSite = 20; ///< Paper: 100.
    /** Open-world extra one-off traces; paper: 5000. 0 disables. */
    int openWorldExtra = 0;
    /**
     * Time buckets per channel fed to the classifier (traces are
     * resampled; the default rows are 2 x featureLen: bucket means plus
     * sub-bucket dip depths).
     */
    std::size_t featureLen = 256;
    /** Which channels a row holds; the factory's input must match. */
    Featurization featurization = Featurization::MeanDip;
    /** Classifier; defaults to the two-channel CNN-LSTM at bench scale. */
    ml::ClassifierFactory factory =
        ml::cnnLstmFactory(ml::CnnLstmParams::traceDefaults());
    /** Cross-validation protocol. */
    ml::EvalConfig eval;
    /** Catalog seed (same seed = same 100 websites). */
    std::uint64_t catalogSeed = 7;
    /**
     * Stage cache directory ("" disables caching). When set, every
     * cacheable stage output — raw collection chunks, featurized
     * datasets, trained fold models, per-fold evaluation scores — is
     * stored content-addressed (core/stage_cache.hh) and a re-run
     * reuses whatever upstream prefix of the stage graph still
     * fingerprints the same, replaying it bit-identically: a killed run
     * resumes from the chunks it committed, a featurization-only change
     * skips collection, and changing only evaluation settings skips
     * collection, featurization and (for eval-only knobs like topK)
     * training too.
     */
    std::string cacheDir;
};

/** The result of one full fingerprinting evaluation. */
struct FingerprintResult
{
    ml::EvalResult closedWorld;
    /** Present only when openWorldExtra > 0. */
    ml::EvalResult openWorld;
    bool hasOpenWorld = false;

    /** Traces dropped as unusable across both worlds (fault accounting). */
    std::size_t droppedTraces = 0;
    /** Traces that made it into the evaluation across both worlds. */
    std::size_t collectedTraces = 0;

    /**
     * The per-stage execution table: one StageReport per stage this
     * result's attacker owns (name, phase, fingerprint, cache
     * provenance, CPU/wall seconds, item/drop accounting). This
     * replaces the former ad-hoc per-phase *Seconds fields; phase
     * rollups are reduced from it by RunArtifact. In shared runs the
     * Collect stage appears only in the first attacker's table, so
     * summing per-attacker tables counts the shared collection once.
     */
    std::vector<StageReport> stages;
};

/**
 * Runs the complete evaluation for one attack configuration.
 *
 * Closed world: numSites x tracesPerSite traces, k-fold CV, top-1/top-5.
 * Open world (when enabled): the closed-world traces become "sensitive"
 * classes and openWorldExtra one-off traces form the "non-sensitive"
 * class, mirroring the paper's 101-class design.
 *
 * Degraded collection (injected faults, truncated traces) drops traces
 * with accounting instead of failing; see FingerprintResult.
 */
[[nodiscard]] Result<FingerprintResult>
runFingerprinting(const CollectionConfig &collection,
                  const PipelineConfig &pipeline);

/** runFingerprinting() that fatal()s on failure (binary boundaries). */
FingerprintResult
runFingerprintingOrDie(const CollectionConfig &collection,
                       const PipelineConfig &pipeline);

/**
 * Runs the complete evaluation for several attackers that differ ONLY in
 * attacker kind (the benchmarks compare loop-counting vs sweep-counting
 * over otherwise-identical configurations). Victim timelines are
 * synthesized once and shared across attackers, so collection costs
 * ~1/attackers.size() of separate runFingerprinting() calls while every
 * returned result is bit-identical to its single-attacker run —
 * synthesis and timer seeding never depend on the attacker.
 *
 * @p collection's own `attacker` field is ignored; results are returned
 * in @p attackers order. The shared Collect stage is reported once, in
 * the first result's stage table, so summing results does not
 * double-count it.
 */
[[nodiscard]] Result<std::vector<FingerprintResult>>
runFingerprintingShared(const CollectionConfig &collection,
                        std::span<const attack::AttackerKind> attackers,
                        const PipelineConfig &pipeline);

/** runFingerprintingShared() that fatal()s on failure. */
std::vector<FingerprintResult>
runFingerprintingSharedOrDie(
    const CollectionConfig &collection,
    std::span<const attack::AttackerKind> attackers,
    const PipelineConfig &pipeline);

/** One configuration of a batch: a collection setup, the attackers
 *  sharing its victim timelines (see runFingerprintingShared()) and the
 *  pipeline that evaluates them. */
struct FingerprintJob
{
    CollectionConfig collection;
    std::vector<attack::AttackerKind> attackers;
    PipelineConfig pipeline;
};

/**
 * Runs every job in @p jobs as one stage graph on the global pool and
 * returns, per job in job order, exactly what runFingerprintingShared()
 * would return for it under the job's own pipeline — results, stage
 * tables and cache provenance are bit-identical to the sequential calls
 * because every seed and fingerprint is fixed when the job is declared.
 * The batch opens one stage cache, so every job must name the same
 * cacheDir (InvalidArgument otherwise). When jobs fail, the Status is
 * that of the first failing job in job order (and, within it, of its
 * first failing stage in declaration order); the other jobs still
 * drain.
 */
[[nodiscard]] Result<std::vector<std::vector<FingerprintResult>>>
runFingerprintingBatch(std::span<const FingerprintJob> jobs);

/**
 * One trace's dataset row. The default is 2 x @p feature_len values:
 * the winsorized and standardized bucket means followed by the
 * standardized sub-bucket dip depths; the other variants drop a channel
 * or the winsorizing. Every featurization of the pipeline goes through
 * this.
 */
std::vector<double> featureRow(const attack::Trace &trace,
                               std::size_t feature_len,
                               Featurization variant =
                                   Featurization::MeanDip);

/** Converts a TraceSet into an ml::Dataset: featureRow() of every
 *  trace with its label, and at least @p num_classes classes. */
ml::Dataset toDataset(const attack::TraceSet &traces,
                      std::size_t feature_len, int num_classes);

} // namespace bigfish::core

#endif // BF_CORE_PIPELINE_HH
