/**
 * @file
 * Cross-validated evaluation (the paper's measurement protocol).
 *
 * Closed world: standard k-fold CV reporting mean +/- std of top-1 and
 * top-K accuracy across folds (Table 1 left, Tables 3-4; the paper
 * reports K = 5).
 *
 * Open world: same protocol over a dataset whose last class is the
 * catch-all "non-sensitive" label; additionally reports sensitive /
 * non-sensitive / combined accuracy (Table 1 right).
 *
 * This file holds the protocol's primitives, which the fingerprinting
 * pipeline's stage graph (core/pipeline.hh) schedules and caches one by
 * one: kFoldSplits() (ml/dataset.hh) fixes the folds,
 * trainFoldClassifier() trains one model per fold, scoreFold() keeps
 * its raw scores, truths and predictions on the fold's test split, and
 * aggregateFolds() / aggregateFoldsOpenWorld() reduce fold outputs to
 * an EvalResult. There is no second executor: every experiment runs
 * its folds through core::runFingerprintingBatch(), and the fold seeds
 * below fix each fold's result whatever the schedule.
 */

#ifndef BF_ML_EVALUATION_HH
#define BF_ML_EVALUATION_HH

#include <cstdint>
#include <memory>

#include "ml/classifier.hh"
#include "ml/dataset.hh"
#include "stats/confusion.hh"

namespace bigfish::ml {

/** Aggregated cross-validation results: aggregateFolds() fills the
 *  closed-world fields, aggregateFoldsOpenWorld() the open-world ones
 *  too. */
struct EvalResult
{
    double top1Mean = 0.0;
    double top1Std = 0.0;
    double topKMean = 0.0;
    double topKStd = 0.0;
    /** The K the topK* fields were computed with (paper: 5). */
    int topK = 5;

    /** Per-fold top-1 accuracies (for significance testing). */
    std::vector<double> foldTop1;
    /** Per-fold top-K accuracies. */
    std::vector<double> foldTopK;

    /** Open-world metrics (valid after aggregateFoldsOpenWorld()). */
    stats::OpenWorldMetrics openWorld;
    double openWorldSensitiveStd = 0.0;
    double openWorldCombinedStd = 0.0;
};

/** Evaluation protocol parameters. */
struct EvalConfig
{
    int folds = 10;           ///< Paper: 10-fold CV.
    double valFraction = 0.1; ///< Paper: 9% validation of the 90% remainder.
    std::uint64_t seed = 1;
    /**
     * K of the secondary top-K accuracy (paper: 5). Purely an
     * aggregation knob: changing it reuses every cached collect /
     * featurize / train / score stage and recomputes only the final
     * aggregation.
     */
    int topK = 5;
};

/** Fold-seed offsets: fold f trains with seed = config.seed + base + f.
 *  Fixed constants — changing either silently changes every result. */
inline constexpr std::uint64_t kClosedWorldFoldSeedBase = 1000;
inline constexpr std::uint64_t kOpenWorldFoldSeedBase = 2000;

/** Everything one fold's scoring produces; folds train concurrently,
 *  so each owns its buffers outright. */
struct FoldScores
{
    std::vector<std::vector<double>> scores;
    std::vector<Label> truths;
    std::vector<Label> predictions;
};

/** Trains one fold's classifier (fit on train, early-stop on
 *  validation). The TrainFold stage body. */
std::unique_ptr<Classifier>
trainFoldClassifier(const ClassifierFactory &factory, const Dataset &data,
                    const FoldSplit &split, std::uint64_t seed);

/** Scores @p model on the given test indices, each once: a
 *  prediction is the argmaxLabel() of the scores stored beside it. The
 *  ScoreFold stage body. */
FoldScores scoreFold(const Classifier &model, const Dataset &data,
                     const std::vector<std::size_t> &test);

/** Aggregates fold outputs into closed-world metrics (fold order is
 *  significant: results are reduced in index order). */
EvalResult aggregateFolds(const std::vector<FoldScores> &folds, int topK);

/** Open-world aggregation: adds sensitive / non-sensitive / combined
 *  accuracy means and stds over folds. */
EvalResult aggregateFoldsOpenWorld(const std::vector<FoldScores> &folds,
                                   Label nonSensitiveLabel, int topK);

} // namespace bigfish::ml

#endif // BF_ML_EVALUATION_HH
