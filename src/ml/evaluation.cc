#include "ml/evaluation.hh"

#include "stats/descriptive.hh"

namespace bigfish::ml {

std::unique_ptr<Classifier>
trainFoldClassifier(const ClassifierFactory &factory, const Dataset &data,
                    const FoldSplit &split, std::uint64_t seed)
{
    auto model = factory(data.numClasses, data.featureLen(), seed);
    model->fit(data.subset(split.train), data.subset(split.validation));
    return model;
}

FoldScores
scoreFold(const Classifier &model, const Dataset &data,
          const std::vector<std::size_t> &test)
{
    FoldScores out;
    out.scores.reserve(test.size());
    out.truths.reserve(test.size());
    out.predictions.reserve(test.size());
    for (std::size_t i : test) {
        out.scores.push_back(model.predictScores(data.features[i]));
        out.truths.push_back(data.labels[i]);
        // The scores just stored are what predict() would recompute.
        out.predictions.push_back(argmaxLabel(out.scores.back()));
    }
    return out;
}

EvalResult
aggregateFolds(const std::vector<FoldScores> &folds, int topK)
{
    EvalResult result;
    result.topK = topK;
    for (const FoldScores &fold : folds) {
        result.foldTop1.push_back(
            stats::topKAccuracy(fold.scores, fold.truths, 1));
        result.foldTopK.push_back(
            stats::topKAccuracy(fold.scores, fold.truths, topK));
    }
    result.top1Mean = stats::mean(result.foldTop1);
    result.top1Std = stats::sampleStddev(result.foldTop1);
    result.topKMean = stats::mean(result.foldTopK);
    result.topKStd = stats::sampleStddev(result.foldTopK);
    return result;
}

EvalResult
aggregateFoldsOpenWorld(const std::vector<FoldScores> &folds,
                        Label nonSensitiveLabel, int topK)
{
    EvalResult result = aggregateFolds(folds, topK);
    std::vector<double> sensitive, non_sensitive, combined;
    for (const FoldScores &fold : folds) {
        const auto metrics = stats::openWorldMetrics(
            fold.truths, fold.predictions, nonSensitiveLabel);
        sensitive.push_back(metrics.sensitiveAccuracy);
        non_sensitive.push_back(metrics.nonSensitiveAccuracy);
        combined.push_back(metrics.combinedAccuracy);
    }
    result.openWorld.sensitiveAccuracy = stats::mean(sensitive);
    result.openWorld.nonSensitiveAccuracy = stats::mean(non_sensitive);
    result.openWorld.combinedAccuracy = stats::mean(combined);
    result.openWorldSensitiveStd = stats::sampleStddev(sensitive);
    result.openWorldCombinedStd = stats::sampleStddev(combined);
    return result;
}

} // namespace bigfish::ml
