#include "attack/trace.hh"

#include <algorithm>

#include "stats/descriptive.hh"

namespace bigfish::attack {

double
Trace::maxCount() const
{
    if (counts.empty())
        return 0.0;
    return *std::max_element(counts.begin(), counts.end());
}

std::vector<double>
Trace::normalized() const
{
    return stats::normalizeByMax(counts);
}

int
TraceSet::numClasses() const
{
    int max_label = -1;
    for (const Trace &t : traces)
        max_label = std::max(max_label, t.label);
    return max_label + 1;
}

std::vector<double>
Trace::meanFeatures(std::size_t featureLen) const
{
    return stats::downsample(normalized(), featureLen);
}

std::vector<double>
Trace::dipFeatures(std::size_t featureLen) const
{
    // Pair-sum adjacent periods first: consecutive measurement windows
    // tile time, so summing pairs cancels the shared boundary's
    // timer-jitter noise (a coarse-resolution fuzzed timer like
    // Firefox's 1 ms clamp adds +-A to each boundary but interior
    // boundaries telescope away in sums). The dip signal — a softirq
    // storm depressing a few consecutive periods — survives the pairing.
    std::vector<double> paired;
    if (counts.size() >= 8) {
        paired.reserve(counts.size() / 2);
        for (std::size_t i = 0; i + 1 < counts.size(); i += 2)
            paired.push_back(counts[i] + counts[i + 1]);
    } else {
        paired = counts;
    }
    const auto norm = stats::normalizeByMax(paired);
    auto mean_ds = stats::downsample(norm, featureLen);
    const auto min_ds = stats::downsampleMin(norm, featureLen);
    for (std::size_t i = 0; i < featureLen; ++i)
        mean_ds[i] -= min_ds[i];
    return mean_ds;
}

std::vector<std::vector<double>>
TraceSet::toFeatures(std::size_t featureLen) const
{
    std::vector<std::vector<double>> features;
    features.reserve(traces.size());
    for (const Trace &t : traces)
        features.push_back(t.meanFeatures(featureLen));
    return features;
}

std::vector<std::vector<double>>
TraceSet::toDipFeatures(std::size_t featureLen) const
{
    std::vector<std::vector<double>> features;
    features.reserve(traces.size());
    for (const Trace &t : traces)
        features.push_back(t.dipFeatures(featureLen));
    return features;
}

std::vector<Label>
TraceSet::labels() const
{
    std::vector<Label> out;
    out.reserve(traces.size());
    for (const Trace &t : traces)
        out.push_back(t.label);
    return out;
}

} // namespace bigfish::attack
