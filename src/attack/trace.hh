/**
 * @file
 * Trace containers: the raw output of an attacker run and datasets of
 * labeled traces ready for the classifier.
 */

#ifndef BF_ATTACK_TRACE_HH
#define BF_ATTACK_TRACE_HH

#include <cstddef>
#include <string>
#include <vector>

#include "base/types.hh"

namespace bigfish::attack {

/** One collected trace: the per-period counter values of Figure 2. */
struct Trace
{
    SiteId siteId = -1;     ///< Which site the victim loaded (-1 unknown).
    Label label = -1;       ///< Classifier label (may differ from siteId).
    TimeNs period = 0;      ///< Configured period length P.
    std::string attacker;   ///< "loop-counting" or "sweep-counting".

    /** Counter value stored per measurement period. */
    std::vector<double> counts;
    /** Real (wall) duration each period actually spanned. */
    std::vector<TimeNs> wallTimes;

    /** Number of periods recorded. */
    std::size_t size() const { return counts.size(); }

    /** Largest counter value (the attacker's normalization constant). */
    double maxCount() const;

    /** counts normalized by the maximum (Figures 3-4). */
    std::vector<double> normalized() const;

    /**
     * Fixed-length features: the trace normalized by its own maximum
     * and resampled (bucket averages, or linear interpolation when
     * shorter) to @p featureLen buckets.
     */
    std::vector<double> meanFeatures(std::size_t featureLen) const;

    /**
     * Per-bucket dip-depth companion to meanFeatures(): bucket mean
     * minus bucket minimum of the normalized trace. This channel carries
     * the sub-bucket interrupt texture (a single softirq storm inside
     * one bucket) that plain bucket averages smooth away; it is zero by
     * construction when the timer is so coarse that each bucket holds
     * at most one measurement period.
     */
    std::vector<double> dipFeatures(std::size_t featureLen) const;
};

/** A labeled collection of traces. */
struct TraceSet
{
    std::vector<Trace> traces;

    std::size_t size() const { return traces.size(); }
    void add(Trace trace) { traces.push_back(std::move(trace)); }

    /** Number of distinct labels (max label + 1). */
    int numClasses() const;

    /** The label of every trace, in trace order. */
    std::vector<Label> labels() const;
};

} // namespace bigfish::attack

#endif // BF_ATTACK_TRACE_HH
