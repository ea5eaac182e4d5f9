/**
 * @file
 * SimScratch: the per-thread scratch arena of the simulator hot path
 * (DESIGN.md §13).
 *
 * Trace collection synthesizes one timeline per (site, run) cell, and
 * before the arena existed every cell paid the same multi-megabyte
 * allocation pattern from scratch: a fresh emission vector grown
 * through several doublings, the bucket sort's working buffers, and a
 * hidden temporary buffer inside std::inplace_merge. None of those
 * buffers' *contents* survive a cell, but their *capacity* should: the
 * grid collects thousands of cells of near-identical size per thread.
 *
 * The arena is strictly capacity reuse. Every algorithm that borrows a
 * buffer fully overwrites the range it reads back, so results are
 * byte-identical to the fresh-allocation code — vector capacity is
 * invisible to output. Buffers are thread_local, so pool threads never
 * share or synchronize, and thread count cannot influence results
 * (each cell's output never depends on which thread's arena served it).
 *
 * Rules for borrowing (keep these, reviewers check them):
 *  1. assign()/clear() before reading anything back — stale contents
 *     from the previous cell must be unobservable. The one exception
 *     is `gatherRing`, which is resized, never cleared: the gather reads
 *     a slot only after writing it earlier in the same walk.
 *  2. Never hold a borrowed buffer across a call that may also borrow
 *     it (the synthesizer's emit buffer and the bucket sort's `order`
 *     are distinct members for exactly this reason).
 *  3. Swapping a borrowed buffer with a caller vector is encouraged:
 *     the arena inherits the caller's capacity for the next cell.
 *  4. A lent buffer leaves the arena. InterruptSynthesizer::synthesize()
 *     sorts the timeline in place in `emit` and swaps `emit` into the
 *     RunTimeline it returns, so the timeline owns it and `emit` is
 *     empty until giveBack() returns a buffer. Only the timeline's owner
 *     may give it back, after the last reader of the timeline is done;
 *     its contents are dead from then on. A synthesis while the buffer
 *     is out allocates a fresh one, which is slower but no less
 *     correct, and giveBack() keeps whichever of the two buffers is
 *     larger. So a worker holds one interval buffer, sized to the
 *     largest timeline it has built, plus 4 bytes per interval of sort
 *     order and two small gather buffers.
 */

#ifndef BF_SIM_SCRATCH_HH
#define BF_SIM_SCRATCH_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/interrupt.hh"
#include "sim/run_timeline.hh"

namespace bigfish::sim {

/** Reusable per-thread buffers for timeline synthesis and sorting. */
class SimScratch
{
  public:
    /** Emission buffer the synthesizer builds and sorts timelines in. */
    std::vector<StolenInterval> emit;
    /** Bucket-sort permutation: element indices in output order. */
    std::vector<std::uint32_t> order;
    /** Bucket-sort bucket offsets (size buckets + 1). */
    std::vector<std::size_t> offsets;
    /** Bucket-sort scatter cursors (size buckets). */
    std::vector<std::size_t> cursor;
    /** The in-place gather's ring of recently overwritten originals. */
    std::vector<StolenInterval> gatherRing;
    /** Originals the gather needs after its ring has dropped them. */
    std::vector<StolenInterval> farSources;
    /** Tail copy for the sorted-prefix merge in normalizeTimeline(). */
    std::vector<StolenInterval> tailMerge;

    /** This thread's arena. Pool threads each get their own. */
    static SimScratch &
    local()
    {
        thread_local SimScratch scratch;
        return scratch;
    }
};

/**
 * Returns @p timeline's interval buffer to this thread's arena (rule 4
 * above), leaving timeline.stolen empty. Call it once the last reader
 * of a synthesized timeline is done.
 */
inline void
giveBack(RunTimeline &timeline)
{
    std::vector<StolenInterval> &emit = SimScratch::local().emit;
    if (timeline.stolen.capacity() > emit.capacity())
        emit.swap(timeline.stolen);
    timeline.stolen = {};
}

} // namespace bigfish::sim

#endif // BF_SIM_SCRATCH_HH
