#include "sim/interrupt.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "base/logging.hh"
#include "sim/scratch.hh"

namespace bigfish::sim {

std::string
interruptKindName(InterruptKind kind)
{
    switch (kind) {
      case InterruptKind::TimerTick:
        return "timer_tick";
      case InterruptKind::NetworkRx:
        return "net_rx_irq";
      case InterruptKind::Graphics:
        return "graphics_irq";
      case InterruptKind::Disk:
        return "disk_irq";
      case InterruptKind::Usb:
        return "usb_irq";
      case InterruptKind::SoftirqNetRx:
        return "softirq:net_rx";
      case InterruptKind::SoftirqTimer:
        return "softirq:timer";
      case InterruptKind::IrqWork:
        return "irq_work";
      case InterruptKind::ReschedIpi:
        return "resched_ipi";
      case InterruptKind::TlbShootdown:
        return "tlb_shootdown";
      case InterruptKind::SpuriousNoise:
        return "spurious_noise";
      case InterruptKind::Preemption:
        return "preemption";
      case InterruptKind::UntraceableStall:
        return "untraceable_stall";
      case InterruptKind::NumKinds:
        break;
    }
    return "unknown";
}

bool
isMovable(InterruptKind kind)
{
    switch (kind) {
      case InterruptKind::NetworkRx:
      case InterruptKind::Graphics:
      case InterruptKind::Disk:
      case InterruptKind::Usb:
        return true;
      default:
        return false;
    }
}

bool
isInterrupt(InterruptKind kind)
{
    return kind != InterruptKind::Preemption &&
           kind != InterruptKind::UntraceableStall &&
           kind != InterruptKind::NumKinds;
}

bool
isTraceable(InterruptKind kind)
{
    return kind != InterruptKind::UntraceableStall &&
           kind != InterruptKind::NumKinds;
}

void
durationOutOfRange(TimeNs duration)
{
    panic("stolen-interval duration " + std::to_string(duration) +
          " ns is outside [0, " +
          std::to_string(StolenInterval::kMaxDuration) + "]");
}

HandlerCostModel::HandlerCostModel()
{
    // Medians chosen so the *total* gap (median + 1.5us context switch)
    // reproduces the characteristic per-kind distributions of Figure 6:
    // every gap exceeds 1.5us; timer ticks cluster near 2-4us with a
    // second mode at ~5.5us when IRQ work piggybacks; network RX spreads
    // wider; rescheduling IPIs are the cheapest.
    auto set = [&](InterruptKind k, TimeNs median, double sigma) {
        setParams(k, {median, sigma});
    };
    set(InterruptKind::TimerTick, 2100, 0.35);
    set(InterruptKind::NetworkRx, 3400, 0.50);
    set(InterruptKind::Graphics, 2900, 0.45);
    set(InterruptKind::Disk, 2600, 0.40);
    set(InterruptKind::Usb, 2000, 0.35);
    set(InterruptKind::SoftirqNetRx, 2500, 0.55);
    set(InterruptKind::SoftirqTimer, 1800, 0.40);
    set(InterruptKind::IrqWork, 4000, 0.20);
    set(InterruptKind::ReschedIpi, 1400, 0.30);
    set(InterruptKind::TlbShootdown, 2200, 0.35);
    set(InterruptKind::SpuriousNoise, 3000, 0.50);
    // Preemption "handler cost" is the stolen timeslice; the synthesizer
    // overrides its duration directly, so this entry is only a fallback.
    set(InterruptKind::Preemption, 1000 * 1000, 0.50);
    set(InterruptKind::UntraceableStall, 800, 0.60);
}

void
HandlerCostModel::setParams(InterruptKind kind, HandlerCostParams params)
{
    table_[static_cast<int>(kind)] = params;
    logMedian_[static_cast<int>(kind)] =
        std::log(static_cast<double>(params.median));
}

HandlerCostParams
HandlerCostModel::params(InterruptKind kind) const
{
    return table_[static_cast<int>(kind)];
}

TimeNs
HandlerCostModel::sample(InterruptKind kind, Rng &rng, bool vmIsolated,
                         double workScale) const
{
    const HandlerCostParams &p = table_[static_cast<int>(kind)];
    double body =
        rng.lognormalFromLogMedian(logMedian_[static_cast<int>(kind)],
                                   p.sigma);
    body *= std::max(workScale, 0.0);
    double total = body;
    if (kind != InterruptKind::UntraceableStall)
        total += static_cast<double>(contextSwitchNs);
    if (vmIsolated && isInterrupt(kind)) {
        // Host handles the interrupt, exits to the guest, and the guest
        // kernel processes its virtual interrupt: the stolen time grows.
        total = total * vmAmplification + static_cast<double>(vmExitNs);
    }
    return static_cast<TimeNs>(std::max(total, 1.0));
}

namespace {

constexpr auto byArrival = [](const StolenInterval &a,
                              const StolenInterval &b) {
    return a.arrival < b.arrival;
};

/** Originals the streaming gather keeps behind its write position. A
 *  power of two, so the slot is a mask. */
constexpr std::uint32_t kGatherRing = 8192;
/** Tags an order entry whose source is held in SimScratch::farSources. */
constexpr std::uint32_t kFarSource = std::uint32_t{1} << 31;

/**
 * Applies the bucket sort's order in place: output slot k takes the
 * original element order[k], serialized behind slot k - 1 as
 * normalizeTimeline() serializes its other paths (one pass over the
 * stream instead of two). The walk goes up the output slots, so a
 * source at or after k is still in place. One at most kGatherRing slots
 * behind is read from a ring of the last kGatherRing originals the walk
 * overwrote; every ring slot read was written earlier in the same walk.
 * A source farther behind was copied to scratch.farSources before the
 * walk began, and its order entry is tagged kFarSource. In synthesized
 * timelines those are about 1 % of the stream, mostly timer ticks,
 * which are emitted before everything else.
 */
void
gatherInPlace(std::vector<StolenInterval> &stolen, SimScratch &scratch)
{
    const std::vector<std::uint32_t> &order = scratch.order;
    const std::vector<StolenInterval> &far = scratch.farSources;
    std::vector<StolenInterval> &ring = scratch.gatherRing;
    ring.resize(kGatherRing);
    TimeNs busy_until = 0;
    for (std::size_t k = 0; k < stolen.size(); ++k) {
        const std::uint32_t src = order[k];
        const StolenInterval original = stolen[k];
        StolenInterval moved;
        if (src & kFarSource)
            moved = far[src & ~kFarSource];
        else if (src >= k)
            moved = stolen[src];
        else
            moved = ring[src & (kGatherRing - 1)];
        ring[k & (kGatherRing - 1)] = original;
        moved.arrival = std::max(moved.arrival, busy_until);
        busy_until = moved.end();
        stolen[k] = moved;
    }
}

/**
 * Sorts intervals by arrival with a bucket sort, and serializes them
 * (see gatherInPlace()): arrivals are
 * near-uniform over the run (the synthesizer emits them clustered by
 * activity step), so scattering into ~size/16 arrival-range buckets and
 * insertion-sorting each bucket is O(n) where a comparison sort was a
 * quarter of trace-collection time at paper scale. Bucket assignment is
 * pure arithmetic on the arrival, so the result is deterministic and
 * independent of thread count.
 *
 * The sort runs on 32-bit element indices, not on the elements: the
 * scatter writes each element's index into its bucket, and the bucket
 * sorts compare `arrival` through the index. They make the same
 * comparisons and the same moves the element sort made, so the
 * permutation, ties included, is the element sort's. A streaming gather
 * then applies it in place (see gatherInPlace()), so the timeline is
 * never held twice.
 *
 * Every working buffer (order, offsets, cursors, the gather's ring and
 * far-source copies) is borrowed from the per-thread SimScratch arena:
 * their capacity survives across the (site, run) grid while every
 * element read back is written first, so results match the
 * fresh-allocation code byte-for-byte.
 */
void
bucketSortAndSerialize(std::vector<StolenInterval> &stolen,
                       SimScratch &scratch, PerfCounters *perf)
{
    const std::size_t n = stolen.size();
    panicIf(n >= kFarSource, "timeline too long to sort by 31-bit index");
    TimeNs lo = stolen[0].arrival;
    TimeNs hi = lo;
    for (const StolenInterval &s : stolen) {
        lo = std::min(lo, s.arrival);
        hi = std::max(hi, s.arrival);
    }
    const std::size_t buckets = std::max<std::size_t>(n / 16, 1);
    const double scale = static_cast<double>(buckets) /
                         (static_cast<double>(hi - lo) + 1.0);
    const auto bucket_of = [&](const StolenInterval &s) {
        return std::min<std::size_t>(
            static_cast<std::size_t>(
                static_cast<double>(s.arrival - lo) * scale),
            buckets - 1);
    };
    std::vector<std::size_t> &offsets = scratch.offsets;
    offsets.assign(buckets + 1, 0);
    for (const StolenInterval &s : stolen)
        ++offsets[bucket_of(s) + 1];
    for (std::size_t b = 1; b <= buckets; ++b)
        offsets[b] += offsets[b - 1];
    std::vector<std::uint32_t> &order = scratch.order;
    order.resize(n);
    {
        std::vector<std::size_t> &cursor = scratch.cursor;
        cursor.assign(offsets.begin(), offsets.end() - 1);
        for (std::uint32_t i = 0; i < n; ++i)
            order[cursor[bucket_of(stolen[i])]++] = i;
    }
    const auto earlier = [&stolen](std::uint32_t a, std::uint32_t b) {
        return stolen[a].arrival < stolen[b].arrival;
    };
    // Buckets average ~16 elements: insertion sort handles those
    // allocation-free, while softirq-storm clusters that land many
    // intervals in one bucket fall back to std::sort. The fallback's
    // tie permutation is part of the bit-identity baseline (see the
    // tie-policy note on normalizeTimeline) — do not replace it with a
    // stable sort without re-recording reference traces.
    //
    // Once a bucket is sorted its output positions are final, so the
    // same loop finds the sources the gather's ring will no longer hold
    // (more than kGatherRing positions behind their output slot) and
    // copies them aside while every element is still in place.
    std::vector<StolenInterval> &far = scratch.farSources;
    far.clear();
    for (std::size_t b = 0; b < buckets; ++b) {
        const std::size_t begin = offsets[b];
        const std::size_t end = offsets[b + 1];
        if (end - begin > 48) {
            std::sort(order.begin() + static_cast<std::ptrdiff_t>(begin),
                      order.begin() + static_cast<std::ptrdiff_t>(end),
                      earlier);
        } else {
            for (std::size_t i = begin + 1; i < end; ++i) {
                const std::uint32_t v = order[i];
                const TimeNs at = stolen[v].arrival;
                std::size_t j = i;
                while (j > begin && at < stolen[order[j - 1]].arrival) {
                    order[j] = order[j - 1];
                    --j;
                }
                order[j] = v;
            }
        }
        for (std::size_t k = begin; k < end; ++k) {
            const std::uint32_t src = order[k];
            if (src + std::size_t{kGatherRing} < k) {
                order[k] = kFarSource |
                           static_cast<std::uint32_t>(far.size());
                far.push_back(stolen[src]);
            }
        }
    }
    gatherInPlace(stolen, scratch);
    if (perf) {
        perf->allocations += 5;
        perf->bytesSorted += static_cast<long long>(
            stolen.size() * sizeof(StolenInterval));
    }
}

/**
 * Merges an already-sorted prefix with a sorted tail in place, working
 * backward from the end. Output is element-for-element identical to
 * std::inplace_merge: on ties (equal arrivals) the prefix element
 * precedes the tail element, because a tail element only overtakes a
 * prefix element when the prefix arrival is *strictly* greater. Unlike
 * std::inplace_merge, which allocates a hidden temporary buffer on
 * every call, the tail copy lives in the arena.
 */
void
mergeSortedTail(std::vector<StolenInterval> &stolen,
                std::size_t sorted_prefix, SimScratch &scratch,
                PerfCounters *perf)
{
    std::vector<StolenInterval> &tailBuf = scratch.tailMerge;
    tailBuf.assign(stolen.begin() +
                       static_cast<std::ptrdiff_t>(sorted_prefix),
                   stolen.end());
    std::ptrdiff_t i = static_cast<std::ptrdiff_t>(sorted_prefix) - 1;
    std::ptrdiff_t j = static_cast<std::ptrdiff_t>(tailBuf.size()) - 1;
    std::ptrdiff_t k = static_cast<std::ptrdiff_t>(stolen.size()) - 1;
    while (j >= 0) {
        if (i >= 0 && stolen[static_cast<std::size_t>(i)].arrival >
                          tailBuf[static_cast<std::size_t>(j)].arrival) {
            stolen[static_cast<std::size_t>(k--)] =
                stolen[static_cast<std::size_t>(i--)];
        } else {
            stolen[static_cast<std::size_t>(k--)] =
                tailBuf[static_cast<std::size_t>(j--)];
        }
    }
    if (perf) {
        perf->allocations += 1;
        perf->bytesSorted += static_cast<long long>(
            stolen.size() * sizeof(StolenInterval));
    }
}

} // namespace

void
normalizeTimeline(std::vector<StolenInterval> &stolen, PerfCounters *perf)
{
    if (stolen.size() > 1) {
        // Re-normalization after appending a few intervals to an
        // already-normalized stream (browser stalls, injected faults) is
        // common: detect the sorted prefix and merge the short tail
        // instead of re-sorting everything.
        std::size_t sorted_prefix = 1;
        while (sorted_prefix < stolen.size() &&
               stolen[sorted_prefix].arrival >=
                   stolen[sorted_prefix - 1].arrival)
            ++sorted_prefix;
        const std::size_t tail = stolen.size() - sorted_prefix;
        if (tail == 0) {
            // Already sorted: only the clamp pass below is needed.
        } else if (tail <= 256) {
            SimScratch &scratch = SimScratch::local();
            const auto mid =
                stolen.begin() + static_cast<std::ptrdiff_t>(sorted_prefix);
            std::sort(mid, stolen.end(), byArrival);
            if (perf) {
                perf->bytesSorted += static_cast<long long>(
                    tail * sizeof(StolenInterval));
            }
            mergeSortedTail(stolen, sorted_prefix, scratch, perf);
        } else {
            // Serialized as it is gathered: no clamp pass below.
            bucketSortAndSerialize(stolen, SimScratch::local(), perf);
            return;
        }
    }
    TimeNs busy_until = 0;
    for (auto &interval : stolen) {
        if (interval.arrival < busy_until)
            interval.arrival = busy_until;
        busy_until = interval.end();
    }
}

void
normalizeTimeline(std::vector<StolenInterval> &stolen)
{
    normalizeTimeline(stolen, nullptr);
}

} // namespace bigfish::sim
