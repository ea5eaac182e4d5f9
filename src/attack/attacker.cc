#include "attack/attacker.hh"

#include <algorithm>

#include "base/logging.hh"
#include "sim/engine.hh"

namespace bigfish::attack {

std::string
attackerKindName(AttackerKind kind)
{
    switch (kind) {
      case AttackerKind::LoopCounting:
        return "loop-counting";
      case AttackerKind::SweepCounting:
        return "sweep-counting";
      case AttackerKind::GapTrace:
        return "gap-trace";
    }
    return "unknown";
}

std::vector<double>
iterationCosts(AttackerKind kind, const AttackerParams &params,
               const sim::MachineConfig &machine,
               const sim::RunTimeline &timeline, Rng *rng)
{
    std::vector<double> costs(timeline.iterCostFactor.size(), 0.0);
    const double lines = static_cast<double>(machine.llcLines());
    for (std::size_t step = 0; step < costs.size(); ++step) {
        const double factor = timeline.iterCostFactor[step];
        switch (kind) {
          case AttackerKind::LoopCounting:
            costs[step] = params.loopIterNs * factor;
            break;
          case AttackerKind::SweepCounting: {
            // One iteration sweeps the whole LLC-sized buffer: resident
            // lines hit, victim-evicted lines miss to DRAM.
            const double occ = timeline.occupancy[step] *
                               params.sweepObservedOccupancy;
            const double sweep = lines * machine.sweepHitNsPerLine +
                                 occ * lines * machine.sweepMissExtraNsPerLine;
            // Memory-system variance of the sweeping loop itself.
            const double mem_noise =
                rng != nullptr ? rng->lognormal(1.0, params.sweepCostSigma)
                               : 1.0;
            costs[step] =
                (sweep + params.sweepOverheadNs) * factor * mem_noise;
            break;
          }
          case AttackerKind::GapTrace:
            panic("the gap-trace attacker runs no counting loop");
        }
        panicIf(costs[step] <= 0.0, "non-positive iteration cost");
    }
    return costs;
}

Result<Trace>
collectTrace(AttackerKind kind, const AttackerParams &params,
             const sim::MachineConfig &machine,
             const sim::RunTimeline &timeline, timers::TimerModel &timer,
             TimeNs period, std::uint64_t noise_seed)
{
    if (period <= 0)
        return Status(
            invalidArgumentError("attacker period must be positive"));
    if (kind == AttackerKind::GapTrace)
        return collectGapTrace(timeline, period);
    Trace trace;
    trace.period = period;
    trace.attacker = attackerKindName(kind);

    Rng noise(mix64(noise_seed) ^ 0xa77acbeULL);
    sim::ExecutionEngine engine(
        timeline, iterationCosts(kind, params, machine, timeline, &noise));

    sim::PeriodResult result;
    // Reserve assuming periods roughly match P (fuzzed timers may differ).
    const std::size_t expected_periods =
        static_cast<std::size_t>(timeline.duration / period + 1);
    trace.counts.reserve(expected_periods);
    trace.wallTimes.reserve(expected_periods);
    // Resolve the timer's concrete type once per trace so the period
    // loop instantiates the engine's devirtualized fast path — observe()
    // runs tens of millions of times inside runPeriod. Unrecognized
    // models (the randomized defense's decorators, test fakes) take the
    // generic instantiation, which returns identical results.
    const auto measure = [&](auto &t) {
        while (engine.runPeriod(t, period, result)) {
            trace.counts.push_back(static_cast<double>(result.iterations));
            trace.wallTimes.push_back(result.wallTime);
        }
    };
    if (auto *jittered = dynamic_cast<timers::JitteredTimer *>(&timer))
        measure(*jittered);
    else if (auto *quantized =
                 dynamic_cast<timers::QuantizedTimer *>(&timer))
        measure(*quantized);
    else if (auto *precise = dynamic_cast<timers::PreciseTimer *>(&timer))
        measure(*precise);
    else if (auto *randomized =
                 dynamic_cast<timers::RandomizedTimer *>(&timer))
        measure(*randomized);
    else
        measure(timer);
    return trace;
}

Trace
collectTraceOrDie(AttackerKind kind, const AttackerParams &params,
                  const sim::MachineConfig &machine,
                  const sim::RunTimeline &timeline,
                  timers::TimerModel &timer, TimeNs period,
                  std::uint64_t noise_seed)
{
    return collectTrace(kind, params, machine, timeline, timer, period,
                        noise_seed)
        // This *is* the OrDie wrapper's implementation; callers opted
        // into abort-on-error by picking the ...OrDie entry point.
        // bigfish-lint: allow(ordie-outside-binary)
        .valueOrDie();
}

Result<Trace>
collectGapTrace(const sim::RunTimeline &timeline, TimeNs period,
                TimeNs poll_cost_ns, TimeNs threshold)
{
    if (period <= 0)
        return Status(
            invalidArgumentError("gap-trace period must be positive"));
    if (poll_cost_ns <= 0)
        return Status(invalidArgumentError("poll cost must be positive"));
    Trace trace;
    trace.period = period;
    trace.attacker = attackerKindName(AttackerKind::GapTrace);
    const std::size_t bins =
        static_cast<std::size_t>((timeline.duration + period - 1) / period);
    trace.counts.assign(bins, 0.0);
    trace.wallTimes.assign(bins, period);

    // Between stolen intervals consecutive monotonic readings differ by
    // exactly one poll, so each observable jump corresponds to a span of
    // stolen time (spans closer together than one poll merge, exactly as
    // in ktrace::GapDetector). The jump's length is charged to the bins
    // it overlaps.
    const auto &stolen = timeline.stolen;
    std::size_t i = 0;
    while (i < stolen.size()) {
        const TimeNs gap_start = stolen[i].arrival;
        TimeNs gap_end = stolen[i].end();
        std::size_t j = i + 1;
        while (j < stolen.size() &&
               stolen[j].arrival - gap_end < poll_cost_ns) {
            gap_end = stolen[j].end();
            ++j;
        }
        if ((gap_end - gap_start) + poll_cost_ns >= threshold) {
            TimeNs t = gap_start;
            while (t < gap_end) {
                const std::size_t bin =
                    std::min(static_cast<std::size_t>(t / period),
                             bins - 1);
                const TimeNs bin_end =
                    (static_cast<TimeNs>(bin) + 1) * period;
                const TimeNs slice = std::min(gap_end, bin_end) - t;
                trace.counts[bin] += static_cast<double>(slice);
                t += slice;
            }
        }
        i = j;
    }
    return trace;
}

Trace
collectGapTraceOrDie(const sim::RunTimeline &timeline, TimeNs period,
                     TimeNs poll_cost_ns, TimeNs threshold)
{
    return collectGapTrace(timeline, period, poll_cost_ns, threshold)
        // OrDie wrapper implementation: abort-on-error is the contract.
        // bigfish-lint: allow(ordie-outside-binary)
        .valueOrDie();
}

} // namespace bigfish::attack
