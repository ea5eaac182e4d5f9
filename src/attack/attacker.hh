/**
 * @file
 * The two attackers of Figure 2.
 *
 * Both share the same outer structure: measure how many inner-loop
 * iterations complete per observed period P. They differ only in the
 * inner loop body:
 *
 *  - LoopCountingAttacker (Figure 2b, this paper's attack): the body is
 *    counter++ plus a timer read. Its per-iteration cost is a small
 *    constant scaled by the machine's frequency factor; roughly 27,000
 *    iterations complete per idle 5 ms period.
 *
 *  - SweepCountingAttacker (Figure 2a, Shusterman et al.'s cache-
 *    occupancy attack): the body additionally touches every line of an
 *    LLC-sized buffer, so its per-iteration cost is dominated by how
 *    many of those lines the victim evicted — it depends on the victim's
 *    cache occupancy, and only ~32 sweeps complete per idle 5 ms period.
 *
 * Both are executed by the same closed-form ExecutionEngine, so the only
 * differences between their traces are (a) the iteration-cost model and
 * (b) the counter's dynamic range — exactly the comparison the paper
 * makes.
 *
 * AttackerKind also names the gap-trace attacker of Section 5.2
 * (collectGapTrace()), so the collector runs it over the same shared
 * timeline as the two counting attackers.
 */

#ifndef BF_ATTACK_ATTACKER_HH
#define BF_ATTACK_ATTACKER_HH

#include <memory>
#include <string>
#include <vector>

#include "attack/trace.hh"
#include "base/result.hh"
#include "base/rng.hh"
#include "sim/machine.hh"
#include "sim/run_timeline.hh"
#include "timers/timer.hh"

namespace bigfish::attack {

/** Which attacker loop body to run. */
enum class AttackerKind
{
    LoopCounting,  ///< This paper's attack: no memory accesses.
    SweepCounting, ///< Shusterman et al.'s cache-occupancy attack.
    GapTrace,      ///< Section 5.2's stolen-time trace (collectGapTrace()).
};

/** Name for reports ("loop-counting" / "sweep-counting" / "gap-trace"). */
std::string attackerKindName(AttackerKind kind);

/** Cost parameters of the attacker inner loops. */
struct AttackerParams
{
    /**
     * CPU cost of one loop-counting iteration (counter++ plus a
     * performance.now() read through the browser bindings).
     */
    double loopIterNs = 185.0;
    /** Loop overhead per sweep iteration (time read + loop control). */
    double sweepOverheadNs = 300.0;
    /**
     * Fraction of the victim's occupancy the sweeping buffer actually
     * observes: each attacker sweep refills the whole LLC with its own
     * buffer, so only lines the victim re-touched since the previous
     * sweep (~150 us earlier) appear as misses.
     */
    double sweepObservedOccupancy = 0.12;
    /**
     * Per-step lognormal sigma on the sweep iteration cost: DRAM bank
     * conflicts, prefetcher behaviour and page-walk variance make the
     * memory-bound sweep loop inherently noisier than the pure
     * register loop. This is the modeled mechanism behind the paper's
     * finding that the sweep's "extensive memory accesses ... actually
     * inhibit its performance".
     */
    double sweepCostSigma = 0.08;
};

/**
 * Runs one attacker over one synthesized timeline and returns the trace.
 * GapTrace dispatches to collectGapTrace() with its default poll cost
 * and threshold; it reads no timer and draws no noise.
 *
 * @param kind Which inner loop body to run.
 * @param params Iteration cost parameters.
 * @param machine The machine (provides LLC geometry for the sweeper).
 * @param timeline The schedule the attacker's core experiences.
 * @param timer The attacker's clock (browser-shaped or defended).
 * @param period The period length P.
 * @param noise_seed Seed for attacker-side cost noise (memory-system
 *                   variance of the sweeping loop).
 * @return The collected trace (counts and per-period wall times), or an
 *         InvalidArgument error for an unusable period.
 */
[[nodiscard]] Result<Trace> collectTrace(AttackerKind kind, const AttackerParams &params,
                           const sim::MachineConfig &machine,
                           const sim::RunTimeline &timeline,
                           timers::TimerModel &timer, TimeNs period,
                           std::uint64_t noise_seed = 0);

/** collectTrace() that fatal()s on failure (binary boundaries only). */
Trace collectTraceOrDie(AttackerKind kind, const AttackerParams &params,
                        const sim::MachineConfig &machine,
                        const sim::RunTimeline &timeline,
                        timers::TimerModel &timer, TimeNs period,
                        std::uint64_t noise_seed = 0);

/**
 * The per-activity-step iteration cost vector an attacker kind uses on a
 * given timeline (exposed for tests and the micro benchmarks).
 *
 * @param rng Optional attacker-side cost-noise stream; pass nullptr for
 *            the deterministic costs.
 */
std::vector<double> iterationCosts(AttackerKind kind,
                                   const AttackerParams &params,
                                   const sim::MachineConfig &machine,
                                   const sim::RunTimeline &timeline,
                                   Rng *rng = nullptr);

/**
 * The paper's third attacker variant (Section 5.2): a native process
 * that spins reading CLOCK_MONOTONIC and records, per period P, the
 * total time lost to execution gaps. Where the counting attackers
 * measure surviving throughput, this one measures the stolen time
 * directly; the two are complementary views of the same side channel
 * ("our traces and the trace of interrupt-handler activity are
 * generated using different attack code").
 *
 * @param timeline The schedule the attacker's core experiences.
 * @param period Trace bin width P.
 * @param poll_cost_ns Cost of one monotonic-clock read (vDSO, ~30 ns).
 * @param threshold Smallest observed jump recorded as lost time.
 * @return A trace whose counts are *nanoseconds lost per period*, or an
 *         InvalidArgument error for unusable period/poll parameters.
 */
[[nodiscard]] Result<Trace> collectGapTrace(const sim::RunTimeline &timeline,
                              TimeNs period, TimeNs poll_cost_ns = 30,
                              TimeNs threshold = 100);

/** collectGapTrace() that fatal()s on failure (binary boundaries only). */
Trace collectGapTraceOrDie(const sim::RunTimeline &timeline, TimeNs period,
                           TimeNs poll_cost_ns = 30,
                           TimeNs threshold = 100);

} // namespace bigfish::attack

#endif // BF_ATTACK_ATTACKER_HH
