#include "core/artifact.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "base/atomic_file.hh"
#include "base/logging.hh"
#include "base/table.hh"
#include "spec/spec.hh"

namespace bigfish::core {

namespace {

std::string
quoteString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    out.push_back('"');
    return out;
}

std::string
formatDouble(const char *fmt, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), fmt, v);
    return buf;
}

std::string
hex16(std::uint64_t value)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
    return buf;
}

} // namespace

RunArtifact::RunArtifact(std::string experiment, spec::RunSpec spec)
    : experiment_(std::move(experiment)), spec_(std::move(spec)),
      origin_(stageClockSeconds())
{
}

RunArtifact::PhaseIndex
RunArtifact::phaseIndex(const std::string &phase)
{
    if (phase == "collect")
        return kCollect;
    if (phase == "featurize")
        return kFeaturize;
    if (phase == "train")
        return kTrain;
    if (phase == "eval")
        return kEval;
    panic("unknown experiment phase: " + phase);
}

double
RunArtifact::phaseWall(PhaseIndex index) const
{
    std::vector<std::pair<double, double>> spans = phases_[index].intervals;
    std::sort(spans.begin(), spans.end());
    double total = 0.0;
    double lo = 0.0, hi = 0.0;
    bool open = false;
    for (const auto &[start, end] : spans) {
        if (open && start <= hi) {
            hi = std::max(hi, end);
            continue;
        }
        if (open)
            total += hi - lo;
        lo = start;
        hi = end;
        open = true;
    }
    if (open)
        total += hi - lo;
    return total;
}

double
RunArtifact::utilization() const
{
    if (wallSeconds_ <= 0.0 || threads_ <= 0)
        return 0.0;
    return cpuSeconds_ / (wallSeconds_ * threads_);
}

void
RunArtifact::addResult(const std::string &label,
                       const FingerprintResult &result)
{
    // The per-stage table is the source of truth; the phase buckets
    // are a rollup reduced from it. Skipped stages cost nothing and
    // roll up as zero.
    for (const StageReport &report : result.stages) {
        StageReport labeled = report;
        labeled.name = label + "/" + report.name;
        Phase &bucket = phases_[phaseIndex(report.phase)];
        bucket.cpu += report.cpuSeconds;
        if (report.worker >= 0) {
            labeled.startSeconds -= origin_;
            labeled.endSeconds -= origin_;
            bucket.intervals.emplace_back(labeled.startSeconds,
                                          labeled.endSeconds);
        }
        stages_.push_back(std::move(labeled));
    }
    collectedTraces_ += result.collectedTraces;
    droppedTraces_ += result.droppedTraces;
    addMetric(label + "_top1", result.closedWorld.top1Mean);
    if (result.hasOpenWorld)
        addMetric(label + "_open_combined",
                  result.openWorld.openWorld.combinedAccuracy);
}

void
RunArtifact::addMetric(const std::string &name, double value)
{
    metrics_.emplace_back(name, value);
}

void
RunArtifact::addTraceAccounting(std::size_t collected, std::size_t dropped)
{
    collectedTraces_ += collected;
    droppedTraces_ += dropped;
}

void
RunArtifact::setSeedProvenance(SeedProvenance provenance)
{
    provenance_ = std::move(provenance);
}

void
RunArtifact::setExpected(std::vector<ExpectedValue> expected)
{
    expected_ = std::move(expected);
}

std::optional<double>
RunArtifact::findMetric(const std::string &name) const
{
    for (const auto &[metric, value] : metrics_)
        if (metric == name)
            return value;
    return std::nullopt;
}

std::string
RunArtifact::explainText() const
{
    // sim_* columns attribute where cold time goes: stages that perform
    // no simulation (and cache replays) report zeros.
    Table table({"stage", "phase", "fingerprint", "cache", "cpu_s",
                 "wall_s", "items", "dropped", "sim_events", "sim_irqs",
                 "sim_allocs", "sim_MB_sorted", "sim_events_per_s",
                 "start_s", "end_s", "worker"});
    for (const StageReport &report : stages_) {
        const double events_per_s =
            report.cpuSeconds > 0.0
                ? static_cast<double>(report.sim.eventsSimulated) /
                      report.cpuSeconds
                : 0.0;
        table.addRow({report.name, report.phase, hex16(report.fingerprint),
                      stageCacheStateName(report.cache),
                      formatDouble("%.3f", report.cpuSeconds),
                      formatDouble("%.3f", report.wallSeconds),
                      std::to_string(report.items),
                      std::to_string(report.dropped),
                      std::to_string(report.sim.eventsSimulated),
                      std::to_string(report.sim.interruptsSynthesized),
                      std::to_string(report.sim.allocations),
                      formatDouble("%.1f",
                                   static_cast<double>(
                                       report.sim.bytesSorted) /
                                       (1024.0 * 1024.0)),
                      formatDouble("%.0f", events_per_s),
                      formatDouble("%.3f", report.startSeconds),
                      formatDouble("%.3f", report.endSeconds),
                      report.worker < 0 ? std::string("-")
                                        : std::to_string(report.worker)});
    }
    return table.render() +
           "run: wall " + formatDouble("%.3f", wallSeconds_) + " s, cpu " +
           formatDouble("%.3f", cpuSeconds_) + " s, threads " +
           std::to_string(threads_) + ", utilization " +
           formatDouble("%.3f", utilization()) + ", peak RSS " +
           formatDouble("%.1f", peakRssMb_) + " MB, minor faults " +
           std::to_string(minorFaults_) + "\n";
}

std::string
RunArtifact::toJson() const
{
    std::string out = "{\n";
    out += "  \"schemaVersion\": " +
           std::to_string(spec::kArtifactSchemaVersion) + ",\n";
    out += "  \"experiment\": " + quoteString(experiment_) + ",\n";
    out += "  \"threads\": " + std::to_string(threads_) + ",\n";
    out += "  \"spec\": " + spec_.paramsJson("  ") + ",\n";
    out += "  \"seed_provenance\": {\"masterSeed\": " +
           std::to_string(provenance_.masterSeed) +
           ", \"catalogSeed\": " + std::to_string(provenance_.catalogSeed) +
           ", \"derivation\": " + quoteString(provenance_.derivation) +
           "},\n";
    out += "  \"expected\": {";
    bool first = true;
    for (const ExpectedValue &e : expected_) {
        if (e.name.empty())
            continue;
        out += first ? "\n" : ",\n";
        first = false;
        out += "    " + quoteString(e.name) + ": " +
               formatDouble("%.6f", e.value);
    }
    out += first ? "},\n" : "\n  },\n";
    out += "  \"traces\": {\"collected\": " +
           std::to_string(collectedTraces_) +
           ", \"dropped\": " + std::to_string(droppedTraces_) + "},\n";
    // The run's timing and footprint share one line, so the Seconds-line
    // convention filters utilization, peak RSS and page faults out of
    // bit-for-bit artifact diffs too.
    out += "  \"wallSeconds\": " + formatDouble("%.3f", wallSeconds_) +
           ", \"cpuSeconds\": " + formatDouble("%.3f", cpuSeconds_) +
           ", \"utilization\": " + formatDouble("%.3f", utilization()) +
           ", \"peakRssMb\": " + formatDouble("%.1f", peakRssMb_) +
           ", \"minorFaults\": " + std::to_string(minorFaults_) + ",\n";
    out += "  \"phases\": {\"collectCpuSeconds\": " +
           formatDouble("%.3f", collectCpuSeconds()) +
           ", \"collectWallSeconds\": " +
           formatDouble("%.3f", collectWallSeconds()) +
           ", \"featurizeCpuSeconds\": " +
           formatDouble("%.3f", featurizeCpuSeconds()) +
           ", \"featurizeWallSeconds\": " +
           formatDouble("%.3f", featurizeWallSeconds()) +
           ", \"trainCpuSeconds\": " +
           formatDouble("%.3f", trainCpuSeconds()) +
           ", \"trainWallSeconds\": " +
           formatDouble("%.3f", trainWallSeconds()) +
           ", \"evalCpuSeconds\": " +
           formatDouble("%.3f", evalCpuSeconds()) +
           ", \"evalWallSeconds\": " +
           formatDouble("%.3f", evalWallSeconds()) + "},\n";
    // One line per stage, each carrying the *Seconds keys: timing, the
    // stage's place on the timeline (start/end offsets, worker) and
    // cache provenance legitimately differ between cold and warm runs,
    // and the Seconds-line convention is what lets tooling diff
    // everything else bit-for-bit. The schema-v3 sim* counters ride on
    // the same line: the counts themselves are deterministic, but cache
    // provenance makes them cold/warm-dependent (replays report zero),
    // so they belong with the timing keys, not the diffable payload.
    out += "  \"stages\": [";
    bool first_stage = true;
    for (const StageReport &s : stages_) {
        const double events_per_s =
            s.cpuSeconds > 0.0
                ? static_cast<double>(s.sim.eventsSimulated) / s.cpuSeconds
                : 0.0;
        out += first_stage ? "\n" : ",\n";
        first_stage = false;
        out += "    {\"name\": " + quoteString(s.name) +
               ", \"phase\": " + quoteString(s.phase) +
               ", \"fingerprint\": " + quoteString(hex16(s.fingerprint)) +
               ", \"cache\": " +
               quoteString(stageCacheStateName(s.cache)) +
               ", \"cpuSeconds\": " + formatDouble("%.3f", s.cpuSeconds) +
               ", \"wallSeconds\": " + formatDouble("%.3f", s.wallSeconds) +
               ", \"items\": " + std::to_string(s.items) +
               ", \"dropped\": " + std::to_string(s.dropped) +
               ", \"simEvents\": " +
               std::to_string(s.sim.eventsSimulated) +
               ", \"simInterrupts\": " +
               std::to_string(s.sim.interruptsSynthesized) +
               ", \"simAllocations\": " +
               std::to_string(s.sim.allocations) +
               ", \"simBytesSorted\": " +
               std::to_string(s.sim.bytesSorted) +
               ", \"simEventsPerSec\": " +
               formatDouble("%.0f", events_per_s) +
               ", \"startSeconds\": " + formatDouble("%.3f", s.startSeconds) +
               ", \"endSeconds\": " + formatDouble("%.3f", s.endSeconds) +
               ", \"worker\": " + std::to_string(s.worker) + "}";
    }
    out += first_stage ? "],\n" : "\n  ],\n";
    out += "  \"metrics\": {";
    first = true;
    for (const auto &[name, value] : metrics_) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    " + quoteString(name) + ": " +
               formatDouble("%.6f", value);
    }
    out += first ? "}\n" : "\n  }\n";
    out += "}\n";
    return out;
}

Status
RunArtifact::writeJson(const std::string &path) const
{
    return atomicWriteFile(path, toJson());
}

} // namespace bigfish::core
