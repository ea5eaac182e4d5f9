#include "core/stage.hh"

#include <algorithm>
#include <string>
#include <utility>

#include "base/hash.hh"
#include "base/logging.hh"
#include "base/rng.hh"

namespace bigfish::core {

const char *
stageCacheStateName(StageCacheState state)
{
    switch (state) {
    case StageCacheState::Disabled:
        return "disabled";
    case StageCacheState::Uncached:
        return "uncached";
    case StageCacheState::Miss:
        return "miss";
    case StageCacheState::Hit:
        return "hit";
    case StageCacheState::Stored:
        return "stored";
    case StageCacheState::StoreFailed:
        return "store-failed";
    case StageCacheState::Skipped:
        return "skipped";
    }
    return "unknown";
}

double
stageClockSeconds()
{
    // bigfish-lint: allow(stage-timing)
    static const Stopwatch origin;
    return origin.seconds();
}

std::uint64_t
stageFingerprint(std::string_view name, std::string_view canon,
                 std::span<const std::uint64_t> upstream)
{
    std::string text = "stage=";
    text += name;
    text += '\n';
    text += canon;
    std::uint64_t hash = mix64(fnv64(text) ^ 0x9d4c'72ab'51e8'3f06ULL);
    for (const std::uint64_t up : upstream)
        hash = mix64(hash ^ up);
    return hash;
}

std::size_t
StageGraph::declare(std::string name, std::string phase,
                    std::string_view canon,
                    std::span<const std::size_t> upstream)
{
    std::vector<std::uint64_t> upstream_fps;
    upstream_fps.reserve(upstream.size());
    for (const std::size_t id : upstream)
        upstream_fps.push_back(reports_[id].fingerprint);
    StageReport report;
    report.fingerprint = stageFingerprint(name, canon, upstream_fps);
    report.name = std::move(name);
    report.phase = std::move(phase);
    reports_.push_back(std::move(report));
    const std::size_t id = reports_.size() - 1;
    nodes_.emplace_back();
    nodes_[id].upstreamLeft = upstream.size();
    for (const std::size_t up : upstream)
        nodes_[up].downstream.push_back(id);
    return id;
}

void
StageGraph::after(std::size_t first, std::size_t then)
{
    nodes_[first].followers.push_back(then);
    ++nodes_[then].upstreamLeft;
}

void
StageGraph::charge(std::size_t id, double start, double cpu_start)
{
    const double cpu = threadCpuSeconds() - cpu_start;
    const double end = stageClockSeconds();
    std::lock_guard<std::mutex> lock(chargeMutex_);
    StageReport &report = reports_[id];
    if (report.worker < 0) {
        report.worker = currentWorkerIndex();
        report.startSeconds = start;
        report.endSeconds = end;
    } else {
        report.startSeconds = std::min(report.startSeconds, start);
        report.endSeconds = std::max(report.endSeconds, end);
    }
    report.cpuSeconds += cpu;
    report.wallSeconds = report.endSeconds - report.startSeconds;
    if (report.cache == StageCacheState::Skipped)
        report.cache = StageCacheState::Uncached;
}

void
StageGraph::submit(std::size_t id, std::int64_t priority, Work work,
                   bool pinned)
{
    std::lock_guard<std::mutex> lock(execMutex_);
    Node &node = nodes_[id];
    panicIf(node.done, "work submitted to finished stage " +
                           reports_[id].name);
    if (node.ready)
        enqueueLocked(id, priority, std::move(work), pinned);
    else
        node.waiting.push_back({priority, std::move(work), pinned});
}

void
StageGraph::enqueueLocked(std::size_t id, std::int64_t priority, Work work,
                          bool pinned)
{
    ++nodes_[id].outstanding;
    auto task = [this, id, work = std::move(work)] {
        try {
            finishItem(id, work(), nullptr);
        } catch (...) {
            finishItem(id,
                       dataError("stage " + reports_[id].name +
                                 " threw an exception"),
                       std::current_exception());
        }
    };
    if (pinned)
        group_->submitToWaiter(priority, std::move(task));
    else
        group_->submit(priority, std::move(task));
}

void
StageGraph::finishItem(std::size_t id, Status status,
                       std::exception_ptr error)
{
    std::lock_guard<std::mutex> lock(execMutex_);
    Node &node = nodes_[id];
    if (error && !error_)
        error_ = error;
    if (!status.isOk() && node.status.isOk())
        node.status = std::move(status);
    if (--node.outstanding == 0)
        completeLocked(id);
}

void
StageGraph::readyLocked(std::size_t id)
{
    Node &node = nodes_[id];
    node.ready = true;
    std::vector<Node::Item> waiting = std::exchange(node.waiting, {});
    if (node.cancelled || waiting.empty()) {
        completeLocked(id);
        return;
    }
    for (Node::Item &item : waiting)
        enqueueLocked(id, item.priority, std::move(item.work), item.pinned);
}

void
StageGraph::completeLocked(std::size_t id)
{
    Node &node = nodes_[id];
    node.done = true;
    const bool failed = node.cancelled || !node.status.isOk();
    for (const std::size_t down : node.downstream) {
        Node &next = nodes_[down];
        next.cancelled = next.cancelled || failed;
        if (--next.upstreamLeft == 0)
            readyLocked(down);
    }
    for (const std::size_t follower : node.followers)
        if (--nodes_[follower].upstreamLeft == 0)
            readyLocked(follower);
}

void
StageGraph::execute(ThreadPool &pool)
{
    TaskGroup group(pool);
    {
        std::lock_guard<std::mutex> lock(execMutex_);
        group_ = &group;
        for (std::size_t id = 0; id < nodes_.size(); ++id)
            if (!nodes_[id].ready && nodes_[id].upstreamLeft == 0)
                readyLocked(id);
    }
    // Items catch their own exceptions, so the group drains cleanly.
    group.wait();
    std::lock_guard<std::mutex> lock(execMutex_);
    group_ = nullptr;
    if (error_)
        std::rethrow_exception(std::exchange(error_, nullptr));
}

} // namespace bigfish::core
