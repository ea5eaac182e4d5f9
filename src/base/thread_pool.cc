#include "base/thread_pool.hh"

#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "base/logging.hh"

namespace bigfish {

namespace {

thread_local int tls_worker_index = 0;

/** parallelFor chunks outrank graph tasks, so a region opened inside a
 *  task finishes before its waiter picks up unrelated work. */
constexpr std::int64_t kRegionPriority =
    std::numeric_limits<std::int64_t>::max();

} // namespace

ThreadPool::ThreadPool(int threads) : threads_(threads < 1 ? 1 : threads)
{
    // The waiting caller is one of the executing threads, so the pool
    // owns one worker fewer; a 1-thread pool is the serial path.
    workers_.reserve(static_cast<std::size_t>(threads_ - 1));
    for (int i = 1; i < threads_; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

ThreadPool::Task
ThreadPool::pop(ReadyQueue &queue)
{
    // priority_queue::top() is const; the task is moved out just before
    // pop() discards the moved-from husk.
    Task task = std::move(const_cast<Task &>(queue.top()));
    queue.pop();
    return task;
}

void
ThreadPool::runTask(Task &task)
{
    std::exception_ptr error;
    try {
        task.fn();
    } catch (...) {
        error = std::current_exception();
    }
    // Release the task's captures before the group can observe the
    // completion and its owner return.
    task.fn = nullptr;
    TaskGroup &group = *task.group;
    std::lock_guard<std::mutex> lock(mutex_);
    if (error && !group.error_)
        group.error_ = error;
    if (--group.pending_ == 0)
        wake_.notify_all();
}

void
ThreadPool::workerLoop(int index)
{
    tls_worker_index = index;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty())
            return; // stopping, and every queued task has run
        Task task = pop(queue_);
        lock.unlock();
        runTask(task);
        lock.lock();
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;
    // Serial pool or a single index: the exact serial loop, inline.
    if (threads_ == 1 || n == 1) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    // Static chunking: a few chunks per thread balances uneven work
    // items without dynamic stealing (results never depend on the
    // assignment, only wall-clock does).
    const std::size_t max_chunks =
        static_cast<std::size_t>(threads_) * 4;
    const std::size_t chunks = n < max_chunks ? n : max_chunks;
    const std::size_t base = n / chunks;
    const std::size_t extra = n % chunks;

    TaskGroup group(*this);
    std::size_t lo = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
        const std::size_t hi = lo + base + (c < extra ? 1 : 0);
        group.submit(kRegionPriority, [&body, lo, hi] {
            for (std::size_t i = lo; i < hi; ++i)
                body(i);
        });
        lo = hi;
    }
    group.wait();
}

TaskGroup::TaskGroup(ThreadPool &pool) : pool_(pool) {}

TaskGroup::~TaskGroup()
{
    try {
        wait();
    } catch (...) {
        // An unwaited group's failure has no one left to report to;
        // draining it is what keeps its tasks from outliving it.
    }
}

void
TaskGroup::submit(std::int64_t priority, std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(pool_.mutex_);
        ++pending_;
        pool_.queue_.push(ThreadPool::Task{priority, pool_.nextSeq_++, this,
                                           std::move(task)});
    }
    pool_.wake_.notify_one();
}

void
TaskGroup::submitToWaiter(std::int64_t priority, std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(pool_.mutex_);
        ++pending_;
        waiterQueue_.push(ThreadPool::Task{priority, pool_.nextSeq_++, this,
                                           std::move(task)});
    }
    // The waiter may be asleep among the workers.
    pool_.wake_.notify_all();
}

void
TaskGroup::wait()
{
    std::unique_lock<std::mutex> lock(pool_.mutex_);
    while (pending_ > 0) {
        const bool shared = !pool_.queue_.empty();
        const bool own = !waiterQueue_.empty();
        if (!shared && !own) {
            // Everything left is running on other threads; sleep until
            // one of them queues a follow-up or the group drains.
            pool_.wake_.wait(lock);
            continue;
        }
        const bool pick_own =
            own && (!shared || ThreadPool::RunsLater()(pool_.queue_.top(),
                                                       waiterQueue_.top()));
        ThreadPool::Task task =
            ThreadPool::pop(pick_own ? waiterQueue_ : pool_.queue_);
        lock.unlock();
        pool_.runTask(task);
        lock.lock();
    }
    std::exception_ptr error = std::exchange(error_, nullptr);
    lock.unlock();
    if (error)
        std::rethrow_exception(error);
}

int
currentWorkerIndex()
{
    return tls_worker_index;
}

int
defaultThreadCount()
{
    const char *env = std::getenv("BF_THREADS");
    if (env != nullptr) {
        const long parsed = std::atol(env);
        if (parsed >= 1)
            return static_cast<int>(parsed);
        warnOnce("thread-pool/bad-bf-threads",
                 "ignoring BF_THREADS='" + std::string(env) +
                     "' (want a positive integer)");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

namespace {

std::mutex &
globalPoolMutex()
{
    static std::mutex mutex;
    return mutex;
}

std::unique_ptr<ThreadPool> &
globalPoolSlot()
{
    static std::unique_ptr<ThreadPool> pool;
    return pool;
}

} // namespace

ThreadPool &
globalPool()
{
    std::lock_guard<std::mutex> lock(globalPoolMutex());
    auto &slot = globalPoolSlot();
    if (!slot)
        slot = std::make_unique<ThreadPool>(defaultThreadCount());
    return *slot;
}

void
setGlobalThreads(int threads)
{
    const int count = threads <= 0 ? defaultThreadCount() : threads;
    std::lock_guard<std::mutex> lock(globalPoolMutex());
    auto &slot = globalPoolSlot();
    if (slot && slot->threadCount() == count)
        return;
    slot = std::make_unique<ThreadPool>(count);
}

int
globalThreadCount()
{
    return globalPool().threadCount();
}

void
parallelFor(std::size_t n, const std::function<void(std::size_t)> &body)
{
    globalPool().parallelFor(n, body);
}

} // namespace bigfish
