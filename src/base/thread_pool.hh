/**
 * @file
 * Deterministic parallel execution: one priority ready-queue executor
 * (ThreadPool + TaskGroup) plus the parallelFor/parallelMap helpers
 * built on it.
 *
 * Design rules that make parallel runs bit-identical to serial ones:
 *
 *  - Work items are *independent* and write only to pre-sized output
 *    slots; the scheduler controls timing, never results. parallelFor
 *    hands out static chunks of the index range, so the arithmetic each
 *    index performs (including floating-point accumulation order) is
 *    the same at any thread count. Task graphs fix every seed and
 *    reduction order when they are declared, not when tasks finish.
 *  - Exactly threadCount() threads execute tasks at any moment: the
 *    pool owns threadCount() - 1 workers and the thread waiting on a
 *    TaskGroup runs queued tasks itself until the group drains. A
 *    waiter with nothing runnable blocks on a condition variable
 *    (no polling, no sleeps). A task that opens a nested region waits
 *    the same way, so nesting never adds a runnable thread and cannot
 *    deadlock.
 *  - With one thread there are no workers at all: every task runs
 *    inline on the waiting caller, highest priority first (FIFO among
 *    equal priorities), which is the exact serial schedule.
 *  - Exceptions thrown by a task are captured, the group drains every
 *    remaining task, and the first exception is rethrown on the
 *    waiting thread, so a failed region cannot wedge or leak work into
 *    the next one.
 *
 * Thread-count policy: the global pool defaults to the BF_THREADS
 * environment variable when set, else the hardware concurrency;
 * setGlobalThreads() (the --threads=N bench flag) overrides both.
 */

#ifndef BF_BASE_THREAD_POOL_HH
#define BF_BASE_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace bigfish {

class TaskGroup;

/** A fixed-size executor with one shared priority ready queue. */
class ThreadPool
{
  public:
    /**
     * @param threads Executing threads; clamped to >= 1. The pool spawns
     *                threads - 1 workers; the waiting caller is the
     *                last one. A pool of 1 spawns no workers at all (the
     *                exact serial path).
     */
    explicit ThreadPool(int threads);

    /** Joins all workers (any queued work is completed first). */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** The number of threads that execute tasks. */
    int threadCount() const { return threads_; }

    /**
     * Runs body(i) for every i in [0, n), statically chunked across the
     * pool. Bodies must only write to disjoint, pre-sized slots; under
     * that contract results are identical at any thread count. The
     * first exception a body throws is rethrown here after every chunk
     * has drained.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body);

    /**
     * Maps fn over [0, n) into a pre-sized result vector (slot i holds
     * fn(i)). Works for non-default-constructible result types.
     */
    template <typename Fn>
    auto
    parallelMap(std::size_t n, Fn &&fn)
        -> std::vector<std::invoke_result_t<Fn &, std::size_t>>
    {
        using T = std::invoke_result_t<Fn &, std::size_t>;
        std::vector<std::optional<T>> slots(n);
        parallelFor(n, [&](std::size_t i) { slots[i].emplace(fn(i)); });
        std::vector<T> out;
        out.reserve(n);
        for (auto &slot : slots)
            out.push_back(std::move(*slot));
        return out;
    }

  private:
    friend class TaskGroup;

    struct Task
    {
        std::int64_t priority = 0;
        /** Submission order: FIFO among equal priorities. */
        std::uint64_t seq = 0;
        TaskGroup *group = nullptr;
        std::function<void()> fn;
    };

    /** Heap order: higher priority first, then earlier submission. */
    struct RunsLater
    {
        bool
        operator()(const Task &a, const Task &b) const
        {
            if (a.priority != b.priority)
                return a.priority < b.priority;
            return a.seq > b.seq;
        }
    };

    using ReadyQueue =
        std::priority_queue<Task, std::vector<Task>, RunsLater>;

    void workerLoop(int index);

    /** Pops the next task of a non-empty @p queue (mutex_ held). */
    static Task pop(ReadyQueue &queue);

    /** Runs @p task on the calling thread and retires it from its
     *  group. Called without mutex_ held. */
    void runTask(Task &task);

    int threads_;
    std::vector<std::thread> workers_;

    std::mutex mutex_;
    /** Signalled when a task is queued, a group drains, or the pool
     *  stops; workers and waiting callers both sleep on it. */
    std::condition_variable wake_;
    ReadyQueue queue_;
    std::uint64_t nextSeq_ = 0;
    bool stopping_ = false;
};

/**
 * A set of tasks on one pool whose completion one thread waits for.
 * Tasks may submit follow-up tasks to their own group; wait() returns
 * once every task, follow-ups included, has finished.
 */
class TaskGroup
{
  public:
    explicit TaskGroup(ThreadPool &pool);

    /** Drains the group (as wait(), but swallowing any exception). */
    ~TaskGroup();

    TaskGroup(const TaskGroup &) = delete;
    TaskGroup &operator=(const TaskGroup &) = delete;

    /**
     * Queues @p task. Higher @p priority runs first; equal priorities
     * run in submission order. Safe from any thread, including from a
     * running task of this group.
     */
    void submit(std::int64_t priority, std::function<void()> task);

    /**
     * submit(), but only the thread in wait() runs @p task (ordered by
     * priority together with the shared queue). For work that should
     * stay on one thread, e.g. to reuse that thread's allocator arena.
     */
    void submitToWaiter(std::int64_t priority, std::function<void()> task);

    /**
     * Runs queued tasks on the calling thread until every task of this
     * group has finished, blocking (never spinning) while the queue is
     * empty and tasks are still running elsewhere. Rethrows the first
     * exception any task threw, after the group has drained.
     */
    void wait();

  private:
    friend class ThreadPool;

    ThreadPool &pool_;
    /** Submitted but not yet finished; guarded by the pool mutex. */
    std::size_t pending_ = 0;
    /** submitToWaiter() tasks; guarded by the pool mutex. */
    ThreadPool::ReadyQueue waiterQueue_;
    std::exception_ptr error_;
};

/**
 * Index of the calling thread within the pool executing it: 0 for a
 * thread that is not a pool worker (the caller that runs tasks while it
 * waits), 1..threadCount()-1 for workers.
 */
int currentWorkerIndex();

/**
 * Thread count the global pool uses when not overridden: BF_THREADS
 * when set to a positive integer, else std::thread::hardware_concurrency.
 */
int defaultThreadCount();

/**
 * The process-wide pool used by the collection/training/kernel hot
 * paths. Created lazily with defaultThreadCount() threads.
 */
ThreadPool &globalPool();

/**
 * Replaces the global pool with one of @p threads workers (<= 0 resets
 * to defaultThreadCount()). Call only between parallel regions — e.g.
 * from flag parsing at startup or test setup.
 */
void setGlobalThreads(int threads);

/** The global pool's thread count. */
int globalThreadCount();

/** globalPool().parallelFor convenience wrapper. */
void parallelFor(std::size_t n,
                 const std::function<void(std::size_t)> &body);

/** globalPool().parallelMap convenience wrapper. */
template <typename Fn>
auto
parallelMap(std::size_t n, Fn &&fn)
{
    return globalPool().parallelMap(n, std::forward<Fn>(fn));
}

} // namespace bigfish

#endif // BF_BASE_THREAD_POOL_HH
