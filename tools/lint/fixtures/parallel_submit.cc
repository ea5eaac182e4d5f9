// Fixture for the executor's task-submission entry point: the parallel
// rule pack (parallel-capture-race, parallel-mutex, parallel-shared-rng,
// parallel-float-accum) covers lambdas passed to a member submit() —
// TaskGroup::submit / StageGraph::submit in the tree — because those
// tasks run concurrently exactly like parallelFor bodies. A task's
// by-value captures are its own copies, like a parallelFor body's
// index parameter, so slots addressed through them are clean.
#include <atomic>
#include <cstddef>
#include <functional>
#include <mutex>
#include <vector>

// Stand-ins matching the tree's executor and RNG shapes.
struct Rng
{
    explicit Rng(unsigned long seed);
    unsigned long next();
};

struct TaskGroup
{
    void submit(long priority, std::function<void()> task);
    void wait();
};

template <typename Fn>
void submit(long priority, Fn &&fn);

// Locks taken inside a helper are outside the task body: clean.
void lockedHelper(std::mutex &m, int *slot);

double
fixtureBody(TaskGroup &group, std::mutex &m, Rng &shared, int *slots,
            double *sums)
{
    double total = 0.0;
    int last = 0;
    std::atomic<int> finished{0};
    for (std::size_t t = 0; t < 4; ++t) {
        group.submit(1, [&, t] {
            last = static_cast<int>(t); // expect-lint: parallel-capture-race
            total += sums[t];           // expect-lint: parallel-float-accum
            std::lock_guard<std::mutex> guard(m); // expect-lint: parallel-mutex
            slots[t] = static_cast<int>(shared.next()); // expect-lint: parallel-shared-rng
        });
        group.submit(2, [slots, sums, t, &finished, &m] {
            slots[t] = 1;   // by-value captured index: clean
            sums[t] += 1.0; // per-task slot: clean
            ++finished;     // atomic counter: clean
            Rng cell(7u + t);
            slots[t] += static_cast<int>(cell.next()); // per-task stream: clean
            lockedHelper(m, &slots[t]);
            // A qualified-type loop counter and a `>>`-closed declaration
            // are task locals: clean.
            for (std::size_t k = 0; k < 2; ++k)
                slots[t] += static_cast<int>(k);
            std::vector<std::vector<int>> nested = {};
            slots[t] += static_cast<int>(nested.size());
        });
    }
    // A free function named submit is not an executor: clean.
    submit(0, [&] { last = 1; });
    group.wait();
    return total + last + finished.load();
}
