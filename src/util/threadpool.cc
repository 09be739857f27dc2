#include "util/threadpool.hh"

#include "util/task.hh"

#include <algorithm>

namespace afsb {

namespace {

/// True on threads owned by any ThreadPool; parallel dispatch from
/// such a thread must run inline (wait() counts the caller itself as
/// active, so re-entrant dispatch would never drain).
thread_local bool tls_pool_worker = false;

} // namespace

bool
ThreadPool::inWorker()
{
    return tls_pool_worker;
}

ThreadPool::ThreadPool(size_t num_threads)
{
    const size_t n = std::max<size_t>(1, num_threads);
    workers_.reserve(n);
    for (size_t i = 0; i < n; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock lock(mutex_);
        stop_ = true;
    }
    taskCv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::unique_lock lock(mutex_);
        tasks_.push(std::move(task));
    }
    taskCv_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock lock(mutex_);
    idleCv_.wait(lock, [this] { return tasks_.empty() && active_ == 0; });
}

void
ThreadPool::parallelFor(size_t n, const std::function<void(size_t)> &fn)
{
    parallelBlocks(n, [&](size_t, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i)
            fn(i);
    });
}

void
ThreadPool::parallelFor(size_t n, size_t grain,
                        const std::function<void(size_t, size_t)> &fn)
{
    if (n == 0)
        return;
    if (grain == 0)
        grain = std::max<size_t>(1, n / (4 * workers_.size()));
    const size_t blocks = (n + grain - 1) / grain;
    // The TaskGroup::inTask() leg is the nested-dispatch guard for
    // task-graph code: a task that calls parallelFor (directly or via
    // a tensor op) must run it inline — dispatching to the pool and
    // blocking in wait() from inside a task could deadlock, since the
    // pool workers may all be parked in participant loops of the
    // caller's own group.
    if (blocks <= 1 || workers_.size() <= 1 || tls_pool_worker
        || TaskGroup::inTask()) {
        fn(0, n);
        return;
    }
    // Work-stealing execution: blocks start spread round-robin across
    // per-runner deques and migrate to idle runners, and the calling
    // thread helps instead of blocking in wait().
    TaskGroup group(this, blocks);
    for (size_t b = 0; b < blocks; ++b) {
        const size_t begin = b * grain;
        const size_t end = std::min(n, begin + grain);
        group.spawn([begin, end, &fn] { fn(begin, end); });
    }
    group.sync();
}

void
ThreadPool::parallelBlocks(
    size_t n, const std::function<void(size_t, size_t, size_t)> &fn)
{
    if (n == 0)
        return;
    if (tls_pool_worker || TaskGroup::inTask()) {
        fn(0, 0, n);
        return;
    }
    const size_t nw = std::min(workers_.size(), n);
    const size_t chunk = (n + nw - 1) / nw;
    for (size_t w = 0; w < nw; ++w) {
        const size_t begin = w * chunk;
        const size_t end = std::min(n, begin + chunk);
        if (begin >= end)
            break;
        submit([=, &fn] { fn(w, begin, end); });
    }
    wait();
}

void
ThreadPool::workerLoop()
{
    tls_pool_worker = true;
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock lock(mutex_);
            taskCv_.wait(lock,
                         [this] { return stop_ || !tasks_.empty(); });
            if (stop_ && tasks_.empty())
                return;
            task = std::move(tasks_.front());
            tasks_.pop();
            ++active_;
        }
        task();
        {
            std::unique_lock lock(mutex_);
            --active_;
            if (tasks_.empty() && active_ == 0)
                idleCv_.notify_all();
        }
    }
}

} // namespace afsb
