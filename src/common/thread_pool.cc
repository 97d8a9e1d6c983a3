#include "common/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <string>

#include "common/cancellation.h"

namespace flat {
namespace {

/** >0 while the current thread executes parallel_for iterations. */
thread_local int g_parallel_depth = 0;

struct DepthGuard {
    DepthGuard() { ++g_parallel_depth; }
    ~DepthGuard() { --g_parallel_depth; }
};

/**
 * The process-wide worker pool behind parallel_for: created on first
 * use, grown to the largest helper count ever requested, and leaked on
 * purpose — parked workers hold no locks and touch only the (equally
 * leaked) pool internals, so process teardown is safe while static
 * destruction order stays a non-issue.
 */
ThreadPool&
shared_pool(unsigned helpers)
{
    static std::mutex mutex;
    static ThreadPool* pool = nullptr;
    std::lock_guard<std::mutex> lock(mutex);
    if (pool == nullptr) {
        pool = new ThreadPool(helpers);
    } else {
        pool->grow_to(helpers);
    }
    return *pool;
}

} // namespace

unsigned
default_threads()
{
    if (const char* env = std::getenv("FLAT_THREADS")) {
        try {
            const long parsed = std::stol(env);
            if (parsed > 0) {
                return static_cast<unsigned>(parsed);
            }
        } catch (const std::exception&) {
            // Fall through to the hardware default on garbage input.
        }
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

unsigned
resolve_threads(unsigned requested)
{
    return requested > 0 ? requested : default_threads();
}

ThreadPool::ThreadPool(unsigned workers)
{
    const unsigned count = workers > 0 ? workers : 1;
    workers_.reserve(count);
    for (unsigned i = 0; i < count; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

void
ThreadPool::grow_to(unsigned workers)
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (workers_.size() < workers) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    work_available_.notify_all();
    for (std::thread& worker : workers_) {
        worker.join();
    }
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
    }
    work_available_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    all_idle_.wait(lock,
                   [this] { return queue_.empty() && running_ == 0; });
}

void
ThreadPool::worker_loop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_available_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty()) {
                return; // stopping_ and drained
            }
            task = std::move(queue_.front());
            queue_.pop_front();
            ++running_;
        }
        task(); // tasks must not throw (parallel_for wraps bodies)
        {
            std::unique_lock<std::mutex> lock(mutex_);
            --running_;
            if (queue_.empty() && running_ == 0) {
                all_idle_.notify_all();
            }
        }
    }
}

void
parallel_for(std::size_t n, unsigned threads,
             const std::function<void(std::size_t)>& body,
             std::size_t grain, const CancellationToken* cancel)
{
    if (n == 0) {
        return;
    }
    const std::size_t step = grain > 0 ? grain : 1;
    const std::size_t want =
        std::min<std::size_t>(resolve_threads(threads), n);
    if (want <= 1 || g_parallel_depth > 0) {
        // Serial fallback: one thread requested, or already inside a
        // parallel_for body (nested calls must not spawn recursively).
        DepthGuard guard;
        for (std::size_t i = 0; i < n; ++i) {
            if (cancel != nullptr && cancel->cancelled()) {
                return;
            }
            body(i);
        }
        return;
    }

    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex error_mutex;

    const auto runner = [&] {
        DepthGuard guard;
        while (!failed.load(std::memory_order_relaxed)) {
            if (cancel != nullptr && cancel->cancelled()) {
                break; // stop claiming batches; started ones finish
            }
            const std::size_t begin =
                next.fetch_add(step, std::memory_order_relaxed);
            if (begin >= n) {
                break;
            }
            const std::size_t end = std::min(begin + step, n);
            for (std::size_t i = begin; i < end; ++i) {
                if (failed.load(std::memory_order_relaxed)) {
                    break;
                }
                try {
                    body(i);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(error_mutex);
                    if (!failed.exchange(true)) {
                        error = std::current_exception();
                    }
                }
            }
        }
    };

    // Helpers run on the process-wide shared pool; the calling thread
    // participates too. pool.wait() would also wait on CONCURRENT
    // parallel_for calls' tasks, so each call tracks its own helpers
    // with a stack-local latch: every task only touches the latch
    // under its mutex and the caller returns only after remaining ==
    // 0, which makes the stack storage safe.
    struct Latch {
        std::mutex mutex;
        std::condition_variable done;
        std::size_t remaining;
    } latch;
    const std::size_t helpers = want - 1;
    latch.remaining = helpers;

    ThreadPool& pool = shared_pool(static_cast<unsigned>(helpers));
    for (std::size_t t = 0; t < helpers; ++t) {
        pool.submit([&runner, &latch] {
            runner();
            std::lock_guard<std::mutex> lock(latch.mutex);
            if (--latch.remaining == 0) {
                latch.done.notify_all();
            }
        });
    }
    runner(); // the calling thread participates
    {
        std::unique_lock<std::mutex> lock(latch.mutex);
        latch.done.wait(lock, [&latch] { return latch.remaining == 0; });
    }
    if (error) {
        std::rethrow_exception(error);
    }
}

} // namespace flat
