// thread_pool.hpp — a small fixed-size thread pool for data-parallel loops.
//
// The performance-critical kernels in this library (blocked max-plus matrix
// products, per-model benchmark sweeps) are all
// embarrassingly parallel loops over independent chunks, so the pool is
// deliberately work-stealing-free: parallel_for hands out contiguous index
// chunks from one shared atomic cursor and every participant (workers and
// the calling thread) pulls chunks until the range is exhausted.
//
// Beyond the loops, the pool also accepts detached one-shot tasks
// (submit), which is what `sdfred serve` dispatches requests onto: a task
// runs once on some worker, may itself call parallel_for (the nested call
// participates like any other caller), and drain() lets an owner wait for
// every submitted task to finish without destroying the pool — the quiesce
// step of a clean server shutdown.
//
// Sizing: the global pool reads SDFRED_THREADS once at first use; unset,
// empty, zero or unparsable values fall back to hardware_concurrency().
// A pool of size 1 never spawns threads and runs every loop inline on the
// caller, so single-core machines and SDFRED_THREADS=1 runs stay free of
// synchronisation overhead (and of false TSan positives in client code).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sdf {

/// A fixed-size pool executing chunked parallel-for loops.  All methods are
/// safe to call from multiple threads; nested parallel_for calls (from
/// inside a loop body) degrade to inline execution instead of deadlocking.
class ThreadPool {
public:
    /// `threads` is the total parallelism including the calling thread, so
    /// size() == 1 means "no worker threads, run inline".  0 is clamped to 1.
    explicit ThreadPool(std::size_t threads);

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;
    ~ThreadPool();

    /// Total parallelism (worker threads + the calling thread).
    [[nodiscard]] std::size_t size() const { return size_; }

    /// Calls body(i) for every i in [begin, end), distributing contiguous
    /// chunks of at least `grain` indices over the pool.  Blocks until every
    /// index is done.  The first exception thrown by any body is rethrown on
    /// the caller after the loop has drained.
    void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                      const std::function<void(std::size_t)>& body);

    /// Enqueues a one-shot task to run on some worker thread and returns
    /// immediately.  Tasks run concurrently with each other and with
    /// parallel_for loops; a task may itself call parallel_for.  Tasks must
    /// not throw (an escaping exception terminates the process, like
    /// std::thread) and must not call drain() on their own pool.  On a
    /// single-lane pool (size() == 1, no workers) the task runs inline,
    /// synchronously, on the caller.
    void submit(std::function<void()> task);

    /// Blocks until every task submitted so far has finished (queue empty
    /// and no task mid-execution).  Does not stop the pool: new work may be
    /// submitted afterwards.  This is the quiesce step of a clean server
    /// shutdown — wait for in-flight requests without destroying the
    /// workers.  Must not be called from inside a task on the same pool.
    void drain();

    /// Tasks currently queued or executing; a server's queue-depth gauge.
    [[nodiscard]] std::size_t pending_tasks() const;

private:
    struct Loop;

    void worker_main();
    static void run_chunks(Loop& loop);

    std::size_t size_ = 1;
    std::vector<std::thread> workers_;

    mutable std::mutex mutex_;
    std::condition_variable wake_;      // workers wait for a loop, a task or shutdown
    std::condition_variable finished_;  // callers wait for loops/tasks to drain
    std::shared_ptr<Loop> current_;     // loop being executed, if any
    std::deque<std::function<void()>> tasks_;  // submitted, not yet started
    std::size_t running_tasks_ = 0;     // started, not yet finished
    bool shutdown_ = false;
};

/// The process-wide pool, sized from SDFRED_THREADS (default:
/// hardware_concurrency).  Constructed on first use.
ThreadPool& global_thread_pool();

/// Chunked parallel loop on the global pool.  `grain` is the minimum number
/// of indices per chunk; pass the per-index cost's inverse order of
/// magnitude (large grain for cheap bodies).
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t)>& body);

/// Propagation of a caller-side thread-local context into pool workers.
/// `capture` runs on the calling thread when a loop is submitted; workers
/// run `install(context)` before executing chunks of that loop and
/// `uninstall(context)` after (also on the error path).  The pool itself
/// knows nothing about the context's meaning — the robust layer uses this
/// to extend its per-thread Governor over parallel loops without the base
/// library depending on it.  All three hooks must be set together.
struct ParallelContextHooks {
    void* (*capture)() = nullptr;
    void (*install)(void* context) = nullptr;
    void (*uninstall)(void* context) = nullptr;
};

/// Registers the process-wide context hooks.  Call at most once, before or
/// during the first governed computation; loops submitted afterwards carry
/// the captured context.
void set_parallel_context_hooks(const ParallelContextHooks& hooks);

}  // namespace sdf
