// test_thread_pool — the chunked parallel-for pool under base/.
//
// The pool backs the blocked matrix product, the serve workers and
// the benchmark sweeps, so these tests pin down the contract those callers
// rely on: every index runs exactly once, exceptions propagate to the
// caller after the loop drains, nested loops degrade to inline execution,
// and concurrent callers serialise without deadlock.  Explicit pool sizes
// are used throughout so the tests exercise real worker threads even on a
// single-core host (where the global pool runs everything inline).
#include "base/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace sdf {
namespace {

TEST(ThreadPool, SizeZeroClampsToOne) {
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1u);
}

TEST(ThreadPool, SizeIncludesCaller) {
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
    for (const std::size_t threads : {1u, 2u, 4u}) {
        ThreadPool pool(threads);
        constexpr std::size_t kCount = 10'000;
        std::vector<std::atomic<int>> hits(kCount);
        pool.parallel_for(0, kCount, 7, [&](std::size_t i) { hits[i].fetch_add(1); });
        for (std::size_t i = 0; i < kCount; ++i) {
            ASSERT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
        }
    }
}

TEST(ThreadPool, RespectsHalfOpenRange) {
    ThreadPool pool(3);
    std::mutex mutex;
    std::set<std::size_t> seen;
    pool.parallel_for(5, 25, 4, [&](std::size_t i) {
        const std::lock_guard<std::mutex> lock(mutex);
        seen.insert(i);
    });
    EXPECT_EQ(seen.size(), 20u);
    EXPECT_EQ(*seen.begin(), 5u);
    EXPECT_EQ(*seen.rbegin(), 24u);
}

TEST(ThreadPool, EmptyRangeIsANoOp) {
    ThreadPool pool(2);
    std::atomic<int> calls{0};
    pool.parallel_for(3, 3, 1, [&](std::size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, PropagatesFirstException) {
    ThreadPool pool(4);
    std::atomic<int> calls{0};
    EXPECT_THROW(
        pool.parallel_for(0, 1000, 1,
                          [&](std::size_t i) {
                              calls.fetch_add(1);
                              if (i == 17) {
                                  throw std::runtime_error("boom");
                              }
                          }),
        std::runtime_error);
    // The throw drains the cursor: well under the full range runs, and the
    // pool is reusable afterwards.
    std::atomic<int> after{0};
    pool.parallel_for(0, 64, 8, [&](std::size_t) { after.fetch_add(1); });
    EXPECT_EQ(after.load(), 64);
}

TEST(ThreadPool, NestedLoopsRunInline) {
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(64 * 64);
    pool.parallel_for(0, 64, 1, [&](std::size_t outer) {
        // A nested call on the same pool must not deadlock waiting for the
        // outer loop's slot; it runs inline on this thread.
        pool.parallel_for(0, 64, 1, [&](std::size_t inner) {
            hits[outer * 64 + inner].fetch_add(1);
        });
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "slot " << i;
    }
}

TEST(ThreadPool, ConcurrentCallersSerialiseWithoutDeadlock) {
    ThreadPool pool(3);
    constexpr std::size_t kCallers = 4;
    constexpr std::size_t kCount = 2'000;
    std::vector<std::atomic<int>> hits(kCallers * kCount);
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (std::size_t c = 0; c < kCallers; ++c) {
        callers.emplace_back([&, c] {
            pool.parallel_for(0, kCount, 16, [&, c](std::size_t i) {
                hits[c * kCount + i].fetch_add(1);
            });
        });
    }
    for (std::thread& t : callers) {
        t.join();
    }
    for (std::size_t i = 0; i < hits.size(); ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "slot " << i;
    }
}

TEST(ThreadPool, LargeGrainRunsInlineOnCaller) {
    ThreadPool pool(4);
    const std::thread::id caller = std::this_thread::get_id();
    std::mutex mutex;
    std::set<std::thread::id> ids;
    // range <= grain → the inline fast path, no worker hand-off.
    pool.parallel_for(0, 8, 8, [&](std::size_t) {
        const std::lock_guard<std::mutex> lock(mutex);
        ids.insert(std::this_thread::get_id());
    });
    ASSERT_EQ(ids.size(), 1u);
    EXPECT_EQ(*ids.begin(), caller);
}

TEST(ThreadPool, SubmittedTasksAllRun) {
    ThreadPool pool(4);
    constexpr std::size_t kTasks = 500;
    std::vector<std::atomic<int>> hits(kTasks);
    for (std::size_t i = 0; i < kTasks; ++i) {
        pool.submit([&hits, i] { hits[i].fetch_add(1); });
    }
    pool.drain();
    for (std::size_t i = 0; i < kTasks; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "task " << i;
    }
}

TEST(ThreadPool, DrainWaitsForInFlightTasks) {
    ThreadPool pool(3);
    std::atomic<int> done{0};
    for (int i = 0; i < 16; ++i) {
        pool.submit([&done] {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            done.fetch_add(1);
        });
    }
    pool.drain();
    // drain() returning means every task finished, not merely dequeued.
    EXPECT_EQ(done.load(), 16);
    EXPECT_EQ(pool.pending_tasks(), 0u);
}

TEST(ThreadPool, DrainOnIdlePoolReturnsImmediately) {
    ThreadPool pool(2);
    pool.drain();  // nothing submitted: must not block
    EXPECT_EQ(pool.pending_tasks(), 0u);
}

TEST(ThreadPool, PoolIsReusableAfterDrain) {
    ThreadPool pool(2);
    std::atomic<int> calls{0};
    pool.submit([&calls] { calls.fetch_add(1); });
    pool.drain();
    pool.submit([&calls] { calls.fetch_add(1); });
    pool.drain();
    EXPECT_EQ(calls.load(), 2);
}

TEST(ThreadPool, SingleLanePoolRunsTasksInline) {
    ThreadPool pool(1);
    const std::thread::id caller = std::this_thread::get_id();
    std::thread::id ran_on;
    pool.submit([&ran_on] { ran_on = std::this_thread::get_id(); });
    // A 1-lane pool has no workers: submit is synchronous on the caller,
    // so the task already ran and drain is a no-op.
    EXPECT_EQ(ran_on, caller);
    pool.drain();
}

TEST(ThreadPool, TasksMayRunParallelForLoops) {
    ThreadPool pool(4);
    constexpr std::size_t kTasks = 8;
    constexpr std::size_t kCount = 256;
    std::vector<std::atomic<int>> hits(kTasks * kCount);
    for (std::size_t t = 0; t < kTasks; ++t) {
        pool.submit([&pool, &hits, t] {
            pool.parallel_for(0, kCount, 16, [&hits, t](std::size_t i) {
                hits[t * kCount + i].fetch_add(1);
            });
        });
    }
    pool.drain();
    for (std::size_t i = 0; i < hits.size(); ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "slot " << i;
    }
}

TEST(ThreadPool, DestructionCompletesQueuedTasks) {
    std::atomic<int> done{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 64; ++i) {
            pool.submit([&done] { done.fetch_add(1); });
        }
        // No drain: the destructor must still run every queued task before
        // retiring the workers.
    }
    EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPool, ConcurrentSubmittersAndDrain) {
    ThreadPool pool(4);
    constexpr std::size_t kSubmitters = 4;
    constexpr std::size_t kPer = 200;
    std::atomic<int> done{0};
    std::vector<std::thread> submitters;
    submitters.reserve(kSubmitters);
    for (std::size_t s = 0; s < kSubmitters; ++s) {
        submitters.emplace_back([&pool, &done] {
            for (std::size_t i = 0; i < kPer; ++i) {
                pool.submit([&done] { done.fetch_add(1); });
            }
        });
    }
    for (std::thread& t : submitters) {
        t.join();
    }
    pool.drain();
    EXPECT_EQ(done.load(), static_cast<int>(kSubmitters * kPer));
}

TEST(ThreadPool, GlobalPoolExistsAndRuns) {
    EXPECT_GE(global_thread_pool().size(), 1u);
    std::atomic<int> sum{0};
    parallel_for(0, 100, 10, [&](std::size_t i) {
        sum.fetch_add(static_cast<int>(i));
    });
    EXPECT_EQ(sum.load(), 4950);
}

}  // namespace
}  // namespace sdf
