/**
 * @file
 * Unit tests for the worker pool.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "util/task.hh"
#include "util/threadpool.hh"

namespace afsb {
namespace {

TEST(ThreadPool, RunsAllSubmittedTasks)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ZeroThreadsPromotedToOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1u);
    std::atomic<int> x{0};
    pool.submit([&] { x = 42; });
    pool.wait();
    EXPECT_EQ(x.load(), 42);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    ThreadPool pool(6);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(1000, [&](size_t i) { ++hits[i]; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange)
{
    ThreadPool pool(2);
    bool touched = false;
    pool.parallelFor(0, [&](size_t) { touched = true; });
    EXPECT_FALSE(touched);
}

TEST(ThreadPool, ParallelBlocksPartitionIsContiguousAndComplete)
{
    ThreadPool pool(3);
    std::mutex m;
    std::vector<std::pair<size_t, size_t>> ranges;
    pool.parallelBlocks(100, [&](size_t, size_t b, size_t e) {
        std::lock_guard lock(m);
        ranges.emplace_back(b, e);
    });
    std::sort(ranges.begin(), ranges.end());
    size_t expect = 0;
    for (auto [b, e] : ranges) {
        EXPECT_EQ(b, expect);
        EXPECT_GT(e, b);
        expect = e;
    }
    EXPECT_EQ(expect, 100u);
}

TEST(ThreadPool, WaitIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> sum{0};
    pool.parallelFor(10, [&](size_t i) { sum += static_cast<int>(i); });
    EXPECT_EQ(sum.load(), 45);
    pool.parallelFor(5, [&](size_t i) { sum += static_cast<int>(i); });
    EXPECT_EQ(sum.load(), 55);
}

TEST(ThreadPool, MoreWorkersThanItems)
{
    ThreadPool pool(16);
    std::atomic<int> count{0};
    pool.parallelFor(3, [&](size_t) { ++count; });
    EXPECT_EQ(count.load(), 3);
}

// --- chunked parallelFor ------------------------------------------------

TEST(ThreadPool, ChunkedCoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    for (size_t n : {0u, 1u, 7u, 100u, 1001u}) {
        for (size_t grain : {1u, 3u, 16u, 1000u, 5000u}) {
            std::vector<std::atomic<int>> hits(n);
            pool.parallelFor(n, grain, [&](size_t b, size_t e) {
                ASSERT_LE(b, e);
                ASSERT_LE(e, n);
                for (size_t i = b; i < e; ++i)
                    ++hits[i];
            });
            for (size_t i = 0; i < n; ++i)
                ASSERT_EQ(hits[i].load(), 1)
                    << "n=" << n << " grain=" << grain
                    << " i=" << i;
        }
    }
}

TEST(ThreadPool, ChunkedBlocksAlignToGrain)
{
    // Every block must start at a multiple of the grain (the GEMM
    // row-pairing contract) and be at most grain long.
    ThreadPool pool(3);
    constexpr size_t kGrain = 7;
    std::mutex m;
    std::vector<std::pair<size_t, size_t>> blocks;
    pool.parallelFor(95, kGrain, [&](size_t b, size_t e) {
        std::lock_guard lock(m);
        blocks.emplace_back(b, e);
    });
    for (auto [b, e] : blocks) {
        EXPECT_EQ(b % kGrain, 0u);
        EXPECT_LE(e - b, kGrain);
    }
    EXPECT_EQ(blocks.size(), (95 + kGrain - 1) / kGrain);
}

TEST(ThreadPool, ChunkedAutoGrainCoversRange)
{
    ThreadPool pool(4);
    std::atomic<size_t> total{0};
    pool.parallelFor(1000, 0, [&](size_t b, size_t e) {
        total += e - b;
    });
    EXPECT_EQ(total.load(), 1000u);
}

TEST(ThreadPool, ChunkedSingleWorkerRunsInline)
{
    ThreadPool pool(1);
    const auto caller = std::this_thread::get_id();
    std::vector<std::thread::id> seen;
    pool.parallelFor(10, 2, [&](size_t, size_t) {
        seen.push_back(std::this_thread::get_id());
    });
    ASSERT_FALSE(seen.empty());
    for (const auto &id : seen)
        EXPECT_EQ(id, caller);
}

TEST(ThreadPool, ChunkedNestedDispatchDoesNotDeadlock)
{
    // A pool worker re-entering parallelFor must run the nested
    // range inline instead of submitting (and then waiting on) the
    // pool it is itself part of.
    ThreadPool pool(2);
    std::atomic<size_t> inner{0};
    pool.parallelFor(4, 1, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i)
            pool.parallelFor(8, 2, [&](size_t ib, size_t ie) {
                inner += ie - ib;
            });
    });
    EXPECT_EQ(inner.load(), 4u * 8u);
}

TEST(ThreadPool, ChunkedNestedParallelBlocksDoesNotDeadlock)
{
    ThreadPool pool(2);
    std::atomic<size_t> inner{0};
    pool.parallelFor(4, 1, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i)
            pool.parallelBlocks(6, [&](size_t, size_t ib,
                                       size_t ie) {
                inner += ie - ib;
            });
    });
    EXPECT_EQ(inner.load(), 4u * 6u);
}

TEST(ThreadPool, ChunkedDispatchFromTaskGroupTaskRunsInline)
{
    // Regression: the nested-dispatch guard must cover TaskGroup
    // reentry, not just pool workers.  A task running on the *owner*
    // thread is not a pool worker, so before the TaskGroup::inTask()
    // leg, parallelFor from such a task would enqueue blocks and
    // block in wait() while every pool worker sat in the group's own
    // participant loops — deadlock.
    ThreadPool pool(2);
    TaskGroup group(&pool);
    std::atomic<size_t> covered{0};
    for (int t = 0; t < 4; ++t)
        group.spawn([&] {
            pool.parallelFor(64, 8, [&](size_t b, size_t e) {
                covered += e - b;
            });
            pool.parallelBlocks(6, [&](size_t, size_t b, size_t e) {
                covered += e - b;
            });
        });
    group.sync();
    EXPECT_EQ(covered.load(), 4u * (64u + 6u));
}

TEST(ThreadPool, ChunkedParallelForCoversBlockPartition)
{
    // Every block of the grain partition runs exactly once with its
    // exact bounds, whichever runner takes it. Grain 0 picks
    // n / (4 * workers); a grain covering the range is one block.
    ThreadPool pool(4);
    for (size_t grain : {size_t{7}, size_t{1}, size_t{95}, size_t{0}}) {
        std::mutex m;
        std::vector<std::pair<size_t, size_t>> blocks;
        pool.parallelFor(95, grain, [&](size_t b, size_t e) {
            std::lock_guard lock(m);
            blocks.emplace_back(b, e);
        });
        const size_t g = grain ? grain : 95 / 16;
        std::sort(blocks.begin(), blocks.end());
        ASSERT_EQ(blocks.size(), (95 + g - 1) / g) << grain;
        size_t expect = 0;
        for (auto [b, e] : blocks) {
            EXPECT_EQ(b, expect);
            EXPECT_EQ(b % g, 0u);
            EXPECT_EQ(e, std::min<size_t>(95, b + g));
            expect = e;
        }
        EXPECT_EQ(expect, 95u);
    }
}

} // namespace
} // namespace afsb
