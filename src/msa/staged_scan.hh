/**
 * @file
 * The MSA scan driver: the one place that picks how a database scan
 * runs, and the staged task engine it uses to overlap streaming with
 * compute.
 *
 * `planScan` picks one of four engines; `runScan` runs the caller's
 * per-target prefilter and rescore under it and merges the
 * per-worker partials in a fixed order:
 *
 *  - **Serial** — no pool or one worker: one pass on the first sink.
 *  - **Staged** — untraced, whole file, file-backed, not nested: the
 *    task engine below (`runStagedScanTasks`) streams target chunks
 *    through a BufferedReader into staging slabs while the MSV
 *    prefilter and the banded rescoring run as work-stealing tasks,
 *    so prefilter-survivor skew (low-complexity queries push
 *    spurious targets into the banded kernels — paper Observation 2)
 *    spreads per survivor instead of idling workers behind the
 *    slowest block.
 *  - **Blocks** — any other untraced scan: a pool `parallelFor` over
 *    blocks much finer than the worker count.
 *  - **Traced** — sinks attached: the equal-count split, worker w on
 *    sink w. Each sink's stream is the cache simulator's contract, so
 *    this partition never changes.
 *
 * Determinism: every engine prefilters each target once and rescores
 * each survivor once with the same kernels and thresholds, so hit
 * sets and pipeline counters are bit-identical at any thread count;
 * callers canonicalize ordering afterwards.
 */

#ifndef AFSB_MSA_STAGED_SCAN_HH
#define AFSB_MSA_STAGED_SCAN_HH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "io/buffered_reader.hh"
#include "msa/search.hh"
#include "util/grain.hh"
#include "util/task.hh"
#include "util/threadpool.hh"

namespace afsb::msa::staged {

/**
 * Prefetch depth: chunks the producer may stream ahead of compute,
 * and the number of staging slabs (double buffering).
 */
inline constexpr size_t kPrefetchChunks = 2;

/**
 * Spawned-but-unscored survivor bound. Past it the prefiltering task
 * rescores the survivor in place, so band-heavy queries throttle the
 * prefilter instead of growing an unbounded backlog.
 */
inline constexpr size_t kSurvivorDepth = 64;

/** How one scan runs. Built by planScan, executed by runScan. */
struct ScanPlan
{
    enum class Engine { Serial, Staged, Blocks, Traced };

    Engine engine = Engine::Serial;
    ThreadPool *pool = nullptr;
    size_t workers = 1;
    size_t targets = 0;  ///< the caller's targets are [0, targets)
    const SequenceDatabase *db = nullptr;
    const std::vector<MemTraceSink *> *sinks = nullptr;

    /** Optional target indices whose chunks the staged engine runs
     *  first. Never changes the hit set. */
    const std::vector<uint32_t> *priority = nullptr;

    /** True when the engine streams the targets' bytes itself, so
     *  per-target reads must be skipped. */
    bool streams() const { return engine == Engine::Staged; }
};

/**
 * Pick the engine for a scan of @p targets targets of @p db.
 * @param whole_file The targets are the whole file in file order
 *        (the staged engine's chunk schedule streams the file).
 * @param who Caller name for warnings and errors.
 */
ScanPlan planScan(const SearchConfig &cfg, const SequenceDatabase &db,
                  ThreadPool *pool, size_t targets, bool whole_file,
                  const std::vector<MemTraceSink *> &sinks,
                  const char *who);

/**
 * The MSV stage of the filter cascade for one parsed target: counts
 * it into @p stats; true when it survives the prefilter. Every scan
 * path runs this and rescoreTarget, so all apply bit-identical
 * thresholds.
 */
bool prefilterTarget(const ProfileHmm &prof, const bio::Sequence &target,
                     const KernelConfig &kernel, const SearchConfig &cfg,
                     MemTraceSink *sink, SearchStats &stats);

/**
 * The banded stage for one prefilter survivor: Viterbi and Forward,
 * domain accounting, and on acceptance a hit for target
 * @p hit_index in @p out.
 */
void rescoreTarget(const ProfileHmm &prof, const bio::Sequence &target,
                   const KernelConfig &kernel, const SearchConfig &cfg,
                   MemTraceSink *sink, size_t hit_index,
                   SearchResult &out);

/**
 * Chunk schedule: chunks containing priority targets first, both
 * classes in ascending order (stable), so the pass is deterministic
 * for a given hint set.
 */
inline std::vector<uint32_t>
chunkOrder(const std::vector<uint32_t> *priority, size_t n,
           size_t grain, size_t nChunks)
{
    std::vector<uint32_t> order(nChunks);
    std::iota(order.begin(), order.end(), 0u);
    if (priority && !priority->empty() && nChunks > 1) {
        std::vector<char> hot(nChunks, 0);
        for (uint32_t t : *priority)
            if (t < n)
                hot[t / grain] = 1;
        std::stable_partition(order.begin(), order.end(),
                              [&](uint32_t c) { return hot[c] != 0; });
    }
    return order;
}

/**
 * The staged pipeline as a TaskGroup task graph:
 *
 *  - the producer is a task that streams chunks in schedule order
 *    and spawns one *chunk task* per streamed chunk; when
 *    kPrefetchChunks chunks are streamed but unstarted it throttles
 *    by running pending tasks itself (`runOne()` help-first) instead
 *    of blocking, so the streaming thread turns into a compute worker
 *    exactly when compute is the bottleneck;
 *  - a chunk task runs the MSV prefilter over its targets and spawns
 *    one *rescore task* (banded Viterbi + Forward) per survivor, so
 *    survivors start draining while the chunk is still being
 *    prefiltered elsewhere;
 *  - past kSurvivorDepth unscored survivors the prefiltering task
 *    rescores in place (help-first backpressure).
 *
 * The group borrows `workers - 1` pool workers, so with the owner
 * exactly `workers` threads participate. Callbacks receive
 * `TaskGroup::currentSlot()` as their worker id (0..workers-1, one
 * thread per slot), so per-worker partials need no locking.
 *
 * @param stream    `void(size_t chunk, size_t begin, size_t end)` —
 *                  producer-only; stages the chunk's bytes.
 * @param prefilter `bool(size_t worker, size_t target)` — true admits
 *                  the target to the rescore stage.
 * @param rescore   `void(size_t worker, size_t target)`.
 * @param stages    Occupancy / window counters, accumulated.
 */
template <typename StreamFn, typename PrefilterFn, typename RescoreFn>
void
runStagedScanTasks(const ScanPlan &plan, size_t grain,
                   StreamFn &&stream, PrefilterFn &&prefilter,
                   RescoreFn &&rescore, ScanStageStats &stages)
{
    using Clock = std::chrono::steady_clock;
    const auto secondsSince = [](Clock::time_point t0) {
        return std::chrono::duration<double>(Clock::now() - t0)
            .count();
    };

    const size_t n = plan.targets;
    const size_t nChunks = (n + grain - 1) / grain;
    if (n == 0 || plan.workers < 2)
        return;

    const std::vector<uint32_t> order =
        chunkOrder(plan.priority, n, grain, nChunks);

    TaskGroup group(plan.pool, plan.workers - 1);
    const size_t slots = group.slots();

    // Streamed-but-unstarted chunks gate the producer;
    // spawned-but-unscored survivors gate the prefilter.
    std::atomic<size_t> chunksAhead{0};
    std::atomic<size_t> survivorsAhead{0};
    std::atomic<uint64_t> queued{0}, inlined{0};
    std::atomic<uint64_t> chunkPeak{0}, survivorPeak{0};
    std::atomic<uint64_t> throttles{0};

    std::vector<double> msvSec(slots, 0.0), bandSec(slots, 0.0);
    double ioSec = 0.0;

    auto bumpPeak = [](std::atomic<uint64_t> &peak, uint64_t v) {
        uint64_t cur = peak.load(std::memory_order_relaxed);
        while (v > cur &&
               !peak.compare_exchange_weak(
                   cur, v, std::memory_order_relaxed))
            ;
    };

    auto rescoreTimed = [&](uint32_t t) {
        const size_t w = group.currentSlot();
        const auto t0 = Clock::now();
        rescore(w, static_cast<size_t>(t));
        bandSec[w] += secondsSince(t0);
    };

    auto runChunk = [&](uint32_t c) {
        // The chunk leaves the prefetch window the moment a worker
        // starts it.
        chunksAhead.fetch_sub(1, std::memory_order_relaxed);
        const size_t w = group.currentSlot();
        const size_t begin = static_cast<size_t>(c) * grain;
        const size_t end = std::min(n, begin + grain);
        for (size_t i = begin; i < end; ++i) {
            const auto t0 = Clock::now();
            const bool pass = prefilter(w, i);
            msvSec[w] += secondsSince(t0);
            if (!pass)
                continue;
            queued.fetch_add(1, std::memory_order_relaxed);
            const uint32_t idx = static_cast<uint32_t>(i);
            if (survivorsAhead.fetch_add(
                    1, std::memory_order_relaxed) >= kSurvivorDepth) {
                // Full survivor window: rescore in place so a flood
                // of survivors throttles the prefilter.
                survivorsAhead.fetch_sub(1,
                                         std::memory_order_relaxed);
                inlined.fetch_add(1, std::memory_order_relaxed);
                rescoreTimed(idx);
                continue;
            }
            bumpPeak(survivorPeak,
                     survivorsAhead.load(std::memory_order_relaxed));
            group.spawn([&, idx] {
                rescoreTimed(idx);
                survivorsAhead.fetch_sub(1,
                                         std::memory_order_relaxed);
            });
        }
    };

    const auto wall0 = Clock::now();
    group.spawn([&] {
        for (uint32_t c : order) {
            const size_t begin = static_cast<size_t>(c) * grain;
            const size_t end = std::min(n, begin + grain);
            const auto t0 = Clock::now();
            stream(static_cast<size_t>(c), begin, end);
            ioSec += secondsSince(t0);
            chunksAhead.fetch_add(1, std::memory_order_relaxed);
            bumpPeak(chunkPeak,
                     chunksAhead.load(std::memory_order_relaxed));
            group.spawn([&, c] { runChunk(c); });
            if (chunksAhead.load(std::memory_order_relaxed) <
                kPrefetchChunks)
                continue;
            throttles.fetch_add(1, std::memory_order_relaxed);
            // Throttle by helping, never by blocking: run pending
            // tasks (usually the chunk just published) until the
            // prefetch window reopens. When there is nothing to
            // help with (every published chunk is mid-execution),
            // back off to a short sleep instead of burning a core.
            int idleSpins = 0;
            while (chunksAhead.load(std::memory_order_relaxed) >=
                   kPrefetchChunks) {
                if (group.runOne())
                    idleSpins = 0;
                else if (++idleSpins <= 64)
                    std::this_thread::yield();
                else
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(50));
            }
        }
    });
    group.sync();

    stages.overlappedScans += 1;
    stages.chunks += nChunks;
    stages.survivorsQueued += queued.load();
    stages.survivorsInline += inlined.load();
    stages.chunkQueuePeak =
        std::max(stages.chunkQueuePeak, chunkPeak.load());
    stages.survivorQueuePeak =
        std::max(stages.survivorQueuePeak, survivorPeak.load());
    stages.producerWaits += throttles.load();
    stages.ioSeconds += ioSec;
    for (size_t w = 0; w < slots; ++w) {
        stages.msvSeconds += msvSec[w];
        stages.bandSeconds += bandSec[w];
    }
    stages.wallSeconds += secondsSince(wall0);
    stages.workersUsed =
        std::max<uint64_t>(stages.workersUsed, slots);
}

/**
 * Run a scan of targets [0, plan.targets) on the engine @p plan
 * chose and merge the partials in order (block order, or worker
 * order).
 *
 * @param chunk_bytes `SequenceDatabase::ByteExtent(size_t begin,
 *                    size_t end)` — the file bytes of targets
 *                    [begin, end); read only by the staged engine,
 *                    which charges them to the result's stats.
 * @param prefilter   `bool(SearchResult &mine, MemTraceSink *sink,
 *                    size_t target)` — per-target I/O (unless
 *                    `plan.streams()`), parse and MSV; true admits the
 *                    target to @p rescore.
 * @param rescore     `void(SearchResult &mine, MemTraceSink *sink,
 *                    size_t target)` — banded kernels and hit.
 */
template <typename ChunkBytesFn, typename PrefilterFn,
          typename RescoreFn>
SearchResult
runScan(const ScanPlan &plan, io::PageCache &cache, double now,
        ChunkBytesFn &&chunk_bytes, PrefilterFn &&prefilter,
        RescoreFn &&rescore)
{
    using Engine = ScanPlan::Engine;
    const size_t n = plan.targets;
    const size_t workers = plan.workers;
    // Targets per block or staged chunk.
    const size_t block = grain::forScan(n, workers);
    SearchResult out;
    std::vector<SearchResult> partial;

    auto visit = [&](SearchResult &mine, MemTraceSink *sink,
                     size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i)
            if (prefilter(mine, sink, i))
                rescore(mine, sink, i);
    };

    switch (plan.engine) {
      case Engine::Serial:
        partial.resize(1);
        visit(partial[0],
              plan.sinks->empty() ? nullptr : (*plan.sinks)[0], 0, n);
        break;

      case Engine::Blocks:
        // Targets cost wildly different amounts (MSV survivors run
        // two more kernels), so carve the range into blocks much
        // finer than the worker count and let the pool balance them.
        partial.resize((n + block - 1) / block);
        plan.pool->parallelFor(n, block, [&](size_t b, size_t e) {
            visit(partial[b / block], nullptr, b, e);
        });
        break;

      case Engine::Traced: {
        partial.resize(workers);
        const size_t chunk = (n + workers - 1) / workers;
        plan.pool->parallelBlocks(
            workers, [&](size_t, size_t wb, size_t we) {
                for (size_t w = wb; w < we; ++w) {
                    const size_t begin = w * chunk;
                    const size_t end = std::min(n, begin + chunk);
                    if (begin < end)
                        visit(partial[w], (*plan.sinks)[w], begin,
                              end);
                }
            });
        break;
      }

      case Engine::Staged: {
        // One sequential reader plus rotating staging slabs sized for
        // the largest chunk. The slab copy is the copy_to_iter byte
        // movement the parse stage performs in HMMER; the prefetch
        // window keeps at most kPrefetchChunks slabs in flight.
        io::BufferedReader reader(plan.db->vfs(), &cache,
                                  plan.db->fileId());
        uint64_t maxChunkBytes = 1;
        for (size_t b = 0; b < n; b += block)
            maxChunkBytes = std::max(
                maxChunkBytes,
                chunk_bytes(b, std::min(n, b + block)).length);
        std::vector<std::vector<char>> slabs(kPrefetchChunks);
        for (auto &s : slabs)
            s.resize(maxChunkBytes);

        uint64_t streamed = 0;
        auto stream = [&](size_t c, size_t begin, size_t end) {
            const auto bytes = chunk_bytes(begin, end);
            if (bytes.length == 0)
                return;
            reader.seek(bytes.offset);
            reader.copyToIter(slabs[c % slabs.size()].data(),
                              static_cast<size_t>(bytes.length),
                              now + reader.stats().ioLatency);
            streamed += bytes.length;
        };

        partial.resize(workers);
        runStagedScanTasks(
            plan, block, stream,
            [&](size_t w, size_t i) {
                return prefilter(partial[w], nullptr, i);
            },
            [&](size_t w, size_t i) { rescore(partial[w], nullptr, i); },
            out.stats.stages);
        out.stats.bytesStreamed += streamed;
        out.stats.bytesFromDisk += reader.stats().bytesFromDisk;
        out.stats.ioLatency += reader.stats().ioLatency;
        out.stats.stages.reader.merge(reader.stats());
        break;
      }
    }

    for (auto &p : partial) {
        out.stats.merge(p.stats);
        out.hits.insert(out.hits.end(), p.hits.begin(), p.hits.end());
        out.msvSurvivors.insert(out.msvSurvivors.end(),
                                p.msvSurvivors.begin(),
                                p.msvSurvivors.end());
    }
    return out;
}

} // namespace afsb::msa::staged

#endif // AFSB_MSA_STAGED_SCAN_HH
