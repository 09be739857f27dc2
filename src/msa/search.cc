#include "msa/search.hh"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "msa/staged_scan.hh"
#include "util/logging.hh"
#include "util/str.hh"

namespace afsb::msa {

void
ScanStageStats::merge(const ScanStageStats &other)
{
    overlappedScans += other.overlappedScans;
    chunks += other.chunks;
    survivorsQueued += other.survivorsQueued;
    survivorsInline += other.survivorsInline;
    chunkQueuePeak = std::max(chunkQueuePeak, other.chunkQueuePeak);
    survivorQueuePeak =
        std::max(survivorQueuePeak, other.survivorQueuePeak);
    producerWaits += other.producerWaits;
    chunkWaits += other.chunkWaits;
    ioSeconds += other.ioSeconds;
    msvSeconds += other.msvSeconds;
    bandSeconds += other.bandSeconds;
    wallSeconds += other.wallSeconds;
    workersUsed = std::max(workersUsed, other.workersUsed);
    reader.merge(other.reader);
}

void
SearchStats::merge(const SearchStats &other)
{
    targetsScanned += other.targetsScanned;
    residuesScanned += other.residuesScanned;
    msvPassed += other.msvPassed;
    viterbiPassed += other.viterbiPassed;
    domainsScored += other.domainsScored;
    hits += other.hits;
    cellsMsv += other.cellsMsv;
    cellsViterbi += other.cellsViterbi;
    cellsForward += other.cellsForward;
    bytesStreamed += other.bytesStreamed;
    bytesFromDisk += other.bytesFromDisk;
    ioLatency += other.ioLatency;
    stages.merge(other.stages);
}

int
msvThreshold(const ProfileHmm &prof, size_t target_len,
             const SearchConfig &cfg)
{
    // Karlin-Altschul expectation: the best random ungapped segment
    // grows as ln(M*L)/lambda. BLOSUM62 lambda ~= 0.32 in raw-score
    // units; the nucleotide matrix is steeper.
    const double lambda = prof.alphabet() == 20 ? 0.32 : 0.62;
    const double ml = static_cast<double>(prof.length()) *
                      static_cast<double>(std::max<size_t>(
                          1, target_len));
    return static_cast<int>(
        std::lround(std::log(ml) / lambda + cfg.msvSlack));
}

namespace {

/**
 * Per-epoch virtual stream window base: within a pass the scan
 * streams sequentially (prefetchable, compulsory misses once), and
 * every new pass over the collection is fresh — exactly how
 * re-reading a paper-scale database behaves.
 */
uint64_t
streamEpochBase(uint64_t scaled_bytes, const SearchConfig &cfg)
{
    constexpr uint64_t kStreamBase = 0x6000'0000'0000ull;
    return kStreamBase + static_cast<uint64_t>(cfg.streamEpoch) *
                             (scaled_bytes + (1ull << 20));
}

/**
 * Canonical result order regardless of which engine (and which
 * worker interleaving) produced it: hits by descending Forward score
 * with the target index as a total-order tie break, survivors
 * ascending.
 */
void
canonicalize(SearchResult &result)
{
    std::sort(result.hits.begin(), result.hits.end(),
              [](const Hit &a, const Hit &b) {
                  if (a.forwardLogOdds != b.forwardLogOdds)
                      return a.forwardLogOdds > b.forwardLogOdds;
                  return a.targetIndex < b.targetIndex;
              });
    std::sort(result.msvSurvivors.begin(),
              result.msvSurvivors.end());
}

/** MSV then banded rescoring of one parsed target (no I/O). */
void
pipelineTarget(const ProfileHmm &prof, const bio::Sequence &target,
               const KernelConfig &kernel, const SearchConfig &cfg,
               size_t i, MemTraceSink *sink, SearchResult &out)
{
    if (!staged::prefilterTarget(prof, target, kernel, cfg, sink,
                                 out.stats))
        return;
    out.msvSurvivors.push_back(static_cast<uint32_t>(i));
    staged::rescoreTarget(prof, target, kernel, cfg, sink, i, out);
}

/**
 * Stream target @p i's bytes through the page-cache model, charged
 * to @p out. The cache is shared state, so guard it. (Real HMMER
 * also funnels reads through one esl_buffer.)
 */
void
readTarget(const SequenceDatabase &db, io::PageCache &cache,
           std::mutex &cache_mutex, double now, size_t i,
           SearchResult &out)
{
    const auto extent = db.byteExtent(i);
    std::lock_guard lock(cache_mutex);
    const auto io = cache.read(db.fileId(), extent.offset,
                               extent.length,
                               now + out.stats.ioLatency);
    out.stats.bytesStreamed += extent.length;
    out.stats.bytesFromDisk += io.bytesFromDisk;
    out.stats.ioLatency += io.latency;
}

/**
 * Reader-thread work: the master thread parses and buffers the
 * target before any worker can align it. Instruction densities per
 * input byte are HMMER-calibrated (Table IV puts addbuf+seebuf at
 * ~23% of MSA cycles); copy_to_iter first-touches the target's
 * stream lines, which is where its cache misses come from.
 */
void
traceParse(MemTraceSink &sink, uint64_t bytes, uint64_t target_base,
           const SearchConfig &cfg)
{
    sink.instructions(wellknown::addbuf(), bytes * 24);
    sink.instructions(wellknown::seebuf(), bytes * 9);
    sink.instructions(wellknown::copyToIter(), bytes * 8);
    sink.branches(wellknown::addbuf(), bytes / 4, 0);
    // Per-target header allocation from the recycled malloc pool
    // (hot after warm-up).
    sink.access({0x7f70'0000'0000ull + target_base % (4ull << 20), 64,
                 true, wellknown::addbuf()});
    const uint64_t step = 64ull * cfg.kernel.traceStride;
    for (uint64_t off = 0; off < bytes; off += step) {
        sink.access({target_base + off, 64, true,
                     wellknown::copyToIter()});
        // Cyclic parse buffer touches (addbuf/seebuf).
        constexpr uint64_t kParseBuf = 0x7f40'0000'0000ull;
        sink.access({kParseBuf + off % (256 * 1024), 64, false,
                     wellknown::addbuf()});
        if (off % (2 * step) == 0)
            sink.access({kParseBuf + off % (256 * 1024), 32, false,
                         wellknown::seebuf()});
    }
}

} // namespace

namespace staged {

ScanPlan
planScan(const SearchConfig &cfg, const SequenceDatabase &db,
         ThreadPool *pool, size_t targets, bool whole_file,
         const std::vector<MemTraceSink *> &sinks, const char *who)
{
    ScanPlan plan;
    plan.pool = pool;
    if (pool) {
        // Never more workers than the pool has; say so rather than
        // clamping silently.
        if (cfg.threads > pool->size())
            warn(strformat("%s: threads=%zu exceeds pool size %zu; "
                           "clamping to %zu",
                           who, cfg.threads, pool->size(),
                           pool->size()));
        plan.workers = std::max<size_t>(
            1, std::min(cfg.threads, pool->size()));
    }
    plan.targets = targets;
    plan.db = &db;
    plan.sinks = &sinks;
    if (!sinks.empty() && sinks.size() < plan.workers)
        fatal(strformat("%s: fewer sinks than workers", who));

    using Engine = ScanPlan::Engine;
    if (plan.workers <= 1 || !pool)
        plan.engine = Engine::Serial;
    else if (!sinks.empty())
        plan.engine = Engine::Traced;
    // A scan nested inside a pool worker would run its task group
    // inline on that one thread. It keeps the block path, so nested
    // scans' stage counters and I/O accounting stay as they are.
    else if (cfg.overlap && whole_file && targets > 0 && db.vfs() &&
             !ThreadPool::inWorker())
        plan.engine = Engine::Staged;
    else
        plan.engine = Engine::Blocks;
    return plan;
}

bool
prefilterTarget(const ProfileHmm &prof, const bio::Sequence &target,
                const KernelConfig &kernel, const SearchConfig &cfg,
                MemTraceSink *sink, SearchStats &stats)
{
    ++stats.targetsScanned;
    stats.residuesScanned += target.length();
    const auto msv = msvFilter(prof, target, kernel, sink);
    stats.cellsMsv += msv.cells;
    if (msv.score < msvThreshold(prof, target.length(), cfg))
        return false;
    ++stats.msvPassed;
    return true;
}

void
rescoreTarget(const ProfileHmm &prof, const bio::Sequence &target,
              const KernelConfig &kernel, const SearchConfig &cfg,
              MemTraceSink *sink, size_t hit_index, SearchResult &out)
{
    // MSV survivors run both banded kernels (HMMER rescored every
    // survivor with Forward before domain definition).
    const int threshold = msvThreshold(prof, target.length(), cfg);
    const auto vit = calcBand9(prof, target, kernel, sink);
    out.stats.cellsViterbi += vit.cells;
    const auto fwd = calcBand10(prof, target, kernel, sink);
    out.stats.cellsForward += fwd.cells;
    if (vit.score < threshold + cfg.viterbiMargin)
        return;
    ++out.stats.viterbiPassed;

    // Every surviving candidate goes through domain definition and
    // null2 rescoring — full-width DP over the envelope. This is
    // where low-complexity queries burn their time: the "ambiguous
    // or partial alignments that still must be scored and filtered"
    // (paper Observation 2).
    ++out.stats.domainsScored;
    if (sink)
        sink->instructions(wellknown::calcBand10(),
                           16ull * target.length() * prof.length());

    if (fwd.logOdds < cfg.forwardThreshold)
        return;
    ++out.stats.hits;
    out.hits.push_back({hit_index, vit.score, fwd.logOdds});
}

} // namespace staged

SearchResult
searchDatabase(const ProfileHmm &prof, const SequenceDatabase &db,
               io::PageCache &cache, ThreadPool *pool,
               const SearchConfig &cfg, double now,
               const std::vector<MemTraceSink *> &sinks)
{
    // Shard subrange [b, e): the default config covers the whole
    // database; a shard's slice scans only its own targets and never
    // streams (the staged chunk schedule is a whole-file contract).
    const size_t n = db.size();
    const size_t b = std::min(cfg.targetBegin, n);
    const size_t e = std::max(b, std::min(cfg.targetEnd, n));
    staged::ScanPlan plan =
        staged::planScan(cfg, db, pool, e - b, b == 0 && e == n,
                         sinks, "searchDatabase");
    plan.priority = cfg.priorityTargets;
    if (b == e)
        return {};

    const uint64_t epochBase =
        streamEpochBase(db.info().scaledBytes, cfg);
    std::mutex cacheMutex;
    auto kernelFor = [&](size_t i) {
        KernelConfig kernel = cfg.kernel;
        kernel.targetBase = epochBase + db.byteExtent(i).offset;
        return kernel;
    };

    SearchResult result = staged::runScan(
        plan, cache, now,
        [&](size_t first, size_t last) {
            const auto from = db.byteExtent(b + first);
            const auto to = db.byteExtent(b + last - 1);
            return SequenceDatabase::ByteExtent{
                from.offset, to.offset + to.length - from.offset};
        },
        [&](SearchResult &mine, MemTraceSink *sink, size_t k) {
            const size_t i = b + k;
            const KernelConfig kernel = kernelFor(i);
            if (!plan.streams())
                readTarget(db, cache, cacheMutex, now, i, mine);
            if (sink)
                traceParse(*sink, db.byteExtent(i).length,
                           kernel.targetBase, cfg);
            if (!staged::prefilterTarget(prof, db.sequences()[i],
                                         kernel, cfg, sink,
                                         mine.stats))
                return false;
            mine.msvSurvivors.push_back(static_cast<uint32_t>(i));
            return true;
        },
        [&](SearchResult &mine, MemTraceSink *sink, size_t k) {
            const size_t i = b + k;
            staged::rescoreTarget(prof, db.sequences()[i],
                                  kernelFor(i), cfg, sink, i, mine);
        });
    canonicalize(result);
    return result;
}

DeltaSearchResult
deltaSearch(const ProfileHmm &prof, const SequenceDatabase &db,
            io::PageCache &cache, const SearchConfig &cfg,
            const std::vector<uint32_t> &survivors, double now,
            double min_retention)
{
    DeltaSearchResult delta;
    const size_t n = db.size();
    const uint64_t epochBase =
        streamEpochBase(db.info().scaledBytes, cfg);
    std::mutex cacheMutex;

    // The survivor set is a small fraction of the database (the MSV
    // pass rate is ~20-30%), so the delta runs single-threaded; its
    // whole point is doing orders of magnitude less work than the
    // full scan, not parallelizing what's left.
    for (const uint32_t idx : survivors) {
        if (idx >= n)
            continue; // stale survivor beyond this database's range
        ++delta.survivorsRescored;
        readTarget(db, cache, cacheMutex, now, idx, delta.result);
        KernelConfig kernel = cfg.kernel;
        kernel.targetBase = epochBase + db.byteExtent(idx).offset;
        pipelineTarget(prof, db.sequences()[idx], kernel, cfg, idx,
                       nullptr, delta.result);
    }
    delta.survivorsRetained = delta.result.stats.msvPassed;

    // Acceptance: if the mutated query drops too many of the cached
    // survivors at the prefilter, the cached set likely also misses
    // targets a full scan would now admit — reject and let the
    // caller fall back to the full sharded scan.
    delta.accepted = delta.survivorsRescored > 0 &&
                     delta.retention() >= min_retention;
    canonicalize(delta.result);
    return delta;
}

SearchResult
searchDatabaseStreaming(const ProfileHmm &prof,
                        const StreamingSequenceDatabase &db,
                        const SearchConfig &cfg, double now)
{
    SearchResult result;
    const size_t n = db.size();
    const size_t b = std::min(cfg.targetBegin, n);
    const size_t e = std::min(cfg.targetEnd, n);

    // Same per-epoch virtual window as the in-RAM scan so the
    // kernels' trace-address config matches.
    const uint64_t epochBase =
        streamEpochBase(db.info().scaledBytes, cfg);

    const uint64_t disk0 = db.readerStats().bytesFromDisk;
    const double lat0 = db.readerStats().ioLatency;
    for (size_t i = b; i < e; ++i) {
        // Decode through the bounded block LRU; sequential scans
        // keep at most the decode budget resident, so the loop
        // never materializes the collection.
        const bio::Sequence target = db.materialize(i, now);
        const auto extent = db.byteExtent(i);
        KernelConfig kernel = cfg.kernel;
        kernel.targetBase = epochBase + extent.offset;
        result.stats.bytesStreamed += extent.length;
        pipelineTarget(prof, target, kernel, cfg, i, nullptr,
                       result);
    }
    result.stats.bytesFromDisk +=
        db.readerStats().bytesFromDisk - disk0;
    result.stats.ioLatency += db.readerStats().ioLatency - lat0;
    canonicalize(result);
    return result;
}

} // namespace afsb::msa
