/**
 * @file
 * The database-scan engine: HMMER-style accelerated pipeline.
 *
 * Every target flows through MSV prefilter -> banded Viterbi
 * (calc_band_9) -> banded Forward rescore (calc_band_10); only
 * prefilter survivors reach the expensive kernels. Low-complexity
 * queries (poly-Q) push many spurious targets past the prefilter,
 * inflating calc_band work — the paper's Observation 2 mechanism.
 *
 * The scan streams the database file through the page-cache model
 * (so the Desktop's 64 GiB configuration shows disk traffic where
 * the Server's 512 GiB does not) and partitions targets across a
 * thread pool with per-thread trace sinks for the cache simulator.
 */

#ifndef AFSB_MSA_SEARCH_HH
#define AFSB_MSA_SEARCH_HH

#include <cstdint>
#include <vector>

#include "msa/database.hh"
#include "msa/dp_kernels.hh"
#include "msa/profile_hmm.hh"
#include "util/threadpool.hh"

namespace afsb::msa {

/** Scan configuration. */
struct SearchConfig
{
    KernelConfig kernel;

    /** Worker threads scanning the database. */
    size_t threads = 1;

    /** Bits of headroom added to the random-expectation prefilter
     *  threshold; lower admits more targets to the DP kernels.
     *  HMMER's filter cascade is deliberately permissive (~20-30%
     *  of targets reach the banded kernels here). */
    double msvSlack = 6.0;

    /** Viterbi score margin (above the MSV threshold) for a target
     *  to proceed to Forward rescoring. */
    int viterbiMargin = 12;

    /** Forward log-odds threshold for final hit acceptance. */
    double forwardThreshold = 18.0;

    /**
     * Stream epoch: distinct database passes (jackhmmer rounds) get
     * distinct virtual address windows so a re-scan misses the
     * caches the way re-reading a 60 GiB collection would.
     */
    uint32_t streamEpoch = 0;

    /**
     * Staged overlapped scan (untraced multi-thread whole-file scans
     * only; see msa/staged_scan.hh): target chunks stream through a
     * BufferedReader while the MSV prefilter and the banded rescoring
     * run as work-stealing tasks. Off falls back to the block
     * partition. Traced scans (any sink attached) always use the
     * equal split — the per-worker trace streams are the simulator's
     * stability contract. Hit sets, survivor lists and pipeline
     * counters are identical either way.
     */
    bool overlap = true;

    /**
     * Target index subrange [targetBegin, min(targetEnd, db size))
     * to scan — how a shard scans only its slice of a partitioned
     * database (msa/sharded_search.hh). The default covers the
     * whole database; a proper subrange always uses the block or
     * traced partition, never the staged scan.
     */
    size_t targetBegin = 0;
    size_t targetEnd = SIZE_MAX;

    /**
     * Optional scan-priority hint: target indices (e.g. the
     * previous jackhmmer round's MSV survivors) whose chunks are
     * streamed and prefiltered first, so the expensive banded
     * rescoring surfaces early and overlaps the remaining stream.
     * Only consulted by the overlapped path; never changes the hit
     * set. Not owned; must outlive the call.
     */
    const std::vector<uint32_t> *priorityTargets = nullptr;
};

/** One accepted hit. */
struct Hit
{
    size_t targetIndex = 0;
    int viterbiScore = 0;
    double forwardLogOdds = 0.0;
};

/**
 * Per-stage counters for the overlapped staged scan. Zero when only
 * the serial, block or traced engines ran. Busy-seconds are real
 * wall-clock (not simulated) and attribute where a thread sweep
 * saturates: I/O-bound scans show producer waits and low compute
 * occupancy; band-skewed scans show in-place survivor rescoring.
 */
struct ScanStageStats
{
    uint64_t overlappedScans = 0;   ///< scans that took the staged path
    uint64_t chunks = 0;            ///< prefetched target chunks
    uint64_t survivorsQueued = 0;   ///< survivors sent to the rescore stage
    uint64_t survivorsInline = 0;   ///< rescored in place (backpressure)

    uint64_t chunkQueuePeak = 0;    ///< max prefetched chunks in flight
    uint64_t survivorQueuePeak = 0; ///< max unscored survivors in flight
    uint64_t producerWaits = 0;     ///< I/O stage throttled by a full window
    /** Compute starved waiting for a chunk. The task engine never
     *  waits (idle workers steal), so this reads 0; kept for the
     *  Fig 4 and perfbench reports that print it. */
    uint64_t chunkWaits = 0;

    double ioSeconds = 0.0;         ///< producer stage busy time
    double msvSeconds = 0.0;        ///< prefilter busy time, summed over workers
    double bandSeconds = 0.0;       ///< survivor-stage busy time, summed
    double wallSeconds = 0.0;       ///< staged-scan wall time, summed
    uint64_t workersUsed = 0;       ///< max workers across merged scans

    /** Prefetch-reader counters (refills, copies, disk bytes). */
    io::ReaderStats reader;

    void merge(const ScanStageStats &other);

    /** Fraction of worker-seconds spent busy in any stage. */
    double
    occupancy() const
    {
        const double denom = static_cast<double>(workersUsed) *
                             wallSeconds;
        return denom > 0.0
                   ? (ioSeconds + msvSeconds + bandSeconds) / denom
                   : 0.0;
    }
};

/** Aggregated counters for one scan. */
struct SearchStats
{
    uint64_t targetsScanned = 0;
    uint64_t residuesScanned = 0;
    uint64_t msvPassed = 0;       ///< survived the prefilter
    uint64_t viterbiPassed = 0;   ///< candidate alignments
    uint64_t domainsScored = 0;   ///< post-pipeline domain passes
    uint64_t hits = 0;

    uint64_t cellsMsv = 0;
    uint64_t cellsViterbi = 0;
    uint64_t cellsForward = 0;

    uint64_t bytesStreamed = 0;   ///< through the page-cache model
    uint64_t bytesFromDisk = 0;
    double ioLatency = 0.0;       ///< simulated seconds

    /** Staged-scan stage attribution (overlapped path only). */
    ScanStageStats stages;

    void merge(const SearchStats &other);

    /** Prefilter pass rate. */
    double
    msvPassRate() const
    {
        return targetsScanned
                   ? static_cast<double>(msvPassed) /
                         static_cast<double>(targetsScanned)
                   : 0.0;
    }
};

/** Result of one database scan. */
struct SearchResult
{
    std::vector<Hit> hits;  ///< sorted by descending Forward score
    SearchStats stats;

    /**
     * Target indices that passed the MSV prefilter, ascending.
     * jackhmmer feeds these back as the next round's
     * `SearchConfig::priorityTargets` so band-heavy targets are
     * rescanned first (AF_Cache-style cross-round reuse).
     */
    std::vector<uint32_t> msvSurvivors;
};

/**
 * Scan @p db with @p prof.
 *
 * @param prof Query profile.
 * @param db Parsed database (shared, read-only).
 * @param cache Page-cache model for streaming simulation.
 * @param pool Thread pool; the scan uses min(cfg.threads, pool size)
 *        workers. Pass nullptr for single-threaded scanning.
 * @param cfg Pipeline thresholds and kernel knobs.
 * @param now Simulated start time (for I/O modeling).
 * @param sinks Optional per-worker trace sinks (size >= threads) for
 *        the cache simulator; empty disables tracing.
 */
SearchResult searchDatabase(
    const ProfileHmm &prof, const SequenceDatabase &db,
    io::PageCache &cache, ThreadPool *pool, const SearchConfig &cfg,
    double now = 0.0,
    const std::vector<MemTraceSink *> &sinks = {});

/** Outcome of a delta re-search against a cached survivor set. */
struct DeltaSearchResult
{
    /**
     * True when the delta's acceptance check held: the rescored
     * survivor set retained at least `minRetention` of its members
     * past the MSV prefilter. A rejected delta means the cached
     * survivor set no longer covers this query — the caller must
     * fall back to a full database scan.
     */
    bool accepted = false;

    /** Hits/stats over the survivor subset only (canonical order). */
    SearchResult result;

    uint64_t survivorsRescored = 0; ///< cached survivors re-run
    uint64_t survivorsRetained = 0; ///< still past the MSV filter

    double
    retention() const
    {
        return survivorsRescored
                   ? static_cast<double>(survivorsRetained) /
                         static_cast<double>(survivorsRescored)
                   : 0.0;
    }
};

/**
 * Delta re-search: rescore only @p survivors (a cached query's MSV
 * survivor set, ascending target indices) against @p prof instead of
 * scanning the whole database — the similarity-cache fast path for a
 * near-identical query. Runs the identical MSV -> Viterbi -> Forward
 * pipeline per target (same thresholds, same page-cache streaming),
 * so for the *same* query the delta's hit set equals the full scan's
 * (full-scan hits are always a subset of its MSV survivors).
 *
 * Acceptance: the fraction of survivors still passing the MSV
 * prefilter must be >= @p min_retention (and the set non-empty);
 * otherwise `accepted` is false and `result` must be discarded in
 * favor of a full scan.
 */
DeltaSearchResult deltaSearch(const ProfileHmm &prof,
                              const SequenceDatabase &db,
                              io::PageCache &cache,
                              const SearchConfig &cfg,
                              const std::vector<uint32_t> &survivors,
                              double now = 0.0,
                              double min_retention = 0.5);

/**
 * Scan a block-compressed streaming database: targets are decoded
 * on demand through the container's bounded LRU (see
 * msa/database.hh), so peak residency is the decode budget — not
 * the collection size. Single-threaded sequential pass; runs the
 * identical per-target filter cascade as searchDatabase, so the hit
 * set over the same FASTA bytes is bit-identical to the in-RAM
 * scan's. I/O (compressed-side reads through the page cache /
 * storage models) is accounted in the returned stats.
 */
SearchResult searchDatabaseStreaming(
    const ProfileHmm &prof, const StreamingSequenceDatabase &db,
    const SearchConfig &cfg, double now = 0.0);

/**
 * Prefilter threshold for a profile: the expected best random
 * ungapped segment score against a target of length @p target_len
 * plus cfg.msvSlack bits (Karlin-Altschul-style log expectation).
 */
int msvThreshold(const ProfileHmm &prof, size_t target_len,
                 const SearchConfig &cfg);

} // namespace afsb::msa

#endif // AFSB_MSA_SEARCH_HH
