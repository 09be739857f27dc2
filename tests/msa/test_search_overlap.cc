/**
 * @file
 * Overlapped staged scan vs. block partition: the two untraced
 * engines must produce bit-identical hit sets (scores included) and
 * identical pipeline counters at any thread count, and the staged
 * engine must be deterministic across repeated runs. Also covers the
 * jackhmmer survivor carry-over, the nhmmer window pipeline, stage
 * counter accounting, and the thread clamp.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "bio/seqgen.hh"
#include "msa/dbgen.hh"
#include "msa/jackhmmer.hh"
#include "msa/nhmmer.hh"
#include "msa/search.hh"
#include "util/units.hh"

namespace afsb::msa {
namespace {

using bio::MoleculeType;
using bio::Sequence;

/** Exact comparison of two scan results (hit scores included). */
void
expectIdentical(const SearchResult &a, const SearchResult &b)
{
    EXPECT_EQ(a.stats.targetsScanned, b.stats.targetsScanned);
    EXPECT_EQ(a.stats.residuesScanned, b.stats.residuesScanned);
    EXPECT_EQ(a.stats.msvPassed, b.stats.msvPassed);
    EXPECT_EQ(a.stats.viterbiPassed, b.stats.viterbiPassed);
    EXPECT_EQ(a.stats.domainsScored, b.stats.domainsScored);
    EXPECT_EQ(a.stats.hits, b.stats.hits);
    EXPECT_EQ(a.stats.cellsMsv, b.stats.cellsMsv);
    EXPECT_EQ(a.stats.cellsViterbi, b.stats.cellsViterbi);
    EXPECT_EQ(a.stats.cellsForward, b.stats.cellsForward);
    EXPECT_EQ(a.stats.bytesStreamed, b.stats.bytesStreamed);
    ASSERT_EQ(a.hits.size(), b.hits.size());
    for (size_t i = 0; i < a.hits.size(); ++i) {
        EXPECT_EQ(a.hits[i].targetIndex, b.hits[i].targetIndex);
        EXPECT_EQ(a.hits[i].viterbiScore, b.hits[i].viterbiScore);
        EXPECT_EQ(a.hits[i].forwardLogOdds,
                  b.hits[i].forwardLogOdds);
    }
    ASSERT_EQ(a.msvSurvivors.size(), b.msvSurvivors.size());
    for (size_t i = 0; i < a.msvSurvivors.size(); ++i)
        EXPECT_EQ(a.msvSurvivors[i], b.msvSurvivors[i]);
}

struct OverlapFixture : public ::testing::Test
{
    void
    SetUp() override
    {
        bio::SequenceGenerator gen(4242);
        // A mildly low-complexity query inflates the survivor set
        // (paper Observation 2), which is exactly the skew the
        // dynamic survivor stage exists to balance.
        query = gen.withHomopolymer("q", 200, 48, 'Q');

        DbGenConfig cfg;
        cfg.decoyCount = 600;
        cfg.homologsPerQuery = 10;
        cfg.fragmentsPerQuery = 8;
        cfg.lowComplexityFraction = 0.1;
        const std::vector<const Sequence *> queries = {&query};
        generateDatabase(vfs, "prot.fasta", queries,
                         MoleculeType::Protein, cfg);
        cache = std::make_unique<io::PageCache>(1 * GiB, &dev);
        db = SequenceDatabase::load(vfs, *cache, "prot.fasta",
                                    MoleculeType::Protein, 0.0);
        prof = std::make_unique<ProfileHmm>(
            ProfileHmm::fromSequence(query,
                                     ScoreMatrix::blosum62()));
    }

    SearchResult
    scan(ThreadPool *pool, size_t threads, bool overlap,
         const std::vector<uint32_t> *priority = nullptr)
    {
        SearchConfig cfg;
        cfg.threads = threads;
        cfg.overlap = overlap;
        cfg.priorityTargets = priority;
        return searchDatabase(*prof, db, *cache, pool, cfg);
    }

    Sequence query;
    io::Vfs vfs;
    io::StorageDevice dev;
    std::unique_ptr<io::PageCache> cache;
    SequenceDatabase db;
    std::unique_ptr<ProfileHmm> prof;
};

TEST_F(OverlapFixture, MatchesStaticPathAcrossThreadCounts)
{
    const auto reference = scan(nullptr, 1, false);
    EXPECT_GT(reference.stats.msvPassed, 0u);
    EXPECT_GT(reference.hits.size(), 0u);
    for (size_t threads : {1u, 2u, 4u, 8u}) {
        ThreadPool pool(threads);
        const auto overlapped = scan(&pool, threads, true);
        const auto fixed = scan(&pool, threads, false);
        expectIdentical(reference, overlapped);
        expectIdentical(reference, fixed);
    }
}

TEST_F(OverlapFixture, RepeatedOverlappedRunsAreIdentical)
{
    ThreadPool pool(8);
    const auto a = scan(&pool, 8, true);
    const auto b = scan(&pool, 8, true);
    expectIdentical(a, b);
}

TEST_F(OverlapFixture, PriorityOrderingNeverChangesHits)
{
    ThreadPool pool(4);
    const auto first = scan(&pool, 4, true);
    ASSERT_FALSE(first.msvSurvivors.empty());
    const auto prioritized =
        scan(&pool, 4, true, &first.msvSurvivors);
    expectIdentical(first, prioritized);
}

TEST_F(OverlapFixture, StageCountersAccountForTheScan)
{
    for (size_t threads : {2u, 4u, 8u}) {
        SCOPED_TRACE(threads);
        ThreadPool pool(threads);
        const auto r = scan(&pool, threads, true);
        const auto &st = r.stats.stages;
        EXPECT_EQ(st.overlappedScans, 1u);
        EXPECT_GT(st.chunks, 1u);
        EXPECT_EQ(st.workersUsed, threads);
        // Every MSV survivor reached the rescore stage exactly once
        // (as its own task, or in place under backpressure).
        EXPECT_EQ(st.survivorsQueued, r.stats.msvPassed);
        EXPECT_LE(st.survivorsInline, st.survivorsQueued);
        // Idle workers steal; nothing waits on a chunk.
        EXPECT_EQ(st.chunkWaits, 0u);
        // The prefetch reader streamed the whole FASTA once.
        EXPECT_EQ(st.reader.bytesCopied, r.stats.bytesStreamed);
        EXPECT_EQ(r.stats.bytesStreamed,
                  vfs.size(*vfs.open("prot.fasta")));
        EXPECT_GT(st.msvSeconds, 0.0);
        EXPECT_GT(st.wallSeconds, 0.0);
        EXPECT_GT(st.occupancy(), 0.0);
        EXPECT_LE(st.occupancy(), 1.0 + 1e-9);
    }
}

TEST_F(OverlapFixture, ColdCacheStreamsFromDisk)
{
    ThreadPool pool(4);
    cache->dropAll();
    const auto cold = scan(&pool, 4, true);
    EXPECT_GT(cold.stats.bytesFromDisk, 0u);
    EXPECT_GT(cold.stats.ioLatency, 0.0);
    EXPECT_EQ(cold.stats.stages.reader.bytesFromDisk,
              cold.stats.bytesFromDisk);

    // Warm rescan: everything resident now.
    const auto warm = scan(&pool, 4, true);
    EXPECT_EQ(warm.stats.bytesFromDisk, 0u);
    expectIdentical(cold, warm);
}

TEST_F(OverlapFixture, ThreadClampStillScansEverything)
{
    ThreadPool pool(2);
    // threads > pool size: clamps (with a warning) and still works.
    const auto clamped = scan(&pool, 16, true);
    expectIdentical(scan(nullptr, 1, false), clamped);
    EXPECT_EQ(clamped.stats.stages.workersUsed, 2u);
}

TEST(OverlapJackhmmer, CarryAndOverlapNeverChangeTheMsa)
{
    bio::SequenceGenerator gen(777);
    const auto query =
        gen.random("q", MoleculeType::Protein, 160);
    io::Vfs vfs;
    io::StorageDevice dev;
    io::PageCache cache(1 * GiB, &dev);
    DbGenConfig dcfg;
    dcfg.decoyCount = 300;
    dcfg.homologsPerQuery = 8;
    const std::vector<const Sequence *> queries = {&query};
    generateDatabase(vfs, "db.fasta", queries,
                     MoleculeType::Protein, dcfg);
    const auto db = SequenceDatabase::load(
        vfs, cache, "db.fasta", MoleculeType::Protein, 0.0);

    ThreadPool pool(4);
    // Rounds after the first carry the previous round's survivors
    // as priority hints, so the overlapped run also exercises them.
    auto run = [&](bool overlap) {
        JackhmmerConfig cfg;
        cfg.iterations = 3;
        cfg.search.threads = 4;
        cfg.search.overlap = overlap;
        return runJackhmmer(query, db, cache, &pool, cfg);
    };
    const auto base = run(false);
    const auto carried = run(true);
    EXPECT_EQ(base.msa.rows, carried.msa.rows);
    EXPECT_EQ(base.rounds, carried.rounds);
    EXPECT_EQ(base.stats.hits, carried.stats.hits);
    EXPECT_EQ(base.stats.msvPassed, carried.stats.msvPassed);
    EXPECT_EQ(base.stats.cellsViterbi, carried.stats.cellsViterbi);
    ASSERT_EQ(base.perRound.size(), carried.perRound.size());
    for (size_t r = 0; r < base.perRound.size(); ++r) {
        EXPECT_EQ(base.perRound[r].msvPassed,
                  carried.perRound[r].msvPassed);
        EXPECT_EQ(base.perRound[r].hits, carried.perRound[r].hits);
    }
}

TEST(OverlapNhmmer, WindowScanMatchesStaticPath)
{
    bio::SequenceGenerator gen(888);
    const auto query = gen.random("q", MoleculeType::Rna, 90);
    io::Vfs vfs;
    io::StorageDevice dev;
    io::PageCache cache(1 * GiB, &dev);
    DbGenConfig dcfg;
    dcfg.decoyCount = 120;
    dcfg.homologsPerQuery = 6;
    const std::vector<const Sequence *> queries = {&query};
    generateDatabase(vfs, "rna.fasta", queries, MoleculeType::Rna,
                     dcfg);
    const auto db = SequenceDatabase::load(
        vfs, cache, "rna.fasta", MoleculeType::Rna, 0.0);

    auto run = [&](ThreadPool *pool, size_t threads, bool overlap) {
        NhmmerConfig cfg;
        cfg.search.threads = threads;
        cfg.search.overlap = overlap;
        return runNhmmer(query, db, cache, pool, cfg);
    };
    // NhmmerResult keeps no hit list; the MSA's row ids are the
    // accepted hits in hit order, and alignCells sums their DP.
    const auto reference = run(nullptr, 1, false);
    ASSERT_GT(reference.msa.depth(), 1u);
    for (size_t threads : {0u, 1u, 2u, 4u}) {
        std::unique_ptr<ThreadPool> pool;
        if (threads > 0)
            pool = std::make_unique<ThreadPool>(threads);
        for (bool overlap : {false, true}) {
            SCOPED_TRACE(testing::Message() << "pool " << threads
                                            << " overlap " << overlap);
            const auto r =
                run(pool.get(), std::max<size_t>(1, threads), overlap);
            EXPECT_EQ(r.windowsScanned, reference.windowsScanned);
            EXPECT_EQ(r.stats.targetsScanned,
                      reference.stats.targetsScanned);
            EXPECT_EQ(r.stats.msvPassed, reference.stats.msvPassed);
            EXPECT_EQ(r.stats.viterbiPassed,
                      reference.stats.viterbiPassed);
            EXPECT_EQ(r.stats.cellsMsv, reference.stats.cellsMsv);
            EXPECT_EQ(r.stats.cellsViterbi,
                      reference.stats.cellsViterbi);
            EXPECT_EQ(r.stats.cellsForward,
                      reference.stats.cellsForward);
            EXPECT_EQ(r.stats.hits, reference.stats.hits);
            EXPECT_EQ(r.stats.bytesStreamed,
                      reference.stats.bytesStreamed);
            EXPECT_EQ(r.stats.stages.overlappedScans,
                      overlap && threads > 1 ? 1u : 0u);
            EXPECT_EQ(r.msa.alignCells, reference.msa.alignCells);
            EXPECT_EQ(r.msa.rowIds, reference.msa.rowIds);
            EXPECT_EQ(r.msa.rows, reference.msa.rows);
        }
    }
}

} // namespace
} // namespace afsb::msa
