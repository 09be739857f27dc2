/**
 * @file
 * MSA assembly across pool sizes: hits are re-aligned in parallel,
 * rows assembled in hit order, so rows, row ids and traceback cells
 * must be byte-identical with no pool and at every pool size —
 * including calls nested inside a task and the full jackhmmer and
 * nhmmer searches.
 */

#include <gtest/gtest.h>

#include <memory>

#include "bio/fasta.hh"
#include "bio/seqgen.hh"
#include "msa/dbgen.hh"
#include "msa/jackhmmer.hh"
#include "msa/msa_builder.hh"
#include "msa/nhmmer.hh"
#include "util/rng.hh"
#include "util/task.hh"
#include "util/units.hh"

namespace afsb::msa {
namespace {

using bio::MoleculeType;
using bio::Sequence;

void
expectSameMsa(const MsaResult &a, const MsaResult &b)
{
    EXPECT_EQ(a.rows, b.rows);
    EXPECT_EQ(a.rowIds, b.rowIds);
    EXPECT_EQ(a.alignCells, b.alignCells);
    EXPECT_EQ(a.queryLength, b.queryLength);
}

/**
 * A hand-made database whose hits exercise every branch of row
 * assembly: homologs (kept), short fragments (rejected for their
 * gap fraction), poly-W runs the W/F/Y-free query cannot score
 * above zero (rejected for score), and random decoys.
 */
class MsaBuilder : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        bio::SequenceGenerator gen(4242);
        std::string q = gen.random("q", MoleculeType::Protein, 120)
                            .toString();
        for (char &c : q)
            if (c == 'W' || c == 'F' || c == 'Y')
                c = 'A';
        query = Sequence("q", MoleculeType::Protein, q);

        std::vector<Sequence> seqs;
        for (int i = 0; i < 24; ++i) {
            const std::string id = std::to_string(i);
            seqs.push_back(gen.mutate(query, "hom" + id));
            seqs.push_back(gen.embedFragment(query, "frag" + id, 20, 40));
            seqs.push_back(Sequence("polyW" + id, MoleculeType::Protein,
                                    std::string(10 + i, 'W')));
            seqs.push_back(gen.random("decoy" + id,
                                      MoleculeType::Protein, 150));
        }
        vfs.createFile("db.fasta", bio::writeFasta(seqs));
        db = SequenceDatabase::load(vfs, *cache, "db.fasta",
                                    MoleculeType::Protein, 0.0);

        // Hits in a shuffled order: assembly must follow it.
        std::vector<size_t> order(db.size());
        for (size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        Rng rng(7);
        for (size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.nextBounded(i)]);
        for (size_t idx : order) {
            Hit h;
            h.targetIndex = idx;
            hits.hits.push_back(h);
        }
        prof = ProfileHmm::fromSequence(query, ScoreMatrix::blosum62());
    }

    Sequence query;
    ProfileHmm prof;
    io::Vfs vfs;
    io::StorageDevice dev;
    std::unique_ptr<io::PageCache> cache =
        std::make_unique<io::PageCache>(1 * GiB, &dev);
    SequenceDatabase db;
    SearchResult hits;
};

TEST_F(MsaBuilder, PoolSweepIsByteIdentical)
{
    for (size_t maxRows : {size_t{7}, size_t{40}, size_t{1000}}) {
        SCOPED_TRACE("maxRows " + std::to_string(maxRows));
        MsaBuildConfig cfg;
        cfg.maxRows = maxRows;
        const MsaResult serial = buildMsa(query, prof, db, hits, cfg);

        // The sweep must cover both rejections and the row cap.
        const size_t take = std::min(maxRows, hits.hits.size());
        size_t lowScore = 0, gappy = 0;
        for (size_t h = 0; h < take; ++h) {
            const auto aln = alignToProfile(
                prof, db.sequences()[hits.hits[h].targetIndex]);
            if (aln.score <= 0) {
                ++lowScore;
                continue;
            }
            size_t placed = 0;
            for (int32_t t : aln.profileToTarget)
                placed += t >= 0;
            gappy += 1.0 - static_cast<double>(placed) /
                               static_cast<double>(query.length()) >
                     cfg.maxGapFraction;
        }
        if (maxRows >= 40) {
            EXPECT_GT(lowScore, 0u);
            EXPECT_GT(gappy, 0u);
        }
        EXPECT_EQ(serial.depth(), 1 + take - lowScore - gappy);

        for (size_t threads : {1u, 2u, 3u, 8u}) {
            SCOPED_TRACE("pool " + std::to_string(threads));
            ThreadPool pool(threads);
            expectSameMsa(buildMsa(query, prof, db, hits, cfg, &pool),
                          serial);
        }
    }
}

TEST_F(MsaBuilder, NestedCallsRunInline)
{
    const MsaResult serial = buildMsa(query, prof, db, hits);
    ThreadPool pool(3);

    // From a task of a group on the same pool.
    MsaResult fromTask;
    TaskGroup group(&pool);
    group.spawn([&] {
        fromTask = buildMsa(query, prof, db, hits, {}, &pool);
    });
    group.sync();
    expectSameMsa(fromTask, serial);

    // From a pool worker.
    MsaResult fromWorker;
    pool.submit([&] {
        fromWorker = buildMsa(query, prof, db, hits, {}, &pool);
    });
    pool.wait();
    expectSameMsa(fromWorker, serial);
}

TEST(MsaBuilderSearch, JackhmmerSameWithAndWithoutPool)
{
    bio::SequenceGenerator gen(77);
    const auto query = gen.random("q", MoleculeType::Protein, 140);
    io::Vfs vfs;
    io::StorageDevice dev;
    io::PageCache cache(1 * GiB, &dev);
    DbGenConfig dbCfg;
    dbCfg.decoyCount = 150;
    dbCfg.homologsPerQuery = 12;
    dbCfg.fragmentsPerQuery = 6;
    generateDatabase(vfs, "db.fasta", {&query}, MoleculeType::Protein,
                     dbCfg);
    const auto db = SequenceDatabase::load(vfs, cache, "db.fasta",
                                           MoleculeType::Protein, 0.0);

    JackhmmerConfig cfg;
    const auto serial = runJackhmmer(query, db, cache, nullptr, cfg);
    ASSERT_GE(serial.msa.depth(), 5u);
    for (size_t threads : {2u, 3u}) {
        SCOPED_TRACE("pool " + std::to_string(threads));
        ThreadPool pool(threads);
        JackhmmerConfig pooled = cfg;
        pooled.search.threads = threads;
        const auto r = runJackhmmer(query, db, cache, &pool, pooled);
        expectSameMsa(r.msa, serial.msa);
        EXPECT_EQ(r.stats.cellsViterbi, serial.stats.cellsViterbi);
    }
}

TEST(MsaBuilderSearch, NhmmerSameWithAndWithoutPool)
{
    bio::SequenceGenerator gen(909);
    const auto query = gen.random("q", MoleculeType::Rna, 120);
    io::Vfs vfs;
    io::StorageDevice dev;
    io::PageCache cache(1 * GiB, &dev);
    DbGenConfig dbCfg;
    dbCfg.decoyCount = 80;
    dbCfg.decoyMinLen = 150;
    dbCfg.decoyMaxLen = 400;
    dbCfg.homologsPerQuery = 6;
    dbCfg.fragmentsPerQuery = 4;
    generateDatabase(vfs, "rna.fasta", {&query}, MoleculeType::Rna, dbCfg);
    const auto db = SequenceDatabase::load(vfs, cache, "rna.fasta",
                                           MoleculeType::Rna, 0.0);

    NhmmerConfig cfg;
    const auto serial = runNhmmer(query, db, cache, nullptr, cfg);
    ASSERT_GE(serial.msa.depth(), 3u);
    ThreadPool pool(3);
    NhmmerConfig pooled = cfg;
    pooled.search.threads = 3;
    expectSameMsa(runNhmmer(query, db, cache, &pool, pooled).msa,
                  serial.msa);
}

} // namespace
} // namespace afsb::msa
