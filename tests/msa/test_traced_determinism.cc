/**
 * @file
 * Traced-path determinism regression tests.
 *
 * The traced (sink-attached) kernels are the stability contract for
 * the cache simulator: their reference streams, instruction/branch
 * counts, and arithmetic results must stay byte-identical across
 * refactors, or every simulated per-platform number in the paper
 * regeneration drifts. These tests hash the full trace stream
 * (FNV-1a over every access, instruction batch, and branch batch)
 * and compare against goldens captured from the pre-optimization
 * scalar kernels — the native striped path must never leak into a
 * traced run.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "bio/seqgen.hh"
#include "msa/dbgen.hh"
#include "msa/dp_kernels.hh"
#include "msa/nhmmer.hh"
#include "msa/search.hh"
#include "util/units.hh"

namespace afsb::msa {
namespace {

/** FNV-1a over the entire sink event stream. */
class HashSink : public MemTraceSink
{
  public:
    uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
    uint64_t instr = 0, pred = 0, dataDep = 0;

    void mix(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    }

    void access(const MemAccess &a) override
    {
        mix(a.addr);
        mix((static_cast<uint64_t>(a.size) << 32) |
            (a.write ? 1 : 0));
        mix(a.func);
    }

    void instructions(FuncId func, uint64_t count) override
    {
        mix(0xAAA);
        mix(func);
        mix(count);
        instr += count;
    }

    void branches(FuncId func, uint64_t predictable,
                  uint64_t data_dependent) override
    {
        mix(0xBBB);
        mix(func);
        mix(predictable);
        mix(data_dependent);
        pred += predictable;
        dataDep += data_dependent;
    }
};

double
doubleFromBits(uint64_t bits)
{
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
}

/** The shared fixture input: seed-42 protein query/target pair with
 *  sampled tracing and a paper-scale stream base. */
struct TracedCase
{
    bio::SequenceGenerator gen{42};
    bio::Sequence q =
        gen.random("q", bio::MoleculeType::Protein, 160);
    bio::Sequence t =
        gen.random("t", bio::MoleculeType::Protein, 230);
    ProfileHmm prof =
        ProfileHmm::fromSequence(q, ScoreMatrix::blosum62());
    KernelConfig cfg;

    TracedCase()
    {
        cfg.traceStride = 4;
        cfg.targetBase = 0x6000'0000'0000ull;
        // FuncIds are interned lazily into a process-global registry,
        // so their numeric values depend on which kernels ran first in
        // this process. Each gtest case runs in its own process under
        // ctest; pin the intern order the goldens were captured with.
        wellknown::calcBand9();
        wellknown::calcBand10();
    }
};

TEST(TracedDeterminism, CalcBand9GoldenTrace)
{
    TracedCase c;
    HashSink sink;
    const auto r = calcBand9(c.prof, c.t, c.cfg, &sink);
    EXPECT_EQ(r.score, 26);
    EXPECT_EQ(r.cells, 31004u);
    EXPECT_EQ(sink.h, 0xcde317c186b6069dull);
    EXPECT_EQ(sink.instr, 37204u);
    EXPECT_EQ(sink.pred, 3875u);
    EXPECT_EQ(sink.dataDep, 3875u);
}

TEST(TracedDeterminism, CalcBand10GoldenTrace)
{
    TracedCase c;
    HashSink sink;
    const auto r = calcBand10(c.prof, c.t, c.cfg, &sink);
    EXPECT_EQ(r.cells, 31004u);
    EXPECT_EQ(sink.h, 0x2277b14b612a89f7ull);
    EXPECT_EQ(sink.instr, 49606u);
    EXPECT_DOUBLE_EQ(r.logOdds,
                     doubleFromBits(0x4021d4e488a1fef0ull));
}

TEST(TracedDeterminism, RepeatRunsAreByteIdentical)
{
    // Same inputs, two runs: the hashes must agree exactly — the
    // trace may not depend on allocator layout or ASLR.
    TracedCase c;
    HashSink a, b;
    (void)calcBand9(c.prof, c.t, c.cfg, &a);
    (void)calcBand9(c.prof, c.t, c.cfg, &b);
    EXPECT_EQ(a.h, b.h);
    HashSink fa, fb;
    (void)calcBand10(c.prof, c.t, c.cfg, &fa);
    (void)calcBand10(c.prof, c.t, c.cfg, &fb);
    EXPECT_EQ(fa.h, fb.h);
}

TEST(TracedDeterminism, MsvGoldenAgainstScalarResult)
{
    // MSV shares calcBand9's FuncId; pin its traced result and
    // stream against an in-run scalar reference rather than a fixed
    // constant (the score is input-derived either way).
    TracedCase c;
    HashSink a, b;
    const auto r1 = msvFilter(c.prof, c.t, c.cfg, &a);
    const auto r2 = msvFilter(c.prof, c.t, c.cfg, &b);
    EXPECT_EQ(a.h, b.h);
    EXPECT_EQ(r1.score, r2.score);
    KernelConfig scalar = c.cfg;
    scalar.forceScalar = true;
    EXPECT_EQ(r1.score, msvFilter(c.prof, c.t, scalar).score);
}

TEST(TracedDeterminism, TracedScanIgnoresOverlapKnobs)
{
    // A sink-attached database scan must take the scalar static
    // path regardless of the overlap configuration: the whole trace
    // stream (reader functions included) has to stay byte-identical
    // whether the staged pipeline is requested or not, with or
    // without priority hints. Golden pinned from the pre-overlap
    // scan path.
    wellknown::calcBand9();
    wellknown::calcBand10();

    bio::SequenceGenerator gen(42);
    const auto query =
        gen.random("q", bio::MoleculeType::Protein, 120);
    io::Vfs vfs;
    io::StorageDevice dev;
    io::PageCache cache(1 * GiB, &dev);
    DbGenConfig dcfg;
    dcfg.decoyCount = 40;
    dcfg.homologsPerQuery = 4;
    dcfg.fragmentsPerQuery = 2;
    const std::vector<const bio::Sequence *> queries = {&query};
    generateDatabase(vfs, "t.fasta", queries,
                     bio::MoleculeType::Protein, dcfg);
    const auto db = SequenceDatabase::load(
        vfs, cache, "t.fasta", bio::MoleculeType::Protein, 0.0);
    const auto prof =
        ProfileHmm::fromSequence(query, ScoreMatrix::blosum62());

    auto tracedHash = [&](bool overlap,
                          const std::vector<uint32_t> *prio) {
        SearchConfig cfg;
        cfg.threads = 1;
        cfg.overlap = overlap;
        cfg.priorityTargets = prio;
        cfg.kernel.traceStride = 4;
        HashSink sink;
        const std::vector<MemTraceSink *> sinks = {&sink};
        const auto r =
            searchDatabase(prof, db, cache, nullptr, cfg, 0.0, sinks);
        EXPECT_EQ(r.stats.stages.overlappedScans, 0u);
        return sink.h;
    };

    const uint64_t base = tracedHash(false, nullptr);
    EXPECT_EQ(base, tracedHash(true, nullptr));
    std::vector<uint32_t> prio = {5, 3, 1};
    EXPECT_EQ(base, tracedHash(true, &prio));
    EXPECT_EQ(base, 0xb68f18131503b870ull);
}

/**
 * HashSink keyed by function *name* rather than FuncId, so the hash
 * does not depend on the order this process interned the ids in
 * (earlier tests in the same process intern other names first).
 */
class NamedHashSink : public HashSink
{
  public:
    void access(const MemAccess &a) override
    {
        HashSink::access({a.addr, a.size, a.write, 0});
        mix(nameKey(a.func));
    }

    void instructions(FuncId func, uint64_t count) override
    {
        HashSink::instructions(0, count);
        mix(nameKey(func));
    }

    void branches(FuncId func, uint64_t predictable,
                  uint64_t data_dependent) override
    {
        HashSink::branches(0, predictable, data_dependent);
        mix(nameKey(func));
    }

  private:
    static uint64_t
    nameKey(FuncId f)
    {
        uint64_t k = 1469598103934665603ull;
        for (char c : FuncRegistry::global().name(f)) {
            k ^= static_cast<unsigned char>(c);
            k *= 1099511628211ull;
        }
        return k;
    }
};

/**
 * Intern every FuncId a traced scan uses before its workers start:
 * FuncRegistry is not synchronized, so workers must only read it.
 */
void
pinFuncIds()
{
    wellknown::calcBand9();
    wellknown::calcBand10();
    wellknown::addbuf();
    wellknown::seebuf();
    wellknown::copyToIter();
    wellknown::msvFilter();
}

/** Fold per-worker sink hashes (in worker order) into one value. */
uint64_t
combinedHash(const std::vector<NamedHashSink> &sinks)
{
    HashSink all;
    for (const auto &s : sinks) {
        all.mix(s.h);
        all.mix(s.instr);
        all.mix(s.pred);
        all.mix(s.dataDep);
    }
    return all.h;
}

TEST(TracedDeterminism, TracedScanEqualSplitGolden)
{
    // Two workers, two sinks: the traced equal split hands each
    // worker one contiguous half of the database, and each sink's
    // stream is part of the simulator contract.
    pinFuncIds();
    bio::SequenceGenerator gen(42);
    const auto query =
        gen.random("q", bio::MoleculeType::Protein, 120);
    io::Vfs vfs;
    io::StorageDevice dev;
    io::PageCache cache(1 * GiB, &dev);
    DbGenConfig dcfg;
    dcfg.decoyCount = 40;
    dcfg.homologsPerQuery = 4;
    dcfg.fragmentsPerQuery = 2;
    const std::vector<const bio::Sequence *> queries = {&query};
    generateDatabase(vfs, "t.fasta", queries,
                     bio::MoleculeType::Protein, dcfg);
    const auto db = SequenceDatabase::load(
        vfs, cache, "t.fasta", bio::MoleculeType::Protein, 0.0);
    const auto prof =
        ProfileHmm::fromSequence(query, ScoreMatrix::blosum62());

    ThreadPool pool(2);
    SearchConfig cfg;
    cfg.threads = 2;
    cfg.kernel.traceStride = 4;
    std::vector<NamedHashSink> sinks(2);
    const std::vector<MemTraceSink *> ptrs = {&sinks[0], &sinks[1]};
    const auto r =
        searchDatabase(prof, db, cache, &pool, cfg, 0.0, ptrs);
    EXPECT_EQ(r.stats.stages.overlappedScans, 0u);
    EXPECT_EQ(sinks[0].h, 0x45468744e8df2ac6ull);
    EXPECT_EQ(sinks[1].h, 0x9acbb425da23b8f1ull);
    EXPECT_EQ(combinedHash(sinks), 0xc7a72d8d2c2d2774ull);
}

/** Traced nhmmer over a small RNA database with @p workers sinks. */
uint64_t
tracedNhmmerHash(size_t workers)
{
    pinFuncIds();
    bio::SequenceGenerator gen(888);
    const auto query = gen.random("q", bio::MoleculeType::Rna, 90);
    io::Vfs vfs;
    io::StorageDevice dev;
    io::PageCache cache(1 * GiB, &dev);
    DbGenConfig dcfg;
    dcfg.decoyCount = 60;
    dcfg.homologsPerQuery = 4;
    const std::vector<const bio::Sequence *> queries = {&query};
    generateDatabase(vfs, "rna.fasta", queries,
                     bio::MoleculeType::Rna, dcfg);
    const auto db = SequenceDatabase::load(
        vfs, cache, "rna.fasta", bio::MoleculeType::Rna, 0.0);

    NhmmerConfig cfg;
    cfg.search.threads = workers;
    cfg.search.kernel.traceStride = 4;
    std::vector<NamedHashSink> sinks(workers);
    std::vector<MemTraceSink *> ptrs;
    for (auto &s : sinks)
        ptrs.push_back(&s);
    std::unique_ptr<ThreadPool> pool;
    if (workers > 1)
        pool = std::make_unique<ThreadPool>(workers);
    const auto r =
        runNhmmer(query, db, cache, pool.get(), cfg, 0.0, ptrs);
    EXPECT_EQ(r.stats.stages.overlappedScans, 0u);
    EXPECT_GT(r.stats.msvPassed, 0u);
    return combinedHash(sinks);
}

TEST(TracedDeterminism, NhmmerTracedOneSinkGolden)
{
    EXPECT_EQ(tracedNhmmerHash(1), 0x8562bcb62032bf71ull);
}

TEST(TracedDeterminism, NhmmerTracedTwoSinksGolden)
{
    EXPECT_EQ(tracedNhmmerHash(2), 0x016bb504c565e323ull);
}

} // namespace
} // namespace afsb::msa
