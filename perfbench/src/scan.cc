/**
 * @file
 * Workload `scan`: untraced msa::runJackhmmer (2 rounds, task-engine
 * staged scan) over every distinct protein chain of 2PV7 and promo,
 * against the workspace protein database built from the seed.
 */

#include "bench.hh"

#include "bio/samples.hh"
#include "core/workspace.hh"
#include "io/pagecache.hh"
#include "io/storage.hh"
#include "msa/dp_kernels.hh"
#include "msa/jackhmmer.hh"
#include "msa/score_matrix.hh"
#include "util/threadpool.hh"
#include "util/units.hh"

namespace perfbench {

namespace {

using namespace afsb;

/** Targets in the single-threaded kernel-rate sample. */
constexpr size_t kKernelTargets = 256;

void
digestStats(Digest &d, const msa::SearchStats &s)
{
    for (uint64_t v : {s.targetsScanned, s.residuesScanned, s.msvPassed,
                       s.viterbiPassed, s.domainsScored, s.hits,
                       s.cellsMsv, s.cellsViterbi, s.cellsForward,
                       s.bytesStreamed, s.bytesFromDisk})
        d.value(v);
}

class ScanWorkload : public Workload
{
  public:
    explicit ScanWorkload(const HostInfo &host) : threads_(host.nproc) {}

    std::string opName() const override { return "scan_s"; }

    std::string
    threadBudget() const override
    {
        return "runJackhmmer: task group borrows " +
               std::to_string(threads_ - 1) + " of a " +
               std::to_string(threads_) +
               "-worker pool + calling thread (" +
               std::to_string(threads_) + " threads)";
    }

    void
    makeInputs(uint64_t seed) override
    {
        wsConfig_.seed = subSeed(seed, 11);
        queries_.clear();
        for (const char *name : {"2PV7", "promo"}) {
            const auto sample = bio::makeSample(name);
            for (const auto &chain : sample.complex.chains()) {
                if (chain.type() != bio::MoleculeType::Protein)
                    continue;
                bool seen = false;
                for (const auto &q : queries_)
                    seen |= q.toString() == chain.toString();
                if (!seen) // AF3 searches identical chains once
                    queries_.push_back(chain);
            }
        }
    }

    void
    setup() override
    {
        workspace_.reset();
        pool_.reset();
        workspace_ = std::make_unique<core::Workspace>(wsConfig_);
        pool_ = std::make_unique<ThreadPool>(threads_);
    }

    std::string
    runOp() override
    {
        return search(pool_.get(), threads_, nullptr);
    }

    std::string
    tracedOp(Tracer &tracer) override
    {
        const std::string digest = search(pool_.get(), threads_, &tracer);
        tracedStats_.push_back(lastStats_);
        return digest;
    }

    void
    layerMetrics(Tracer &tracer, const HostInfo &, double op_seconds,
                 LayerMetrics &out, Checks &checks) override
    {
        const msa::SearchStats &s = tracedStats_.back();
        out["msa.targets"] = static_cast<double>(s.targetsScanned);
        out["msa.msv_cells"] = static_cast<double>(s.cellsMsv);
        out["msa.viterbi_cells"] = static_cast<double>(s.cellsViterbi);
        out["msa.forward_cells"] = static_cast<double>(s.cellsForward);
        out["msa.hits"] = static_cast<double>(s.hits);
        out["msa.msv_pass_ratio"] = s.msvPassRate();
        out["msa.viterbi_pass_ratio"] =
            s.msvPassed ? static_cast<double>(s.viterbiPassed) /
                              static_cast<double>(s.msvPassed)
                        : 0.0;
        out["io.bytes_streamed"] = static_cast<double>(s.bytesStreamed);
        out["io.bytes_from_disk"] = static_cast<double>(s.bytesFromDisk);

        // Stage attribution: medians over the traced operations.
        std::vector<double> wall, io, msv, band, occ, cw, pw, inl;
        for (const auto &st : tracedStats_) {
            wall.push_back(st.stages.wallSeconds);
            io.push_back(st.stages.ioSeconds);
            msv.push_back(st.stages.msvSeconds);
            band.push_back(st.stages.bandSeconds);
            occ.push_back(st.stages.occupancy());
            cw.push_back(static_cast<double>(st.stages.chunkWaits));
            pw.push_back(static_cast<double>(st.stages.producerWaits));
            inl.push_back(static_cast<double>(st.stages.survivorsInline));
        }
        out["msa.scan_wall_s"] = afsb::medianOf(wall);
        out["msa.stage_io_s"] = afsb::medianOf(io);
        out["msa.stage_msv_s"] = afsb::medianOf(msv);
        out["msa.stage_band_s"] = afsb::medianOf(band);
        out["msa.stage_occupancy"] = afsb::medianOf(occ);
        out["msa.chunk_waits"] = afsb::medianOf(cw);
        out["msa.producer_waits"] = afsb::medianOf(pw);
        out["msa.survivors_inline"] = afsb::medianOf(inl);
        out["msa.build_s"] =
            medianPerOp(tracer, "msa.jackhmmer") - afsb::medianOf(wall);

        // Serial baseline: same search, no pool.
        std::vector<double> serial;
        for (int rep = 0; rep < 2; ++rep) {
            SpanScope span(&tracer, "msa.jackhmmer_1t");
            const auto t0 = Clock::now();
            const std::string digest = search(nullptr, 1, nullptr);
            serial.push_back(secondsSince(t0));
            checks.expect(digest == lastDigest_,
                          "single-threaded scan digest");
        }
        out["msa.scan_1t_s"] = afsb::medianOf(serial);
        out["msa.scaling_eff"] =
            afsb::medianOf(serial) / (op_seconds * static_cast<double>(threads_));

        kernelRates(tracer, out, checks);
    }

  private:
    std::string
    search(ThreadPool *pool, size_t threads, Tracer *tracer)
    {
        // A cold page cache per operation keeps the I/O counters
        // identical from one operation to the next.
        io::StorageDevice device;
        io::PageCache cache(4 * GiB, &device);
        msa::JackhmmerConfig cfg;
        cfg.iterations = 2;
        cfg.search.threads = threads;
        msa::SearchStats total;
        Digest d;
        for (const auto &q : queries_) {
            SpanScope span(tracer, "msa.jackhmmer");
            const auto r = msa::runJackhmmer(q, workspace_->proteinDb(),
                                             cache, pool, cfg);
            total.merge(r.stats);
            for (size_t i = 0; i < r.msa.rows.size(); ++i) {
                d.text(r.msa.rowIds[i]);
                d.text(r.msa.rows[i]);
            }
        }
        digestStats(d, total);
        lastStats_ = total;
        lastDigest_ = d.hex();
        return lastDigest_;
    }

    /**
     * Single-threaded ns per DP cell of each hot kernel over a fixed
     * target sample, every kernel on every target.
     */
    void
    kernelRates(Tracer &tracer, LayerMetrics &out, Checks &checks)
    {
        const auto prof = msa::ProfileHmm::fromSequence(
            queries_.front(), msa::ScoreMatrix::blosum62());
        const auto &seqs = workspace_->proteinDb().sequences();
        const size_t n = std::min(kKernelTargets, seqs.size());
        auto rate = [&](const char *name, auto &&kernel) {
            std::vector<double> nsPerCell;
            int64_t firstScore = 0;
            for (int rep = 0; rep < 3; ++rep) {
                SpanScope span(&tracer, std::string("msa.") + name);
                uint64_t cells = 0;
                int64_t score = 0;
                const auto t0 = Clock::now();
                for (size_t i = 0; i < n; ++i)
                    kernel(seqs[i], cells, score);
                nsPerCell.push_back(secondsSince(t0) * 1e9 /
                                    static_cast<double>(cells));
                if (rep == 0)
                    firstScore = score;
                checks.expect(score == firstScore,
                              std::string(name) + " repeat score");
            }
            return afsb::medianOf(nsPerCell);
        };
        out["msa.msv_ns_per_cell"] =
            rate("msv_filter", [&](const bio::Sequence &t, uint64_t &c,
                                   int64_t &s) {
                const auto r = msa::msvFilter(prof, t);
                c += r.cells;
                s += r.score;
            });
        out["msa.band9_ns_per_cell"] =
            rate("calc_band9", [&](const bio::Sequence &t, uint64_t &c,
                                   int64_t &s) {
                const auto r = msa::calcBand9(prof, t);
                c += r.cells;
                s += r.score;
            });
        out["msa.band10_ns_per_cell"] =
            rate("calc_band10", [&](const bio::Sequence &t, uint64_t &c,
                                    int64_t &s) {
                const auto r = msa::calcBand10(prof, t);
                c += r.cells;
                s += static_cast<int64_t>(r.logOdds * 1024.0);
            });
    }

    size_t threads_;
    core::WorkspaceConfig wsConfig_;
    std::vector<bio::Sequence> queries_;
    std::unique_ptr<core::Workspace> workspace_;
    std::unique_ptr<ThreadPool> pool_;

    msa::SearchStats lastStats_;
    std::string lastDigest_;
    std::vector<msa::SearchStats> tracedStats_;
};

} // namespace

std::unique_ptr<Workload>
makeScanWorkload(const HostInfo &host)
{
    return std::make_unique<ScanWorkload>(host);
}

} // namespace perfbench
