/**
 * @file
 * Workload `pipeline`: core::runPipeline (what `afsysbench run`
 * calls) on 2PV7, promo and a seeded complex with a 300-nt RNA
 * chain, on the desktop platform with nproc MSA threads. Its MSA
 * path is the traced one: statically partitioned scalar kernels
 * feeding cachesim::HierarchySim, plus nhmmer and gpusim.
 */

#include "bench.hh"

#include <cstdio>

#include "bio/samples.hh"
#include "bio/seqgen.hh"
#include "cachesim/hierarchy.hh"
#include "core/pipeline.hh"
#include "core/workspace.hh"
#include "io/pagecache.hh"
#include "io/storage.hh"
#include "msa/dp_kernels.hh"
#include "msa/jackhmmer.hh"
#include "msa/score_matrix.hh"
#include "sys/platform.hh"
#include "util/threadpool.hh"
#include "util/units.hh"

namespace perfbench {

namespace {

using namespace afsb;

constexpr size_t kRnaLength = 300;

/** Everything the check covers: simulated time and counters. */
void
digestRun(Digest &d, const core::MsaPhaseResult &msa,
          const gpusim::InferenceSimResult &inference)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  msa.seconds + inference.totalSeconds());
    d.text(buf);
    const auto &t = msa.totals;
    for (uint64_t v : {t.instructions, t.accesses, t.l1Misses, t.l2Misses,
                       t.llcMisses, t.tlbMisses, t.branches,
                       t.branchMisses})
        d.value(v);
}

/** Keeps a kernel's memory references for replay. */
class RecordingSink : public MemTraceSink
{
  public:
    void access(const MemAccess &a) override { accesses.push_back(a); }
    void instructions(FuncId, uint64_t) override {}
    void branches(FuncId, uint64_t, uint64_t) override {}

    std::vector<MemAccess> accesses;
};

class PipelineWorkload : public Workload
{
  public:
    explicit PipelineWorkload(const HostInfo &host)
        : threads_(host.nproc), platform_(sys::desktopPlatform())
    {}

    std::string opName() const override { return "pipeline_s"; }

    std::string
    threadBudget() const override
    {
        return "runMsaPhase: pool of " + std::to_string(threads_) +
               " workers, calling thread blocked in wait() (" +
               std::to_string(threads_) + " threads)";
    }

    void
    makeInputs(uint64_t seed) override
    {
        seed_ = seed;
        wsConfig_.seed = subSeed(seed, 21);
        inputs_.clear();
        inputs_.push_back(bio::makeSample("2PV7").complex);
        inputs_.push_back(bio::makeSample("promo").complex);
        bio::SequenceGenerator gen(subSeed(seed, 22));
        bio::MutationParams point;
        point.substitutionRate = 0.05;
        point.insertionRate = 0.0;
        point.deletionRate = 0.0;
        bio::Complex rna("rna300");
        rna.addChain(gen.mutate(bio::makeRibosomalRna(kRnaLength), "R",
                                point));
        inputs_.push_back(std::move(rna));
    }

    void
    setup() override
    {
        workspace_.reset();
        workspace_ = std::make_unique<core::Workspace>(wsConfig_);
    }

    std::string
    runOp() override
    {
        core::PipelineOptions opt;
        opt.msaThreads = static_cast<uint32_t>(threads_);
        Digest d;
        for (const auto &c : inputs_) {
            const auto r =
                core::runPipeline(c, platform_, *workspace_, opt);
            digestRun(d, r.msa, r.inference);
        }
        return d.hex();
    }

    std::string
    tracedOp(Tracer &tracer) override
    {
        // runPipeline's two phases, called through their own entry
        // points with runPipeline's options.
        core::MsaPhaseOptions msaOpt;
        msaOpt.threads = static_cast<uint32_t>(threads_);
        gpusim::InferenceSimOptions inferOpt;
        Digest d;
        LastOp last;
        for (const auto &c : inputs_) {
            core::MsaPhaseResult msa;
            {
                SpanScope s(&tracer, "core.msa_phase");
                msa = core::runMsaPhase(c, platform_, *workspace_, msaOpt);
            }
            gpusim::InferenceSimResult inference;
            {
                SpanScope s(&tracer, "gpusim.simulate_inference");
                gpusim::XlaCache cache;
                inference = gpusim::simulateInference(
                    platform_, c.totalResidues(), cache, inferOpt);
            }
            digestRun(d, msa, inference);
            last.counters.merge(msa.totals);
            last.cells += msa.scanStats.cellsMsv +
                          msa.scanStats.cellsViterbi +
                          msa.scanStats.cellsForward;
            last.simSeconds += msa.seconds + inference.totalSeconds();
        }
        last_ = last;
        return d.hex();
    }

    void
    layerMetrics(Tracer &tracer, const HostInfo &host, double,
                 LayerMetrics &out, Checks &checks) override
    {
        out["core.msa_phase_s"] = medianPerOp(tracer, "core.msa_phase");
        out["gpusim.infer_sim_s"] =
            medianPerOp(tracer, "gpusim.simulate_inference");
        const auto &t = last_.counters;
        out["cachesim.accesses"] = static_cast<double>(t.accesses);
        out["cachesim.l1_misses"] = static_cast<double>(t.l1Misses);
        out["cachesim.l2_misses"] = static_cast<double>(t.l2Misses);
        out["cachesim.llc_misses"] = static_cast<double>(t.llcMisses);
        out["cachesim.tlb_misses"] = static_cast<double>(t.tlbMisses);
        out["cachesim.branch_misses"] = static_cast<double>(t.branchMisses);
        out["msa.traced_cells"] = static_cast<double>(last_.cells);
        out["core.sim_seconds"] = last_.simSeconds;
        out["cachesim.ns_per_access"] = replayRate(tracer, checks);
        out["msa.traced_over_native"] = tracedOverNative(tracer, checks);
        // The serving layers have no workload of their own (serve.cc
        // says why); the core workload's traced run measures them.
        measureServeLayers(seed_, host, tracer, out, checks);
    }

  private:
    struct LastOp
    {
        cachesim::FuncCounters counters;
        uint64_t cells = 0;
        double simSeconds = 0.0;
    };

    cachesim::HierarchyConfig
    hierarchyConfig() const
    {
        cachesim::HierarchyConfig h;
        h.cpu = platform_.cpu;
        h.activeThreads = static_cast<uint32_t>(threads_);
        return h;
    }

    /**
     * Host ns per simulated access: replay the references of traced
     * kernel calls into a fresh HierarchySim.
     */
    double
    replayRate(Tracer &tracer, Checks &checks)
    {
        const auto &query = inputs_.front().chains().front();
        const auto prof = msa::ProfileHmm::fromSequence(
            query, msa::ScoreMatrix::blosum62());
        RecordingSink rec;
        const auto &seqs = workspace_->proteinDb().sequences();
        for (size_t i = 0; i < std::min<size_t>(64, seqs.size()); ++i) {
            msa::calcBand9(prof, seqs[i], {}, &rec);
            msa::calcBand10(prof, seqs[i], {}, &rec);
        }
        std::vector<double> ns;
        uint64_t firstMisses = 0;
        for (int rep = 0; rep < 3; ++rep) {
            cachesim::HierarchySim sim(hierarchyConfig());
            SpanScope s(&tracer, "cachesim.replay");
            const auto t0 = Clock::now();
            for (const auto &a : rec.accesses)
                sim.access(a);
            ns.push_back(secondsSince(t0) * 1e9 /
                         static_cast<double>(rec.accesses.size()));
            const uint64_t misses = sim.totals().l1Misses;
            if (rep == 0)
                firstMisses = misses;
            checks.expect(misses == firstMisses, "cachesim replay misses");
        }
        return afsb::medianOf(ns);
    }

    /**
     * The traced jackhmmer (scalar kernels into HierarchySim sinks)
     * over the untraced one, same query, pool and threads.
     */
    double
    tracedOverNative(Tracer &tracer, Checks &checks)
    {
        const auto &query = inputs_.front().chains().front();
        ThreadPool pool(threads_);
        msa::JackhmmerConfig cfg;
        cfg.search.threads = threads_;
        cfg.search.kernel.traceStride = core::MsaPhaseOptions{}.traceStride;
        cfg.build.kernel.traceStride = cfg.search.kernel.traceStride;
        auto run = [&](bool traced, std::string &rows) {
            std::vector<std::unique_ptr<cachesim::HierarchySim>> sims;
            std::vector<MemTraceSink *> sinks;
            if (traced)
                for (size_t t = 0; t < threads_; ++t) {
                    sims.push_back(std::make_unique<cachesim::HierarchySim>(
                        hierarchyConfig()));
                    sinks.push_back(sims.back().get());
                }
            io::StorageDevice device;
            io::PageCache cache(4 * GiB, &device);
            SpanScope s(&tracer, traced ? "msa.jackhmmer_traced"
                                        : "msa.jackhmmer_native");
            const auto t0 = Clock::now();
            const auto r = msa::runJackhmmer(query, workspace_->proteinDb(),
                                             cache, &pool, cfg, 0.0, sinks);
            const double dt = secondsSince(t0);
            Digest d;
            for (const auto &row : r.msa.rows)
                d.text(row);
            rows = d.hex();
            return dt;
        };
        std::vector<double> traced, native;
        for (int rep = 0; rep < 2; ++rep) {
            std::string a, b;
            native.push_back(run(false, a));
            traced.push_back(run(true, b));
            checks.expect(a == b, "traced and native jackhmmer alignments");
        }
        return afsb::medianOf(traced) / afsb::medianOf(native);
    }

    size_t threads_;
    sys::PlatformSpec platform_;
    uint64_t seed_ = 0;
    core::WorkspaceConfig wsConfig_;
    std::vector<bio::Complex> inputs_;
    std::unique_ptr<core::Workspace> workspace_;
    LastOp last_;
};

} // namespace

std::unique_ptr<Workload>
makePipelineWorkload(const HostInfo &host)
{
    return std::make_unique<PipelineWorkload>(host);
}

} // namespace perfbench
