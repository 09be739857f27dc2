/**
 * @file
 * Serving-layer probe, run inside the `pipeline` workload's traced
 * run: serve::simulateCluster plus buildSloReport and
 * canonicalSloText over a seeded open-loop Poisson stream on the
 * virtual clock (2PV7/7RCE/1YY9, repeats plus 1%-mutated near
 * duplicates), batching on, a light fault plan, MSA oracle warmed
 * first.
 *
 * It is a probe rather than a workload of its own: a cluster run
 * swung by 20-37% from run to run on a shared 4-vCPU host, more than
 * an end-to-end bound may allow, so it reports per-layer numbers only.
 */

#include "bench.hh"

#include <algorithm>

#include "bio/samples.hh"
#include "core/workspace.hh"
#include "gpusim/inference_sim.hh"
#include "opgraph/build.hh"
#include "serve/cluster.hh"
#include "serve/report.hh"
#include "serve/workload.hh"
#include "sys/platform.hh"

namespace perfbench {

namespace {

using namespace afsb;

const char *const kMix = "2PV7=1,7RCE=1,1YY9=1";
const char *const kSamples[] = {"2PV7", "7RCE", "1YY9"};

/** Poisson arrivals on the virtual clock. */
constexpr double kRps = 0.03;
constexpr double kDurationSeconds = 100000.0;
/** Near duplicates arrive at this share of the repeat stream's rate. */
constexpr double kNearDuplicateShare = 0.25;
/** Cluster runs the probe times. */
constexpr int kRuns = 3;

std::vector<serve::Request>
makeRequests(uint64_t seed)
{
    serve::WorkloadSpec repeats;
    repeats.requestsPerSecond = kRps;
    repeats.durationSeconds = kDurationSeconds;
    repeats.seed = subSeed(seed, 31);
    repeats.mix = serve::parseMix(kMix);
    repeats.variantsPerSample = 4;
    repeats.sketchQueries = true;
    serve::WorkloadSpec near = repeats;
    near.requestsPerSecond = kRps * kNearDuplicateShare;
    near.seed = subSeed(seed, 32);
    near.mutationRate = 0.01;

    auto requests = serve::generateRequests(repeats);
    const auto more = serve::generateRequests(near);
    requests.insert(requests.end(), more.begin(), more.end());
    std::stable_sort(requests.begin(), requests.end(),
                     [](const serve::Request &a, const serve::Request &b) {
                         return a.arrivalSeconds < b.arrivalSeconds;
                     });
    for (size_t i = 0; i < requests.size(); ++i)
        requests[i].id = i;
    return requests;
}

serve::ClusterConfig
makeConfig(uint64_t seed, unsigned nproc)
{
    serve::ClusterConfig config;
    config.msaWorkers = 4;
    config.gpuWorkers = 2;
    config.msaThreadsPerWorker = nproc;
    config.batchMax = 4;
    config.simCacheThreshold = 0.6;
    fault::Plan &plan = config.faultPlan;
    plan.seed = subSeed(seed, 33);
    plan.msaCrashProb = 0.01;
    plan.gpuCrashProb = 0.01;
    plan.storageSpikeProb = 0.01;
    plan.cacheCorruptProb = 0.005;
    return config;
}

std::vector<size_t>
mixTokens()
{
    std::vector<size_t> tokens;
    for (const char *s : kSamples)
        tokens.push_back(bio::makeSample(s).complex.totalResidues());
    return tokens;
}

/** Per-dispatch gpusim call at the mix's token sizes, warm cache. */
double
simulateCallUs(const sys::PlatformSpec &platform,
               const serve::ClusterConfig &config, Checks &checks)
{
    const auto tokens = mixTokens();
    gpusim::XlaCache cache(config.bucketTokens);
    gpusim::InferenceSimOptions opt;
    opt.threads = config.inferenceThreads;
    opt.gpuAlreadyInitialized = true;
    auto call = [&](size_t t) {
        return gpusim::simulateBatchedInference(platform, {t}, cache, opt)
            .totalSeconds();
    };
    for (size_t t : tokens) // pay the compiles before timing
        call(t);
    std::vector<double> warm;
    for (size_t t : tokens)
        warm.push_back(call(t));
    constexpr int kRounds = 300;
    bool same = true;
    const auto t0 = Clock::now();
    for (int r = 0; r < kRounds; ++r)
        for (size_t i = 0; i < tokens.size(); ++i)
            same &= call(tokens[i]) == warm[i];
    const double us = secondsSince(t0) * 1e6 /
                      static_cast<double>(kRounds * tokens.size());
    checks.expect(same, "gpusim repeat results");
    return us;
}

double
graphBuildUs(Checks &checks)
{
    const auto tokens = mixTokens();
    const auto cfg = gpusim::InferenceSimOptions{}.config;
    std::vector<size_t> firstOps;
    for (size_t t : tokens)
        firstOps.push_back(opgraph::buildInferenceGraph(t, cfg).ops.size());
    constexpr int kRounds = 200;
    bool same = true;
    const auto t0 = Clock::now();
    for (int r = 0; r < kRounds; ++r)
        for (size_t i = 0; i < tokens.size(); ++i)
            same &= opgraph::buildInferenceGraph(tokens[i], cfg)
                        .ops.size() == firstOps[i];
    const double us = secondsSince(t0) * 1e6 /
                      static_cast<double>(kRounds * tokens.size());
    checks.expect(same, "opgraph repeat builds");
    return us;
}

} // namespace

void
measureServeLayers(uint64_t seed, const HostInfo &host, Tracer &tracer,
                   LayerMetrics &out, Checks &checks)
{
    const sys::PlatformSpec platform = sys::serverPlatform();
    std::vector<serve::Request> requests;
    {
        SpanScope s(&tracer, "serve.generate_requests");
        const auto t0 = Clock::now();
        requests = makeRequests(seed);
        out["serve.generate_s"] = secondsSince(t0);
    }
    serve::ClusterConfig config = makeConfig(seed, host.nproc);
    core::WorkspaceConfig wsConfig;
    wsConfig.seed = subSeed(seed, 34);
    const core::Workspace workspace(wsConfig);
    serve::MsaServiceOracle oracle;
    {
        SpanScope s(&tracer, "serve.oracle_warm_up");
        const auto t0 = Clock::now();
        for (const char *sample : kSamples)
            oracle.characterize(platform, workspace, config, sample);
        out["serve.oracle_s"] = secondsSince(t0);
    }
    config.msaOracle = &oracle;

    std::vector<double> sim, report;
    std::string first;
    serve::ClusterResult result;
    for (int run = 0; run < kRuns; ++run) {
        auto t0 = Clock::now();
        {
            SpanScope s(&tracer, "serve.simulate_cluster");
            result = serve::simulateCluster(platform, workspace, requests,
                                            config);
        }
        sim.push_back(secondsSince(t0));
        t0 = Clock::now();
        std::string text;
        {
            SpanScope s(&tracer, "serve.slo_report");
            text = serve::canonicalSloText(serve::buildSloReport(result));
        }
        report.push_back(secondsSince(t0));
        if (run == 0)
            first = text;
        checks.expect(text == first, "serve repeat SLO report");
    }
    const double simSeconds = afsb::medianOf(sim);
    out["serve.sim_s"] = simSeconds;
    out["serve.report_s"] = afsb::medianOf(report);
    out["serve.requests"] = static_cast<double>(result.offered);
    out["serve.us_per_request"] =
        simSeconds * 1e6 /
        static_cast<double>(std::max<uint64_t>(1, result.offered));
    out["serve.dispatches"] = static_cast<double>(result.batchesFormed);
    out["serve.mean_batch"] = result.meanBatchOccupancy();
    out["serve.cache_hit_ratio"] = result.cacheStats.hitRate();
    out["serve.approx_hit_ratio"] = result.cacheStats.approxHitRate();
    out["serve.retries"] = static_cast<double>(result.retries);
    out["serve.faults"] = static_cast<double>(result.faultsInjected);

    double simulateUs = 0.0;
    {
        SpanScope s(&tracer, "gpusim.simulate_batched_inference");
        simulateUs = simulateCallUs(platform, config, checks);
    }
    out["gpusim.simulate_us"] = simulateUs;
    out["gpusim.share"] = static_cast<double>(result.batchesFormed) *
                          simulateUs * 1e-6 / simSeconds;
    SpanScope s(&tracer, "opgraph.build_inference_graph");
    out["opgraph.build_us"] = graphBuildUs(checks);
}

} // namespace perfbench
