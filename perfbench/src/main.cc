/**
 * @file
 * perfbench: host-clock benchmark of the shipped library entry
 * points.
 *
 *   perfbench --workload infer|scan|pipeline --seed N
 *             --seconds S --trace 0|1 --spec BENCHMARK.json
 *             [--reference FILE] [--trace-out FILE]
 *
 * With --trace 0 it reports the spec's end-to-end metrics (tracing
 * off); with --trace 1 it runs traced and untraced operations
 * alternately and reports the spec's per-layer metrics. The last line
 * of stdout is one JSON object: {"correct", "attempted", "failed",
 * "metrics"}.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hh"
#include "host.hh"
#include "io/textfile.hh"
#include "util/json.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spec;
    std::string reference;
    std::string traceOut;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "infer|scan|pipeline --seed N --seconds S "
                 "--trace 0|1 --spec BENCHMARK.json [--reference FILE] "
                 "[--trace-out FILE]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            a.seconds = std::atof(v.c_str());
        else if (flag == "--trace")
            a.trace = v == "1";
        else if (flag == "--spec")
            a.spec = v;
        else if (flag == "--reference")
            a.reference = v;
        else if (flag == "--trace-out")
            a.traceOut = v;
        else
            usage("unknown flag " + flag);
    }
    if (a.workload.empty() || a.spec.empty())
        usage("--workload and --spec are required");
    if (a.seconds <= 0.0)
        usage("--seconds must be > 0");
    return a;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const HostInfo &host)
{
    if (name == "infer")
        return makeInferWorkload(host);
    if (name == "scan")
        return makeScanWorkload(host);
    if (name == "pipeline")
        return makePipelineWorkload(host);
    usage("unknown workload " + name);
}

/** A metric as BENCHMARK.json declares it. */
struct MetricDef
{
    std::string name;
    std::string unit;
};

/** The metrics the spec declares for this kind of run. */
std::vector<MetricDef>
declaredMetrics(const std::string &spec, bool traced)
{
    const auto doc = afsb::parseJson(afsb::io::readTextFile(spec));
    std::vector<MetricDef> defs;
    for (const auto &m :
         doc.at(traced ? "per_layer" : "end_to_end").asArray())
        defs.push_back({m.at("name").asString(), m.at("unit").asString()});
    return defs;
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Process CPU seconds so far, user and system. */
afsb::JsonValue
cpuRecord()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) + 1e-6 * tv.tv_usec;
    };
    afsb::JsonValue r = afsb::JsonValue::makeObject();
    r["user_s"] = secs(ru.ru_utime);
    r["sys_s"] = secs(ru.ru_stime);
    return r;
}

/**
 * Median plus the highest percentile that still has at least ten
 * samples beyond it (none below eleven samples).
 */
afsb::JsonValue
timingRecord(std::vector<double> xs)
{
    afsb::JsonValue r = afsb::JsonValue::makeObject();
    r["median"] = afsb::medianOf(xs);
    r["samples"] = static_cast<uint64_t>(xs.size());
    std::sort(xs.begin(), xs.end());
    if (xs.size() >= 11) {
        const size_t k = xs.size() - 11;
        r["tail_pct"] = std::floor(100.0 * static_cast<double>(k) /
                                   static_cast<double>(xs.size() - 1));
        r["tail_value"] = xs[k];
    } else {
        r["tail_pct"] = nullptr;
    }
    return r;
}

/**
 * Expected digest for this workload and seed, or "" when none.
 * Outputs that depend on the thread count are keyed by nproc too.
 */
std::string
referenceDigest(const Args &args, unsigned nproc)
{
    if (args.reference.empty())
        return "";
    const auto doc =
        afsb::parseJson(afsb::io::readTextFile(args.reference));
    const std::string key =
        args.workload + "/seed=" + std::to_string(args.seed);
    const std::string perNproc = key + "/nproc=" + std::to_string(nproc);
    if (doc.has(perNproc))
        return doc.at(perNproc).asString();
    return doc.has(key) ? doc.at(key).asString() : "";
}

/**
 * Runs one operation and checks its digest against the first
 * operation of the run and, when there is one, the reference.
 */
struct OpChecker
{
    Checks &checks;
    std::string reference;
    std::string first;

    double
    run(const std::function<std::string()> &op, const char *what)
    {
        const auto t0 = Clock::now();
        std::string digest;
        try {
            digest = op();
        } catch (const std::exception &e) {
            checks.expect(false,
                          std::string(what) + " threw: " + e.what());
            return secondsSince(t0);
        }
        const double dt = secondsSince(t0);
        if (first.empty())
            first = digest;
        const bool ok = digest == first &&
                        (reference.empty() || digest == reference);
        checks.expect(ok, std::string(what) + " digest " + digest +
                              " (first " + first + ", reference " +
                              (reference.empty() ? "none" : reference) +
                              ")");
        return dt;
    }
};

/**
 * Self time per layer (the span-name prefix) in the traced
 * operations: each span's duration minus its children's, averaged
 * over the operations.
 */
std::map<std::string, double>
selfTimePerOp(const Tracer &tracer)
{
    const auto &spans = tracer.spans();
    std::vector<double> childTime(spans.size(), 0.0);
    for (const Span &s : spans)
        if (s.parent >= 0)
            childTime[s.parent] += s.end - s.start;
    std::map<std::string, double> out;
    size_t ops = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (s.op == 0)
            continue;
        ops += s.parent < 0;
        const std::string layer = s.name.substr(0, s.name.find('.'));
        out[layer] += (s.end - s.start) - childTime[i];
    }
    for (auto &[layer, seconds] : out)
        seconds /= static_cast<double>(std::max<size_t>(1, ops));
    return out;
}

/** Share of the op spans' wall time covered by their children. */
double
coverage(const Tracer &tracer)
{
    const auto &spans = tracer.spans();
    double ops = 0.0, covered = 0.0;
    for (const Span &s : spans) {
        if (s.op == 0)
            continue;
        if (s.parent < 0)
            ops += s.end - s.start;
        else if (spans[s.parent].parent < 0)
            covered += s.end - s.start;
    }
    return ops > 0.0 ? covered / ops : 0.0;
}

void
printMetricsLine(const Checks &checks, const std::vector<MetricDef> &defs,
                 const LayerMetrics &values)
{
    std::string line = "{\"correct\": ";
    line += checks.failed == 0 ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(checks.attempted);
    line += ", \"failed\": " + std::to_string(checks.failed);
    line += ", \"metrics\": {";
    for (size_t i = 0; i < defs.size(); ++i) {
        const auto it = values.find(defs[i].name);
        const double v = it != values.end() ? it->second : 0.0;
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", defs[i].name.c_str(),
                      std::isfinite(v) ? v : 0.0, defs[i].unit.c_str());
        line += buf;
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
}

afsb::JsonValue
anchorRecord(const HostAnchor &a)
{
    afsb::JsonValue r = afsb::JsonValue::makeObject();
    r["nproc"] = static_cast<uint64_t>(a.nproc);
    r["compiler"] = std::string(__VERSION__);
    r["build_type"] = std::string(PERFBENCH_BUILD_TYPE);
    r["llc_mib"] = static_cast<double>(a.llcBytes) / (1 << 20);
    r["triad_array_mib"] =
        static_cast<double>(a.triadArrayBytes) / (1 << 20);
    r["triad_gbps"] = a.triadGbps;
    r["fma_gflops"] = a.fmaGflops;
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);

    HostInfo host;
    host.nproc = onlineCpus();
    auto workload = makeWorkload(args.workload, host);
    Checks checks;
    afsb::JsonValue record = afsb::JsonValue::makeObject();
    record["workload"] = args.workload;
    record["seed"] = args.seed;
    record["op"] = workload->opName();
    record["threads"] = workload->threadBudget() + " of nproc " +
                        std::to_string(host.nproc);

    try {
        const auto defs = declaredMetrics(args.spec, args.trace);
        const auto tIn = Clock::now();
        workload->makeInputs(args.seed);
        record["inputs_s"] = secondsSince(tIn);

        // Set up several times and keep the last one: the median is
        // the set-up metric. Short set-ups repeat for about a second.
        std::vector<double> setups;
        const auto tSetup = Clock::now();
        while (setups.size() < 3 ||
               (setups.size() < 50 && secondsSince(tSetup) < 1.0)) {
            const auto t0 = Clock::now();
            workload->setup();
            setups.push_back(secondsSince(t0));
        }
        record["setup"] = timingRecord(setups);

        OpChecker ops{checks, referenceDigest(args, host.nproc), {}};
        ops.run([&] { return workload->runOp(); }, "warm-up op");

        LayerMetrics values;
        std::vector<double> untraced;
        const auto tRun = Clock::now();
        if (!args.trace) {
            while (untraced.size() < 3 ||
                   secondsSince(tRun) < args.seconds)
                untraced.push_back(
                    ops.run([&] { return workload->runOp(); }, "op"));
            values["op_s"] = afsb::medianOf(untraced);
            values["setup_s"] = afsb::medianOf(setups);
            values["peak_rss_mib"] = peakRssMib();
            record["cpu"] = cpuRecord();
            // After the RSS reading: the triad arrays are large.
            record["host"] = anchorRecord(measureHostAnchor());
        } else {
            const HostAnchor anchor = measureHostAnchor();
            record["host"] = anchorRecord(anchor);
            host.fmaGflops = anchor.fmaGflops;
            values["host.triad_gbps"] = anchor.triadGbps;
            values["host.fma_gflops"] = anchor.fmaGflops;

            // Untraced and traced operations alternate, so host drift
            // hits both sides of trace.overhead alike.
            Tracer tracer;
            std::vector<double> traced;
            const std::string root = "bench." + args.workload;
            while (traced.size() < 3 ||
                   secondsSince(tRun) < args.seconds) {
                untraced.push_back(
                    ops.run([&] { return workload->runOp(); }, "op"));
                traced.push_back(ops.run(
                    [&] {
                        tracer.beginOp();
                        std::string digest;
                        {
                            SpanScope s(&tracer, root);
                            digest = workload->tracedOp(tracer);
                        }
                        tracer.endOp();
                        return digest;
                    },
                    "traced op"));
            }
            workload->layerMetrics(tracer, host, afsb::medianOf(untraced), values,
                                   checks);
            values["trace.coverage"] = coverage(tracer);
            values["trace.overhead"] =
                afsb::medianOf(traced) / afsb::medianOf(untraced) - 1.0;
            for (const auto &[layer, seconds] : selfTimePerOp(tracer))
                values["self." + layer + "_s"] = seconds;
            record["traced"] = timingRecord(traced);
            if (!args.traceOut.empty()) {
                if (tracer.writeChromeTrace(args.traceOut))
                    record["trace_file"] = args.traceOut;
                else
                    checks.expect(false, "writing " + args.traceOut);
            }
        }
        record[workload->opName()] = timingRecord(untraced);
        record["digest"] = ops.first;
        record["reference"] =
            ops.reference.empty() ? "none" : ops.reference;

        // Every measured metric must be one the spec declares.
        for (const auto &[name, value] : values)
            if (std::none_of(defs.begin(), defs.end(),
                             [&](const MetricDef &d) {
                                 return d.name == name;
                             }))
                throw std::runtime_error("metric " + name +
                                         " is not declared in " +
                                         args.spec);
        const double failRatio =
            static_cast<double>(checks.failed) /
            static_cast<double>(std::max<uint64_t>(1, checks.attempted));
        if (!args.trace)
            values["success_ratio"] = 1.0 - failRatio;
        afsb::JsonValue fail = afsb::JsonValue::makeObject();
        fail["fail_ratio"] = failRatio;
        fail["failed"] = checks.failed;
        fail["attempted"] = checks.attempted;
        record["fail_ratio"] = fail;
        std::printf("%s\n", record.dump().c_str());
        printMetricsLine(checks, defs, values);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(),
                     e.what());
        return 1;
    }
    return 0;
}
