/**
 * @file
 * Shared pieces of the host-clock benchmark: the clock, the span
 * recorder used by traced runs, output digests, and the workload
 * interface every workload implements.
 *
 * The benchmark drives the library's public entry points from
 * outside. Spans are recorded only here, around the calls into each
 * layer; the library itself is not instrumented.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/stats.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Incremental FNV-1a digest of an operation's outputs. */
class Digest
{
  public:
    void
    bytes(const void *data, size_t len)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < len; ++i) {
            h_ ^= p[i];
            h_ *= 0x100000001b3ull;
        }
    }

    template <typename T>
    void
    value(const T &v)
    {
        bytes(&v, sizeof(v));
    }

    void text(const std::string &s) { bytes(s.data(), s.size()); }

    std::string hex() const;

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

/** One recorded span: a call into a layer, timed from outside. */
struct Span
{
    std::string name;     ///< "<layer>.<entry point>"
    double start = 0.0;   ///< seconds since the tracer's epoch
    double end = 0.0;
    int64_t parent = -1;  ///< index of the enclosing span, -1 = root
    uint64_t op = 0;      ///< operation id; 0 = outside any operation
};

/**
 * In-memory span recorder for traced runs. Spans nest by call order
 * on the benchmark's own (single) thread; nothing is written until
 * the run ends.
 */
class Tracer
{
  public:
    Tracer() : epoch_(Clock::now()) {}

    double now() const { return secondsSince(epoch_); }

    /** Open a span under the innermost open one. */
    size_t open(const std::string &name);
    void close(size_t id);

    /** Record an already finished child of the innermost open span. */
    void addFinished(const std::string &name, double start, double end);

    /** Operation ids tag every span opened until endOp(). */
    void beginOp() { op_ = ++lastOp_; }
    void endOp() { op_ = 0; }

    const std::vector<Span> &spans() const { return spans_; }

    /** Chrome trace-event JSON (opens offline in Perfetto). */
    bool writeChromeTrace(const std::string &path) const;

  private:
    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<size_t> stack_;
    uint64_t op_ = 0;
    uint64_t lastOp_ = 0;
};

/** RAII span; a null tracer makes it a no-op (untraced runs). */
class SpanScope
{
  public:
    SpanScope(Tracer *tracer, const std::string &name)
        : tracer_(tracer), id_(tracer ? tracer->open(name) : 0)
    {}
    ~SpanScope()
    {
        if (tracer_)
            tracer_->close(id_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Tracer *tracer_;
    size_t id_;
};

/** Output checks outside the timed operations. */
struct Checks
{
    uint64_t attempted = 0;
    uint64_t failed = 0;

    /** Count one check; a failed one is reported on stderr. */
    void expect(bool ok, const std::string &what);
};

/** Per-layer metric values of a traced run, by metric name. */
using LayerMetrics = std::map<std::string, double>;

/** What the host gives a workload. */
struct HostInfo
{
    unsigned nproc = 1;       ///< CPUs this process may run on
    double fmaGflops = 0.0;   ///< single-core multiply-add peak
};

/**
 * One benchmark workload. main() calls makeInputs() once,
 * setup() several times (the last set-up is kept), then runs
 * operations; a traced run adds tracedOp() and layerMetrics().
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Name of the per-workload timing the op stands for ("infer_s"). */
    virtual std::string opName() const = 0;

    /** Thread budget, counting the calling thread. */
    virtual std::string threadBudget() const = 0;

    /** Seeded inputs (not timed as set-up). */
    virtual void makeInputs(uint64_t seed) = 0;

    /** Build the system state the operation needs. */
    virtual void setup() = 0;

    /** One untraced operation; returns the digest of its outputs. */
    virtual std::string runOp() = 0;

    /**
     * The same operation through the layers' public entry points
     * with a span around each call; returns the same digest.
     */
    virtual std::string tracedOp(Tracer &tracer) = 0;

    /**
     * Layer measurements beyond the op spans (serial baselines,
     * kernel rates, counters of the last op). @p op_seconds is the
     * median untraced operation time. Every output these extra
     * calls produce is checked through @p checks.
     */
    virtual void layerMetrics(Tracer &tracer, const HostInfo &host,
                              double op_seconds, LayerMetrics &out,
                              Checks &checks) = 0;
};

std::unique_ptr<Workload> makeInferWorkload(const HostInfo &host);
std::unique_ptr<Workload> makeScanWorkload(const HostInfo &host);
std::unique_ptr<Workload> makePipelineWorkload(const HostInfo &host);

/**
 * Serving-layer probe (serve, fault, gpusim and opgraph per-layer
 * metrics), run from the pipeline workload's traced run.
 */
void measureServeLayers(uint64_t seed, const HostInfo &host,
                        Tracer &tracer, LayerMetrics &out, Checks &checks);

/** Median duration of the spans named @p name, summed per op. */
double medianPerOp(const Tracer &tracer, const std::string &name);

/** Seeds derived from the benchmark seed for independent inputs. */
inline uint64_t
subSeed(uint64_t seed, uint64_t salt)
{
    uint64_t z = seed + salt * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
