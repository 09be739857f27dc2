/**
 * @file
 * Host anchor: how fast this machine is right now, measured in the
 * benchmark's own process, so drift of the host can be told apart
 * from drift of the code.
 */

#include "host.hh"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <vector>

#include "bench.hh"

namespace perfbench {

unsigned
onlineCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return 1;
}

namespace {

/** Streaming triad a = b + s * c, best pass of several. */
void
measureTriad(HostAnchor &anchor)
{
    const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
    anchor.llcBytes = llc > 0 ? static_cast<uint64_t>(llc) : 32ull << 20;
    // The three arrays together span at least 4x the LLC.
    const size_t n = static_cast<size_t>(
        (4 * anchor.llcBytes + 3 * sizeof(double) - 1) /
        (3 * sizeof(double)));
    anchor.triadArrayBytes = n * sizeof(double);
    std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
    const double s = 3.0 + static_cast<double>(anchor.llcBytes & 1);
    std::vector<double> rates;
    for (int pass = 0; pass < 6; ++pass) {
        const auto t0 = Clock::now();
        for (size_t i = 0; i < n; ++i)
            a[i] = b[i] + s * c[i];
        const double dt = secondsSince(t0);
        if (pass > 0) // the first pass faults the pages in
            rates.push_back(3.0 * static_cast<double>(n) *
                            sizeof(double) / dt / 1e9);
    }
    anchor.triadGbps = afsb::medianOf(rates);
    anchor.checksum += a[n / 2];
}

/** Independent multiply-add chains, enough to fill the pipes. */
void
measureFma(HostAnchor &anchor)
{
    constexpr size_t kLanes = 64;
    constexpr size_t kIters = 4'000'000;
    float acc[kLanes];
    for (size_t j = 0; j < kLanes; ++j)
        acc[j] = static_cast<float>(j) * 1e-3f;
    // Run-time values so the loop cannot be folded away.
    const float m = 0.999999f + static_cast<float>(anchor.checksum * 0.0);
    const float add = 1e-7f;
    std::vector<double> rates;
    for (int rep = 0; rep < 5; ++rep) {
        const auto t0 = Clock::now();
        for (size_t it = 0; it < kIters; ++it)
            for (size_t j = 0; j < kLanes; ++j)
                acc[j] = acc[j] * m + add;
        const double dt = secondsSince(t0);
        rates.push_back(2.0 * kLanes * kIters / dt / 1e9);
    }
    for (size_t j = 0; j < kLanes; ++j)
        anchor.checksum += acc[j];
    anchor.fmaGflops = afsb::medianOf(rates);
}

} // namespace

HostAnchor
measureHostAnchor()
{
    HostAnchor anchor;
    anchor.nproc = onlineCpus();
    measureTriad(anchor);
    measureFma(anchor);
    return anchor;
}

} // namespace perfbench
