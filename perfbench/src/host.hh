/**
 * @file
 * Host anchor measured in every run (not gated).
 */

#ifndef PERFBENCH_HOST_HH
#define PERFBENCH_HOST_HH

#include <cstdint>

namespace perfbench {

struct HostAnchor
{
    unsigned nproc = 1;
    uint64_t llcBytes = 0;        ///< last-level cache the triad beats
    uint64_t triadArrayBytes = 0; ///< one of the three triad arrays
    double triadGbps = 0.0;       ///< single-thread streaming triad
    double fmaGflops = 0.0;       ///< single-core multiply-add peak
    double checksum = 0.0;        ///< keeps the loops observable
};

/** CPUs this process may run on (what `nproc` prints). */
unsigned onlineCpus();

HostAnchor measureHostAnchor();

} // namespace perfbench

#endif // PERFBENCH_HOST_HH
