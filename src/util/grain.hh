/**
 * @file
 * Shared grain-size policy for parallel dispatch.
 *
 * Every parallel loop in the tree used to carry its own copy of the
 * "how many iterations per task" heuristic (`rowGrain` in
 * tensor/ops.cc, an inline `scanGrain` in msa/search.cc, ad-hoc
 * `max(1, budget/flops)` expressions in the model layers).  They are
 * consolidated here so the policy is stated once and — critically —
 * so it is easy to audit that no grain depends on the worker count of
 * the pool that happens to execute it.  Worker-independent grains are
 * what make the pool-determinism contract (bit-identical results at
 * any pool size) hold: the block partition, and therefore the
 * floating-point reduction shape, is a function of the problem alone.
 *
 * The one exception is `forScan`, whose contract *is* per-worker
 * (MSA scan chunking tracks the configured scan width, and scan
 * results are made order-independent by a canonical sort instead).
 */

#ifndef AFSB_UTIL_GRAIN_HH
#define AFSB_UTIL_GRAIN_HH

#include <cstddef>

namespace afsb::grain {

/**
 * Flop budget per spawned task.  ~256k flops is large enough that a
 * std::function dispatch (~100ns) is noise, small enough that a
 * Pairformer row block still splits into several tasks per worker.
 */
inline constexpr size_t kFlopsPerTask = size_t(1) << 18;

/**
 * Iterations per task for a loop whose body costs `flopsPerUnit`
 * flops per iteration.  Worker-count independent by design.
 */
inline size_t
forFlops(size_t flopsPerUnit)
{
    if (flopsPerUnit == 0)
        return kFlopsPerTask;
    const size_t g = kFlopsPerTask / flopsPerUnit;
    return g == 0 ? 1 : g;
}

/**
 * Same as forFlops but rounded up to a multiple of `align` so block
 * boundaries never split an aligned group (e.g. the 2-row GEMM
 * pairing in tensor::gemmAcc).  `align` must be nonzero.
 */
inline size_t
forFlopsAligned(size_t flopsPerUnit, size_t align)
{
    const size_t g = forFlops(flopsPerUnit);
    return (g + align - 1) / align * align;
}

/**
 * Targets per MSA scan block: ~8 blocks per scan worker so skewed
 * per-target cost load-balances.  Deliberately per-worker (see file
 * comment); scan outputs are canonically sorted, not order-sensitive.
 */
inline size_t
forScan(size_t n, size_t workers)
{
    if (workers == 0)
        workers = 1;
    const size_t g = n / (workers * 8);
    return g == 0 ? 1 : g;
}

} // namespace afsb::grain

#endif // AFSB_UTIL_GRAIN_HH
