/**
 * @file
 * nhmmer analog: windowed nucleotide homology search for RNA chains.
 *
 * nhmmer scans long nucleotide targets in overlapping windows on
 * both strands [Wheeler & Eddy 2013]. Its working set — window
 * buffers, per-window DP matrices, and candidate-envelope state that
 * scales with the query model length — is what drives the paper's
 * Fig 2 memory blow-up (79 GiB at 621 nt -> 506 GiB at 935 nt, OOM
 * beyond 1335 nt at 768 GiB). The search itself runs here at scaled
 * size; peak memory is reported by the calibrated model in
 * memory_model.hh, which this engine consults before running —
 * reproducing AF3's lack of a static pre-check as a configurable
 * OOM failure.
 */

#ifndef AFSB_MSA_NHMMER_HH
#define AFSB_MSA_NHMMER_HH

#include "msa/msa_builder.hh"
#include "msa/search.hh"

namespace afsb::msa {

/** nhmmer-style windowed-scan configuration. */
struct NhmmerConfig
{
    SearchConfig search;
    MsaBuildConfig build;

    /** Window length as a multiple of the query length. */
    double windowFactor = 1.5;

    /** Window overlap fraction. */
    double overlap = 0.5;

    /** Scan the reverse strand too. */
    bool bothStrands = true;
};

/** Result of an nhmmer run for one nucleotide chain. */
struct NhmmerResult
{
    MsaResult msa;
    SearchStats stats;
    uint64_t windowsScanned = 0;

    /** Modeled peak memory for this query at paper scale (bytes). */
    uint64_t modeledPeakMemory = 0;
};

/**
 * Run windowed nucleotide search of @p query against @p db.
 * RNA and DNA queries accepted. @p pool is shared by the scan
 * (cfg.search.threads of it) and the hit re-alignment (buildMsa).
 */
NhmmerResult runNhmmer(const bio::Sequence &query,
                       const SequenceDatabase &db,
                       io::PageCache &cache, ThreadPool *pool,
                       const NhmmerConfig &cfg, double now = 0.0,
                       const std::vector<MemTraceSink *> &sinks = {});

/** Reverse-complement of a nucleotide sequence. */
bio::Sequence reverseComplement(const bio::Sequence &seq);

} // namespace afsb::msa

#endif // AFSB_MSA_NHMMER_HH
