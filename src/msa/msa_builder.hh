/**
 * @file
 * MSA assembly from accepted hits.
 *
 * Hits are re-aligned to the query profile with traceback (in
 * parallel when a pool is given) and placed into rows of an M x N
 * alignment (M sequences including the query, N = query length).
 * The result carries the (M x N x d) feature-tensor dimensions AF3
 * derives from the alignment.
 */

#ifndef AFSB_MSA_MSA_BUILDER_HH
#define AFSB_MSA_MSA_BUILDER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "msa/database.hh"
#include "msa/profile_hmm.hh"
#include "msa/search.hh"

namespace afsb::msa {

/** Character used for alignment gaps. */
constexpr char kGapChar = '-';

/** A built alignment for one query chain. */
struct MsaResult
{
    /** Aligned rows (query first), each exactly queryLength chars. */
    std::vector<std::string> rows;

    /** Source identifiers parallel to rows. */
    std::vector<std::string> rowIds;

    size_t queryLength = 0;
    uint64_t alignCells = 0;  ///< traceback DP cells spent

    size_t depth() const { return rows.size(); }

    /** Mean fraction of non-gap residues identical to the query. */
    double meanIdentity() const;

    /**
     * Bytes of the (M x N x d) MSA feature representation AF3 will
     * embed, at feature dimension @p d (AF3 uses 64 for the MSA
     * track) in float32.
     */
    uint64_t
    featureBytes(size_t d = 64) const
    {
        return static_cast<uint64_t>(rows.size()) * queryLength * d *
               sizeof(float);
    }
};

/** Builder configuration. */
struct MsaBuildConfig
{
    /** Keep at most this many rows (HMMER keeps top hits). */
    size_t maxRows = 512;

    /** Drop rows that are more than this fraction gaps. */
    double maxGapFraction = 0.7;

    KernelConfig kernel;
};

/**
 * Assemble the MSA for @p query from @p result's hits against @p db.
 * The query becomes row 0.
 *
 * @param pool Optional pool: hits are re-aligned across it, then
 *        rows are assembled in hit order, so the result is
 *        byte-identical at any pool size (and with none). Runs
 *        inline when called from a pool worker or a TaskGroup task.
 */
MsaResult buildMsa(const bio::Sequence &query, const ProfileHmm &prof,
                   const SequenceDatabase &db,
                   const SearchResult &result,
                   const MsaBuildConfig &cfg = {},
                   ThreadPool *pool = nullptr);

} // namespace afsb::msa

#endif // AFSB_MSA_MSA_BUILDER_HH
