#include "msa/msa_builder.hh"

#include <algorithm>

#include "util/logging.hh"

namespace afsb::msa {

double
MsaResult::meanIdentity() const
{
    if (rows.size() < 2 || queryLength == 0)
        return 0.0;
    const std::string &query = rows.front();
    double sum = 0.0;
    for (size_t r = 1; r < rows.size(); ++r) {
        size_t same = 0, considered = 0;
        for (size_t i = 0; i < queryLength; ++i) {
            if (rows[r][i] == kGapChar)
                continue;
            ++considered;
            same += rows[r][i] == query[i];
        }
        sum += considered
                   ? static_cast<double>(same) /
                         static_cast<double>(considered)
                   : 0.0;
    }
    return sum / static_cast<double>(rows.size() - 1);
}

MsaResult
buildMsa(const bio::Sequence &query, const ProfileHmm &prof,
         const SequenceDatabase &db, const SearchResult &result,
         const MsaBuildConfig &cfg, ThreadPool *pool)
{
    /** One hit's aligned row, filled independently of every other. */
    struct Slot
    {
        std::string row;
        uint64_t cells = 0;
        bool kept = false;
    };

    const size_t take = std::min(cfg.maxRows, result.hits.size());
    std::vector<Slot> slots(take);
    auto align = [&](size_t begin, size_t end) {
        for (size_t h = begin; h < end; ++h) {
            const bio::Sequence &target =
                db.sequences()[result.hits[h].targetIndex];
            const auto aln = alignToProfile(prof, target, cfg.kernel);
            Slot &slot = slots[h];
            slot.cells = aln.cells;
            if (aln.score <= 0)
                continue;

            std::string row(query.length(), kGapChar);
            size_t placed = 0;
            for (size_t k = 0; k < aln.profileToTarget.size(); ++k) {
                const int32_t t = aln.profileToTarget[k];
                if (t < 0)
                    continue;
                row[k] = bio::decodeResidue(
                    target.type(), target[static_cast<size_t>(t)]);
                ++placed;
            }
            const double gapFrac =
                1.0 - static_cast<double>(placed) /
                          static_cast<double>(query.length());
            if (gapFrac > cfg.maxGapFraction)
                continue;
            slot.row = std::move(row);
            slot.kept = true;
        }
    };
    // Hits are independent; one per block lets the work-stealing
    // pool balance their very uneven lengths. Nested calls and
    // single-worker pools run inline.
    if (pool)
        pool->parallelFor(take, 1, align);
    else
        align(0, take);

    // Assemble in hit order, so the MSA is the same at any pool size.
    MsaResult out;
    out.queryLength = query.length();
    out.rows.push_back(query.toString());
    out.rowIds.push_back(query.id());
    for (size_t h = 0; h < take; ++h) {
        Slot &slot = slots[h];
        out.alignCells += slot.cells;
        if (!slot.kept)
            continue;
        out.rows.push_back(std::move(slot.row));
        out.rowIds.push_back(
            db.sequences()[result.hits[h].targetIndex].id());
    }
    return out;
}

} // namespace afsb::msa
