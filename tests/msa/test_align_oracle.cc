/**
 * @file
 * Independent oracle for alignToProfile's traceback.
 *
 * The reference below keeps all six full (L+1) x (M+1) score and
 * backpointer matrices, written cell by cell in the plainest order.
 * The shipped kernel keeps two rolling score rows and packs the
 * three backpointers into one byte per cell; both must agree on the
 * score, the cell count and every profile-to-target mapping,
 * including which of several equal-scoring paths is traced back.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bio/seqgen.hh"
#include "msa/dp_kernels.hh"
#include "util/rng.hh"

namespace afsb::msa {
namespace {

using bio::MoleculeType;
using bio::Sequence;

constexpr int kNeg = -1 << 20;

/** Full-matrix local affine DP with separate backpointer matrices. */
AlignmentResult
referenceAlign(const ProfileHmm &prof, const Sequence &target)
{
    const size_t M = prof.length();
    const size_t L = target.length();
    AlignmentResult result;
    result.profileToTarget.assign(M, -1);
    if (L == 0 || M == 0)
        return result;

    const int open = prof.gaps().open;
    const int extend = prof.gaps().extend;

    const size_t W = M + 1;
    std::vector<int> sM((L + 1) * W, kNeg), sI((L + 1) * W, kNeg),
        sD((L + 1) * W, kNeg);
    // Backpointers: bM 0=start 1=M 2=I 3=D; bI 0=M 1=I; bD 0=M 1=D.
    std::vector<uint8_t> bM((L + 1) * W, 0), bI((L + 1) * W, 0),
        bD((L + 1) * W, 0);

    int best = 0;
    size_t bestJ = 0, bestK = 0;
    for (size_t j = 1; j <= L; ++j) {
        const uint8_t res = target[j - 1];
        const size_t row = j * W;
        const size_t prow = (j - 1) * W;
        for (size_t k = 1; k <= M; ++k) {
            const int emit = prof.matchScore(k - 1, res);
            int d = 0;
            uint8_t bp = 0;
            if (sM[prow + k - 1] > d) {
                d = sM[prow + k - 1];
                bp = 1;
            }
            if (sI[prow + k - 1] > d) {
                d = sI[prow + k - 1];
                bp = 2;
            }
            if (sD[prow + k - 1] > d) {
                d = sD[prow + k - 1];
                bp = 3;
            }
            const int m = d + emit;
            sM[row + k] = m;
            bM[row + k] = bp;
            if (m > best) {
                best = m;
                bestJ = j;
                bestK = k;
            }
            const int iFromM = sM[prow + k] - open;
            const int iFromI = sI[prow + k] - extend;
            if (iFromM >= iFromI) {
                sI[row + k] = iFromM;
                bI[row + k] = 0;
            } else {
                sI[row + k] = iFromI;
                bI[row + k] = 1;
            }
            const int dFromM = sM[row + k - 1] - open;
            const int dFromD = sD[row + k - 1] - extend;
            if (dFromM >= dFromD) {
                sD[row + k] = dFromM;
                bD[row + k] = 0;
            } else {
                sD[row + k] = dFromD;
                bD[row + k] = 1;
            }
            ++result.cells;
        }
    }
    result.score = best;
    if (best <= 0)
        return result;

    size_t j = bestJ, k = bestK;
    int state = 0;  // 0=M, 1=I, 2=D
    while (j > 0 && k > 0) {
        const size_t idx = j * W + k;
        if (state == 0) {
            result.profileToTarget[k - 1] =
                static_cast<int32_t>(j - 1);
            if (bM[idx] == 0)
                break;
            state = bM[idx] - 1;
            --j;
            --k;
        } else if (state == 1) {
            state = bI[idx] == 0 ? 0 : 1;
            --j;
        } else {
            state = bD[idx] == 0 ? 0 : 2;
            --k;
        }
    }
    return result;
}

/** Kernel == oracle on score, cells and the whole mapping. */
void
expectMatchesOracle(const ProfileHmm &prof, const Sequence &target,
                    const std::string &label)
{
    SCOPED_TRACE(label);
    const AlignmentResult want = referenceAlign(prof, target);
    const AlignmentResult got = alignToProfile(prof, target);
    EXPECT_EQ(got.score, want.score);
    EXPECT_EQ(got.cells, want.cells);
    EXPECT_EQ(got.profileToTarget, want.profileToTarget);
}

ProfileHmm
profFor(const Sequence &q)
{
    return ProfileHmm::fromSequence(q, ScoreMatrix::blosum62());
}

TEST(AlignOracle, RandomTargetsMatch)
{
    bio::SequenceGenerator gen(20260);
    for (int c = 0; c < 48; ++c) {
        Rng &rng = gen.rng();
        const size_t M = static_cast<size_t>(rng.nextRange(2, 160));
        const auto q = gen.random("q", MoleculeType::Protein, M);
        const auto prof = profFor(q);
        bio::MutationParams mut;
        mut.substitutionRate = rng.nextDouble() * 0.6;
        mut.insertionRate = 0.04;
        mut.deletionRate = 0.04;
        const size_t frag =
            static_cast<size_t>(rng.nextRange(1, static_cast<int64_t>(M)));
        const std::string tag = "case " + std::to_string(c);
        expectMatchesOracle(
            prof,
            gen.random("r", MoleculeType::Protein,
                       static_cast<size_t>(rng.nextRange(1, 240))),
            tag + " random");
        expectMatchesOracle(prof, gen.mutate(q, "m", mut),
                            tag + " homolog");
        expectMatchesOracle(prof,
                            gen.embedFragment(q, "f", frag, frag + 60),
                            tag + " fragment");
    }
}

TEST(AlignOracle, EdgeCasesMatch)
{
    bio::SequenceGenerator gen(7);
    const auto q = gen.random("q", MoleculeType::Protein, 40);
    const auto prof = profFor(q);

    // L = 1: a residue the query contains, and one it may not.
    expectMatchesOracle(prof, Sequence("t", MoleculeType::Protein, "W"),
                        "L=1 W");
    expectMatchesOracle(
        prof, Sequence("t", MoleculeType::Protein, std::vector<uint8_t>{q[17]}),
        "L=1 query residue");

    // M = 1 against short and long targets.
    const auto one = profFor(Sequence("q1", MoleculeType::Protein, "H"));
    expectMatchesOracle(one, Sequence("t", MoleculeType::Protein, "H"),
                        "M=1 self");
    expectMatchesOracle(one, gen.random("t", MoleculeType::Protein, 90),
                        "M=1 random");

    // Empty target: no cells, no mapping.
    expectMatchesOracle(prof, Sequence("t", MoleculeType::Protein, ""),
                        "empty target");

    // Mismatch-only: every W->G emission is negative, so no local
    // alignment scores above zero and nothing is traced.
    const auto trp = profFor(
        Sequence("w", MoleculeType::Protein, std::string(30, 'W')));
    const Sequence gly("g", MoleculeType::Protein, std::string(50, 'G'));
    EXPECT_LE(alignToProfile(trp, gly).score, 0);
    expectMatchesOracle(trp, gly, "mismatch-only");

    // Poly-Q: a pure run and a query with an interior stretch,
    // against runs of other lengths (many equal-scoring placements).
    const auto polyQ = profFor(
        Sequence("pq", MoleculeType::Protein, std::string(40, 'Q')));
    for (size_t len : {1u, 13u, 40u, 67u})
        expectMatchesOracle(
            polyQ,
            Sequence("t", MoleculeType::Protein, std::string(len, 'Q')),
            "poly-Q x" + std::to_string(len));
    const auto withRun = gen.withHomopolymer("h", 120, 30);
    expectMatchesOracle(profFor(withRun),
                        gen.withHomopolymer("t", 150, 45),
                        "poly-Q stretch");
}

TEST(AlignOracle, TargetLongerThanFourProfilesMatches)
{
    bio::SequenceGenerator gen(11);
    const auto q = gen.random("q", MoleculeType::Protein, 35);
    const auto prof = profFor(q);
    expectMatchesOracle(prof, gen.embedFragment(q, "f", 30, 5 * 35),
                        "embedded fragment");
    expectMatchesOracle(prof, gen.random("r", MoleculeType::Protein, 400),
                        "random");
}

TEST(AlignOracle, TieHeavyInputsMatch)
{
    // Tiny emission range over a 4-letter alphabet with cheap,
    // equal open/extend costs: many cells see equal M/I/D
    // predecessors, so the strict-vs-inclusive tie-breaks decide
    // which path is traced back.
    Rng rng(99);
    for (int c = 0; c < 40; ++c) {
        const size_t M = static_cast<size_t>(rng.nextRange(1, 48));
        std::vector<std::vector<int16_t>> rows(M);
        for (auto &r : rows)
            for (int a = 0; a < 4; ++a)
                r.push_back(static_cast<int16_t>(rng.nextRange(-1, 2)));
        GapModel gaps;
        gaps.open = static_cast<int>(rng.nextRange(0, 2));
        gaps.extend = static_cast<int>(rng.nextRange(0, gaps.open));
        const auto prof = ProfileHmm::fromEmissions(std::move(rows), gaps);

        const size_t L = static_cast<size_t>(rng.nextRange(1, 96));
        std::vector<uint8_t> codes(L);
        // Low-entropy targets: short repeats of one or two letters.
        const uint8_t a = static_cast<uint8_t>(rng.nextBounded(4));
        const uint8_t b = static_cast<uint8_t>(rng.nextBounded(4));
        for (size_t i = 0; i < L; ++i)
            codes[i] = rng.nextBool(0.8) ? a : b;
        expectMatchesOracle(
            prof, Sequence("t", MoleculeType::Dna, std::move(codes)),
            "tie case " + std::to_string(c));
    }
}

} // namespace
} // namespace afsb::msa
