#include "msa/dp_kernels.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/logging.hh"
#include "util/simd.hh"

namespace afsb::msa {

namespace {

constexpr int kNeg = -1 << 20;  ///< "minus infinity" for int DP

/**
 * Instruction cost per DP cell after 16-lane SIMD amortization,
 * expressed as a rational (num/den) so accounting stays integral.
 * HMMER's vector kernels retire well under one instruction per
 * cell on the MSV filter and slightly more on the float pipeline.
 */
constexpr uint64_t kMsvInstrNum = 3, kMsvInstrDen = 5;       // 0.6
constexpr uint64_t kViterbiInstrNum = 6, kViterbiInstrDen = 5; // 1.2
constexpr uint64_t kForwardInstrNum = 8, kForwardInstrDen = 5; // 1.6

/** Cheap deterministic hash for arena addresses. */
inline uint64_t
arenaHash(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 29;
    return x;
}

/**
 * Deterministic virtual windows for the profile emission table and
 * the rolling DP rows. Tracing the buffers' real heap addresses
 * would leak allocator layout and ASLR state into the cache
 * simulator's set indexing, making miss counts (and therefore
 * simulated seconds) vary run to run. Fixed bases preserve the
 * locality structure that matters — profile rows shared across
 * targets, DP rows alternating in place — while keeping every
 * simulated run bit-identical for a given input.
 */
constexpr uint64_t kProfileBase = 0x7f10'0000'0000ull;
constexpr uint64_t kDpBase = 0x7f20'0000'0000ull;

/** Virtual address of the profile emission entry (pos, res). */
inline uint64_t
profAddr(const ProfileHmm &prof, size_t pos, uint8_t res)
{
    return kProfileBase +
           (pos * prof.alphabet() + res) * sizeof(int16_t);
}

/** 64-byte-aligned slot size for a DP row of @p bytes (mirrors the
 *  allocator placing the rows back to back). */
inline uint64_t
dpSlot(uint64_t bytes)
{
    return (bytes + 63) & ~63ull;
}

/** Emit the per-SIMD-block reference bundle. */
inline void
emitBlock(MemTraceSink *sink, const KernelConfig &cfg, FuncId func,
          uint64_t profile_addr, uint64_t dp_read_addr,
          uint64_t dp_write_addr, size_t row, uint64_t cell)
{
    sink->access({profile_addr, 32, false, func});
    sink->access({dp_read_addr, 64, false, func});
    sink->access({dp_write_addr, 64, true, func});
    if (cfg.targetBase) {
        // Align to the sampled-trace line grid so stream lines are
        // always ones the reader (copy_to_iter) touched first —
        // compulsory misses belong to the copy, re-reads to us.
        const uint64_t grid = 64ull * cfg.traceStride;
        sink->access({cfg.targetBase + (row / grid) * grid, 16,
                      false, func});
    }
    // Metadata reference: head line of a pseudo-random arena page
    // every other block (page-diverse, line-light).
    if (cell % (2 * 16 * cfg.traceStride) == 0) {
        const uint64_t h = arenaHash(cell + cfg.targetBase * 3);
        const uint64_t page = h % (cfg.arenaBytes / 4096);
        // One fixed line per page (the allocator's chunk header),
        // at a hashed page-dependent offset so the line population
        // is spread over all cache sets (page-aligned or otherwise
        // correlated offsets conflict-thrash a subset of sets).
        const uint64_t lineOff = (arenaHash(page) % 64) * 64;
        sink->access({cfg.arenaBase + page * 4096 + lineOff, 8,
                      false, func});
    }
    // Capacity reference: random line across the whole arena
    // (sampled like everything else, so the stride weight cancels).
    if (cell % (kArenaCells * cfg.traceStride) == 0) {
        const uint64_t slot =
            arenaHash(cell * 0x9e3779b97f4a7c15ull +
                      cfg.targetBase) %
            (cfg.arenaBytes / 64);
        sink->access({cfg.arenaBase + slot * 64, 8, false, func});
    }
}

/** Batched end-of-kernel accounting. */
inline void
finishKernel(MemTraceSink *sink, FuncId func, uint64_t cells,
             uint64_t instr_num, uint64_t instr_den,
             uint64_t data_branch_div)
{
    sink->instructions(func, cells * instr_num / instr_den);
    // SIMD leaves one loop branch per ~8 cells and one
    // data-dependent guard per data_branch_div cells.
    sink->branches(func, cells / 8, cells / data_branch_div);
}

/** Band bounds for target row j (1-based), center following the
 *  main diagonal. */
inline void
bandBounds(size_t j, size_t target_len, size_t profile_len,
           size_t band, size_t &k_lo, size_t &k_hi)
{
    const size_t center =
        (j * profile_len + target_len / 2) / target_len;
    k_lo = center > band ? center - band : 1;
    k_lo = std::max<size_t>(k_lo, 1);
    k_hi = std::min(profile_len, center + band);
    if (k_hi < k_lo)
        k_hi = k_lo;
}

/*
 * Native (untraced) striped kernels
 * ---------------------------------
 * The scalar loops above interleave trace emission with the DP
 * recurrence, which forces a branch and a strided int16 emission
 * lookup into every cell. The implementations below are what runs on
 * the wall-clock path (sink == nullptr): per-residue emission rows
 * are transposed into contiguous int/double arrays once per target,
 * and each DP row is computed in stripes the compiler autovectorizes
 * — the M and I states depend only on the previous row, the
 * loop-carried D state runs as a short scalar second pass. Integer
 * results are bit-identical to the scalar path; the Forward kernel
 * evaluates the same expressions in the same accumulation order.
 */

/** Transposed per-residue int emission rows, filled lazily so short
 *  targets never pay for unused alphabet letters. */
class IntEmissions
{
  public:
    explicit IntEmissions(const ProfileHmm &prof)
        : prof_(prof), m_(prof.length()),
          data_(prof.alphabet() * prof.length()),
          built_(prof.alphabet(), 0)
    {}

    const int *row(uint8_t res)
    {
        int *r = data_.data() + static_cast<size_t>(res) * m_;
        if (!built_[res]) {
            for (size_t k = 0; k < m_; ++k)
                r[k] = prof_.matchScore(k, res);
            built_[res] = 1;
        }
        return r;
    }

  private:
    const ProfileHmm &prof_;
    size_t m_;
    std::vector<int> data_;
    std::vector<uint8_t> built_;
};

/** Transposed per-residue Forward emission probabilities,
 *  exp2(score/2), computed once per residue instead of per cell.
 *  Same exp2 call per (pos, res) as the scalar loop, so values are
 *  bit-identical. */
class DoubleEmissions
{
  public:
    explicit DoubleEmissions(const ProfileHmm &prof)
        : prof_(prof), m_(prof.length()),
          data_(prof.alphabet() * prof.length()),
          built_(prof.alphabet(), 0)
    {}

    const double *row(uint8_t res)
    {
        double *r = data_.data() + static_cast<size_t>(res) * m_;
        if (!built_[res]) {
            for (size_t k = 0; k < m_; ++k)
                r[k] = std::exp2(0.5 * prof_.matchScore(k, res));
            built_[res] = 1;
        }
        return r;
    }

  private:
    const ProfileHmm &prof_;
    size_t m_;
    std::vector<double> data_;
    std::vector<uint8_t> built_;
};

MsvResult
msvFilterFast(const ProfileHmm &prof, const bio::Sequence &target)
{
    const size_t M = prof.length();
    const size_t L = target.length();
    MsvResult result;

    IntEmissions emit(prof);
    std::vector<int> rowA(M + 1, 0), rowB(M + 1, 0);
    int *prev = rowA.data();
    int *cur = rowB.data();
    int best = 0;
    for (size_t j = 1; j <= L; ++j) {
        const int *AFSB_RESTRICT e = emit.row(target[j - 1]);
        const int *AFSB_RESTRICT p = prev;
        int *AFSB_RESTRICT c = cur;
        c[0] = 0;
        int rowBest = 0;
        AFSB_VECTORIZE_LOOP
        for (size_t k = 0; k < M; ++k) {
            const int s = std::max(0, p[k] + e[k]);
            c[k + 1] = s;
            rowBest = std::max(rowBest, s);
        }
        best = std::max(best, rowBest);
        std::swap(prev, cur);
    }
    result.score = best;
    result.cells = static_cast<uint64_t>(L) * M;
    return result;
}

ViterbiResult
calcBand9Fast(const ProfileHmm &prof, const bio::Sequence &target,
              const KernelConfig &cfg)
{
    const size_t M = prof.length();
    const size_t L = target.length();
    ViterbiResult result;

    const int open = prof.gaps().open;
    const int extend = prof.gaps().extend;
    IntEmissions emit(prof);

    std::vector<int> bufs[6];
    for (auto &b : bufs)
        b.assign(M + 1, kNeg);
    int *pM = bufs[0].data(), *pI = bufs[1].data(),
        *pD = bufs[2].data();
    int *cM = bufs[3].data(), *cI = bufs[4].data(),
        *cD = bufs[5].data();

    int best = 0;
    uint64_t cells = 0;
    for (size_t j = 1; j <= L; ++j) {
        const int *AFSB_RESTRICT e = emit.row(target[j - 1]);
        size_t kLo, kHi;
        bandBounds(j, L, M, cfg.band, kLo, kHi);
        std::fill(cM, cM + M + 1, kNeg);
        std::fill(cI, cI + M + 1, kNeg);
        std::fill(cD, cD + M + 1, kNeg);

        {
            // M and I read the previous row only: no carried
            // dependence, a straight-line vector stripe.
            const int *AFSB_RESTRICT prevM = pM;
            const int *AFSB_RESTRICT prevI = pI;
            const int *AFSB_RESTRICT prevD = pD;
            int *AFSB_RESTRICT curM = cM;
            int *AFSB_RESTRICT curI = cI;
            AFSB_VECTORIZE_LOOP
            for (size_t k = kLo; k <= kHi; ++k) {
                const int diag = std::max(
                    std::max(0, prevM[k - 1]),
                    std::max(prevI[k - 1], prevD[k - 1]));
                curM[k] = diag + e[k - 1];
                curI[k] = std::max(prevM[k] - open,
                                   prevI[k] - extend);
            }
        }
        // D carries along the row: short scalar chain.
        for (size_t k = kLo; k <= kHi; ++k)
            cD[k] = std::max(cM[k - 1] - open, cD[k - 1] - extend);

        // The scalar loop records the first cell whose score beats
        // every earlier cell; that is the first occurrence of the
        // row max whenever the row max improves on `best`.
        int rowMax = kNeg;
        {
            const int *AFSB_RESTRICT curM = cM;
            AFSB_VECTORIZE_LOOP
            for (size_t k = kLo; k <= kHi; ++k)
                rowMax = std::max(rowMax, curM[k]);
        }
        if (rowMax > best) {
            best = rowMax;
            result.endTarget = j - 1;
            for (size_t k = kLo; k <= kHi; ++k) {
                if (cM[k] == rowMax) {
                    result.endProfile = k - 1;
                    break;
                }
            }
        }
        cells += kHi - kLo + 1;
        std::swap(pM, cM);
        std::swap(pI, cI);
        std::swap(pD, cD);
    }
    result.score = best;
    result.cells = cells;
    return result;
}

ForwardResult
calcBand10Fast(const ProfileHmm &prof, const bio::Sequence &target,
               const KernelConfig &cfg)
{
    const size_t M = prof.length();
    const size_t L = target.length();
    ForwardResult result;

    constexpr double tMM = 0.90, tIM = 0.40, tDM = 0.40;
    constexpr double tMI = 0.05, tII = 0.60;
    constexpr double tMD = 0.05, tDD = 0.60;
    const double entry = 1.0 / static_cast<double>(M);
    DoubleEmissions emit(prof);

    std::vector<double> bufs[6];
    for (auto &b : bufs)
        b.assign(M + 1, 0.0);
    double *pM = bufs[0].data(), *pI = bufs[1].data(),
           *pD = bufs[2].data();
    double *cM = bufs[3].data(), *cI = bufs[4].data(),
           *cD = bufs[5].data();

    double total = 0.0;
    double logScale = 0.0;
    uint64_t cells = 0;
    for (size_t j = 1; j <= L; ++j) {
        const double *AFSB_RESTRICT e = emit.row(target[j - 1]);
        size_t kLo, kHi;
        bandBounds(j, L, M, cfg.band, kLo, kHi);
        std::fill(cM, cM + M + 1, 0.0);
        std::fill(cI, cI + M + 1, 0.0);
        std::fill(cD, cD + M + 1, 0.0);

        {
            const double *AFSB_RESTRICT prevM = pM;
            const double *AFSB_RESTRICT prevI = pI;
            const double *AFSB_RESTRICT prevD = pD;
            double *AFSB_RESTRICT curM = cM;
            double *AFSB_RESTRICT curI = cI;
            AFSB_VECTORIZE_LOOP
            for (size_t k = kLo; k <= kHi; ++k) {
                curM[k] = e[k - 1] *
                          (prevM[k - 1] * tMM + prevI[k - 1] * tIM +
                           prevD[k - 1] * tDM + entry);
                curI[k] = prevM[k] * tMI + prevI[k] * tII;
            }
        }
        for (size_t k = kLo; k <= kHi; ++k)
            cD[k] = cM[k - 1] * tMD + cD[k - 1] * tDD;

        // Exit mass and row max in the scalar loop's ascending-k
        // accumulation order, so `total` sums identically.
        double rowMax = 0.0;
        for (size_t k = kLo; k <= kHi; ++k) {
            total += cM[k] * 0.05;
            rowMax = std::max(rowMax, cM[k]);
        }

        if (rowMax > 1e100) {
            const double inv = 1e-100;
            for (size_t k = kLo; k <= kHi; ++k) {
                cM[k] *= inv;
                cI[k] *= inv;
                cD[k] *= inv;
            }
            total *= inv;
            logScale += 100.0 * std::log2(10.0);
        }
        cells += kHi - kLo + 1;
        std::swap(pM, cM);
        std::swap(pI, cI);
        std::swap(pD, cD);
    }
    result.logOdds =
        total > 0.0 ? std::log2(total) + logScale : -1e9;
    result.cells = cells;
    return result;
}

} // namespace

MsvResult
msvFilter(const ProfileHmm &prof, const bio::Sequence &target,
          const KernelConfig &cfg, MemTraceSink *sink)
{
    const size_t M = prof.length();
    const size_t L = target.length();
    MsvResult result;
    if (L == 0 || M == 0)
        return result;
    if (sink == nullptr && !cfg.forceScalar)
        return msvFilterFast(prof, target);

    // Single rolling row: S[k] = best ungapped segment ending at
    // (j, k). Two alternating buffers keep diagonal dependencies.
    std::vector<int> prev(M + 1, 0);
    std::vector<int> cur(M + 1, 0);

    const uint64_t blockStride =
        static_cast<uint64_t>(kSimdWidth) * cfg.traceStride;
    const uint64_t slot = dpSlot((M + 1) * sizeof(int));
    uint64_t vPrev = kDpBase;
    uint64_t vCur = kDpBase + slot;
    int best = 0;
    uint64_t cell = 0;
    // The integer filter pipeline (SSV/MSV + Viterbi) is what the
    // paper's calc_band_9 symbol covers; attribute it there.
    const FuncId func = wellknown::calcBand9();
    for (size_t j = 1; j <= L; ++j) {
        const uint8_t res = target[j - 1];
        cur[0] = 0;
        for (size_t k = 1; k <= M; ++k) {
            const int emit = prof.matchScore(k - 1, res);
            const int s = std::max(0, prev[k - 1] + emit);
            cur[k] = s;
            best = std::max(best, s);
            if (sink && (cell % blockStride) == 0)
                emitBlock(sink, cfg, func,
                          profAddr(prof, k - 1, res),
                          vPrev + (k - 1) * sizeof(int),
                          vCur + k * sizeof(int), j - 1, cell);
            ++cell;
        }
        prev.swap(cur);
        std::swap(vPrev, vCur);
    }
    result.score = best;
    result.cells = cell;
    if (sink)
        finishKernel(sink, func, cell, kMsvInstrNum, kMsvInstrDen,
                     16);
    return result;
}

ViterbiResult
calcBand9(const ProfileHmm &prof, const bio::Sequence &target,
          const KernelConfig &cfg, MemTraceSink *sink)
{
    const size_t M = prof.length();
    const size_t L = target.length();
    ViterbiResult result;
    if (L == 0 || M == 0)
        return result;
    if (sink == nullptr && !cfg.forceScalar)
        return calcBand9Fast(prof, target, cfg);

    const int open = prof.gaps().open;
    const int extend = prof.gaps().extend;

    std::vector<int> prevM(M + 1, kNeg), prevI(M + 1, kNeg),
        prevD(M + 1, kNeg);
    std::vector<int> curM(M + 1, kNeg), curI(M + 1, kNeg),
        curD(M + 1, kNeg);

    const uint64_t blockStride =
        static_cast<uint64_t>(kSimdWidth) * cfg.traceStride;
    // Six rows allocated back to back: prevM/I/D then curM/I/D.
    const uint64_t slot = dpSlot((M + 1) * sizeof(int));
    uint64_t vPrevM = kDpBase;
    uint64_t vCurM = kDpBase + 3 * slot;
    int best = 0;
    uint64_t cell = 0;
    const FuncId func = wellknown::calcBand9();

    for (size_t j = 1; j <= L; ++j) {
        const uint8_t res = target[j - 1];
        size_t kLo, kHi;
        bandBounds(j, L, M, cfg.band, kLo, kHi);
        std::fill(curM.begin(), curM.end(), kNeg);
        std::fill(curI.begin(), curI.end(), kNeg);
        std::fill(curD.begin(), curD.end(), kNeg);

        for (size_t k = kLo; k <= kHi; ++k) {
            const int emit = prof.matchScore(k - 1, res);
            const int diag = std::max(
                {0, prevM[k - 1], prevI[k - 1], prevD[k - 1]});
            const int m = diag + emit;
            curM[k] = m;
            curI[k] = std::max(prevM[k] - open, prevI[k] - extend);
            curD[k] =
                std::max(curM[k - 1] - open, curD[k - 1] - extend);
            if (m > best) {
                best = m;
                result.endTarget = j - 1;
                result.endProfile = k - 1;
            }
            if (sink && (cell % blockStride) == 0)
                emitBlock(sink, cfg, func,
                          profAddr(prof, k - 1, res),
                          vPrevM + (k - 1) * sizeof(int),
                          vCurM + k * sizeof(int), j - 1, cell);
            ++cell;
        }
        prevM.swap(curM);
        prevI.swap(curI);
        prevD.swap(curD);
        std::swap(vPrevM, vCurM);
    }
    result.score = best;
    result.cells = cell;
    if (sink)
        finishKernel(sink, func, cell, kViterbiInstrNum,
                     kViterbiInstrDen, 8);
    return result;
}

ForwardResult
calcBand10(const ProfileHmm &prof, const bio::Sequence &target,
           const KernelConfig &cfg, MemTraceSink *sink)
{
    const size_t M = prof.length();
    const size_t L = target.length();
    ForwardResult result;
    if (L == 0 || M == 0)
        return result;
    if (sink == nullptr && !cfg.forceScalar)
        return calcBand10Fast(prof, target, cfg);

    // Probability-space Forward with per-row rescaling (the HMMER3
    // approach). Emission probabilities come from half-bit scores:
    // p = 2^(score/2), normalized by entry mass 1/M.
    constexpr double tMM = 0.90, tIM = 0.40, tDM = 0.40;
    constexpr double tMI = 0.05, tII = 0.60;
    constexpr double tMD = 0.05, tDD = 0.60;
    const double entry = 1.0 / static_cast<double>(M);

    std::vector<double> prevM(M + 1, 0.0), prevI(M + 1, 0.0),
        prevD(M + 1, 0.0);
    std::vector<double> curM(M + 1, 0.0), curI(M + 1, 0.0),
        curD(M + 1, 0.0);

    const uint64_t blockStride =
        static_cast<uint64_t>(kSimdWidth) * cfg.traceStride;
    const uint64_t slot = dpSlot((M + 1) * sizeof(double));
    uint64_t vPrevM = kDpBase;
    uint64_t vCurM = kDpBase + 3 * slot;
    double total = 0.0;
    double logScale = 0.0;
    uint64_t cell = 0;
    const FuncId func = wellknown::calcBand10();

    for (size_t j = 1; j <= L; ++j) {
        const uint8_t res = target[j - 1];
        size_t kLo, kHi;
        bandBounds(j, L, M, cfg.band, kLo, kHi);
        std::fill(curM.begin(), curM.end(), 0.0);
        std::fill(curI.begin(), curI.end(), 0.0);
        std::fill(curD.begin(), curD.end(), 0.0);

        double rowMax = 0.0;
        for (size_t k = kLo; k <= kHi; ++k) {
            const double emit = std::exp2(
                0.5 * prof.matchScore(k - 1, res));
            const double m =
                emit * (prevM[k - 1] * tMM + prevI[k - 1] * tIM +
                        prevD[k - 1] * tDM + entry);
            curM[k] = m;
            curI[k] = prevM[k] * tMI + prevI[k] * tII;
            curD[k] = curM[k - 1] * tMD + curD[k - 1] * tDD;
            total += m * 0.05;  // exit mass
            rowMax = std::max(rowMax, m);
            if (sink && (cell % blockStride) == 0)
                emitBlock(sink, cfg, func,
                          profAddr(prof, k - 1, res),
                          vPrevM + (k - 1) * sizeof(double),
                          vCurM + k * sizeof(double), j - 1, cell);
            ++cell;
        }

        // Rescale to avoid overflow on long, similar targets.
        if (rowMax > 1e100) {
            const double inv = 1e-100;
            for (size_t k = kLo; k <= kHi; ++k) {
                curM[k] *= inv;
                curI[k] *= inv;
                curD[k] *= inv;
            }
            total *= inv;
            logScale += 100.0 * std::log2(10.0);
        }
        prevM.swap(curM);
        prevI.swap(curI);
        prevD.swap(curD);
        std::swap(vPrevM, vCurM);
    }
    result.logOdds =
        total > 0.0 ? std::log2(total) + logScale : -1e9;
    result.cells = cell;
    if (sink)
        finishKernel(sink, func, cell, kForwardInstrNum,
                     kForwardInstrDen, 16);
    return result;
}

AlignmentResult
alignToProfile(const ProfileHmm &prof, const bio::Sequence &target,
               const KernelConfig &cfg)
{
    (void)cfg;
    const size_t M = prof.length();
    const size_t L = target.length();
    AlignmentResult result;
    result.profileToTarget.assign(M, -1);
    if (L == 0 || M == 0)
        return result;

    const int open = prof.gaps().open;
    const int extend = prof.gaps().extend;
    IntEmissions emit(prof);

    // Full (unbanded) local affine DP. Scores live in two rolling
    // rows per state; the traceback keeps one byte per cell, so a
    // hit costs L*M bytes instead of six (L+1)*(M+1) matrices and
    // hits aligned concurrently stay small. Backpointer byte:
    // bits 0-1 M (0=start 1=M 2=I 3=D), bit 2 I (0=M 1=I),
    // bit 3 D (0=M 1=D).
    constexpr uint8_t kBitI = 1u << 2, kBitD = 1u << 3;
    std::vector<uint8_t> trace(L * M);
    std::vector<int> bufs[6];
    for (auto &b : bufs)
        b.assign(M + 1, kNeg);
    int *pM = bufs[0].data(), *pI = bufs[1].data(),
        *pD = bufs[2].data();
    int *cM = bufs[3].data(), *cI = bufs[4].data(),
        *cD = bufs[5].data();

    int best = 0;
    size_t bestJ = 0, bestK = 0;
    for (size_t j = 1; j <= L; ++j) {
        const int *AFSB_RESTRICT e = emit.row(target[j - 1]);
        uint8_t *AFSB_RESTRICT bp = trace.data() + (j - 1) * M;
        {
            // M and I read the previous row only. Ties keep the
            // earlier source: M prefers start > M > I > D, I prefers
            // M over I.
            const int *AFSB_RESTRICT prevM = pM;
            const int *AFSB_RESTRICT prevI = pI;
            const int *AFSB_RESTRICT prevD = pD;
            int *AFSB_RESTRICT curM = cM;
            int *AFSB_RESTRICT curI = cI;
            AFSB_VECTORIZE_LOOP
            for (size_t k = 1; k <= M; ++k) {
                int d = 0;
                uint8_t b = 0;
                if (prevM[k - 1] > d) {
                    d = prevM[k - 1];
                    b = 1;
                }
                if (prevI[k - 1] > d) {
                    d = prevI[k - 1];
                    b = 2;
                }
                if (prevD[k - 1] > d) {
                    d = prevD[k - 1];
                    b = 3;
                }
                curM[k] = d + e[k - 1];
                const int iFromM = prevM[k] - open;
                const int iFromI = prevI[k] - extend;
                curI[k] = iFromM >= iFromI ? iFromM : iFromI;
                bp[k - 1] = static_cast<uint8_t>(
                    b | (iFromM >= iFromI ? 0 : kBitI));
            }
        }
        // D carries along the row: short scalar chain.
        int rowMax = kNeg;
        size_t rowArg = 0;
        for (size_t k = 1; k <= M; ++k) {
            const int dFromM = cM[k - 1] - open;
            const int dFromD = cD[k - 1] - extend;
            if (dFromM >= dFromD) {
                cD[k] = dFromM;
            } else {
                cD[k] = dFromD;
                bp[k - 1] |= kBitD;
            }
            if (cM[k] > rowMax) {
                rowMax = cM[k];
                rowArg = k;
            }
        }
        // Strict > here and above: the end cell is the first cell, in
        // target-major order, that beats every earlier one.
        if (rowMax > best) {
            best = rowMax;
            bestJ = j;
            bestK = rowArg;
        }
        std::swap(pM, cM);
        std::swap(pI, cI);
        std::swap(pD, cD);
    }
    result.cells = static_cast<uint64_t>(L) * M;
    result.score = best;
    if (best <= 0)
        return result;

    // Traceback from the best match cell.
    size_t j = bestJ, k = bestK;
    int state = 0;  // 0=M, 1=I, 2=D
    while (j > 0 && k > 0) {
        const uint8_t b = trace[(j - 1) * M + (k - 1)];
        if (state == 0) {
            result.profileToTarget[k - 1] =
                static_cast<int32_t>(j - 1);
            if ((b & 3u) == 0)
                break;  // local alignment start
            state = (b & 3u) - 1;  // 1->M, 2->I, 3->D
            --j;
            --k;
        } else if (state == 1) {
            state = b & kBitI ? 1 : 0;
            --j;
        } else {
            state = b & kBitD ? 2 : 0;
            --k;
        }
    }
    return result;
}

} // namespace afsb::msa
