#include "msa/nhmmer.hh"

#include <algorithm>

#include "msa/memory_model.hh"
#include "msa/staged_scan.hh"
#include "util/logging.hh"

namespace afsb::msa {

bio::Sequence
reverseComplement(const bio::Sequence &seq)
{
    if (seq.type() == bio::MoleculeType::Protein)
        fatal("reverseComplement: nucleotide sequences only");
    // Alphabets are ACGU / ACGT in encoded order 0..3; complement
    // swaps A<->U(T) (0<->3) and C<->G (1<->2).
    std::vector<uint8_t> codes(seq.length());
    for (size_t i = 0; i < seq.length(); ++i)
        codes[seq.length() - 1 - i] =
            static_cast<uint8_t>(3 - seq[i]);
    return bio::Sequence(seq.id() + "_rc", seq.type(),
                         std::move(codes));
}

NhmmerResult
runNhmmer(const bio::Sequence &query, const SequenceDatabase &db,
          io::PageCache &cache, ThreadPool *pool,
          const NhmmerConfig &cfg, double now,
          const std::vector<MemTraceSink *> &sinks)
{
    if (query.type() == bio::MoleculeType::Protein)
        fatal("nhmmer: nucleotide queries only");

    NhmmerResult out;
    out.modeledPeakMemory = nhmmerPeakMemoryBytes(query.length());

    const ScoreMatrix matrix = ScoreMatrix::nucleotide();
    const ProfileHmm prof = ProfileHmm::fromSequence(query, matrix);

    // Window the database: each long target is cut into overlapping
    // windows that are scanned as independent pseudo-targets. The
    // windowed copies are the nhmmer working set; at paper scale
    // this is what exhausts memory.
    const size_t window = std::max<size_t>(
        32, static_cast<size_t>(cfg.windowFactor *
                                static_cast<double>(query.length())));
    const size_t step = std::max<size_t>(
        1, static_cast<size_t>(static_cast<double>(window) *
                               (1.0 - cfg.overlap)));

    // Build the windowed target list (ids index back into db).
    std::vector<bio::Sequence> windows;
    std::vector<size_t> windowSource;
    for (size_t i = 0; i < db.size(); ++i) {
        const bio::Sequence &t = db.sequences()[i];
        for (size_t off = 0; off < t.length(); off += step) {
            const size_t end = std::min(t.length(), off + window);
            windows.push_back(t.subsequence(off, end));
            windowSource.push_back(i);
            if (cfg.bothStrands) {
                windows.push_back(
                    reverseComplement(windows.back()));
                windowSource.push_back(i);
            }
            if (end == t.length())
                break;
        }
    }
    out.windowsScanned = windows.size();

    // Window i's trace addresses and staged byte range are its
    // proportional slice of the database file.
    constexpr uint64_t kStreamBase = 0x6800'0000'0000ull;
    const uint64_t dbBytes = db.info().scaledBytes;
    const size_t nWin = windows.size();
    const double bytesPerWindow =
        nWin == 0 ? 0.0
                  : static_cast<double>(dbBytes) /
                        static_cast<double>(nWin);
    auto fileOff = [&](size_t k) {
        return dbBytes * static_cast<uint64_t>(k) /
               static_cast<uint64_t>(nWin);
    };
    auto kernelFor = [&](size_t i) {
        KernelConfig kernel = cfg.search.kernel;
        kernel.targetBase =
            kStreamBase + static_cast<uint64_t>(
                              static_cast<double>(i) * bytesPerWindow);
        return kernel;
    };

    const staged::ScanPlan plan = staged::planScan(
        cfg.search, db, pool, nWin, true, sinks, "nhmmer");
    SearchResult combined = staged::runScan(
        plan, cache, now,
        [&](size_t b, size_t e) {
            return SequenceDatabase::ByteExtent{
                fileOff(b), fileOff(e) - fileOff(b)};
        },
        [&](SearchResult &mine, MemTraceSink *sink, size_t i) {
            const bio::Sequence &target = windows[i];
            const KernelConfig kernel = kernelFor(i);
            if (sink) {
                // Reader-thread parse work for this window.
                const uint64_t bytes = target.length();
                sink->instructions(wellknown::addbuf(), bytes * 24);
                sink->instructions(wellknown::seebuf(), bytes * 9);
                sink->instructions(wellknown::copyToIter(),
                                   bytes * 8);
                sink->branches(wellknown::addbuf(), bytes / 4, 0);
                sink->access({0x7f70'0000'0000ull +
                                  kernel.targetBase % (4ull << 20),
                              64, true, wellknown::addbuf()});
                const uint64_t step =
                    64ull * cfg.search.kernel.traceStride;
                for (uint64_t off = 0; off < bytes; off += step)
                    sink->access({kernel.targetBase + off, 64, true,
                                  wellknown::copyToIter()});
            }
            return staged::prefilterTarget(prof, target, kernel,
                                           cfg.search, sink,
                                           mine.stats);
        },
        [&](SearchResult &mine, MemTraceSink *sink, size_t i) {
            staged::rescoreTarget(prof, windows[i], kernelFor(i),
                                  cfg.search, sink, windowSource[i],
                                  mine);
        });

    if (!plan.streams()) {
        // Stream the database bytes once (nhmmer reads the file
        // sequentially regardless of window results); the staged
        // engine already streamed them.
        const auto io = cache.read(
            db.fileId(), 0, std::max<uint64_t>(1, dbBytes), now);
        combined.stats.bytesStreamed += dbBytes;
        combined.stats.bytesFromDisk += io.bytesFromDisk;
        combined.stats.ioLatency += io.latency;
    }

    // Deduplicate hits per source target (keep the best window).
    std::sort(combined.hits.begin(), combined.hits.end(),
              [](const Hit &a, const Hit &b) {
                  if (a.targetIndex != b.targetIndex)
                      return a.targetIndex < b.targetIndex;
                  return a.forwardLogOdds > b.forwardLogOdds;
              });
    combined.hits.erase(
        std::unique(combined.hits.begin(), combined.hits.end(),
                    [](const Hit &a, const Hit &b) {
                        return a.targetIndex == b.targetIndex;
                    }),
        combined.hits.end());
    std::sort(combined.hits.begin(), combined.hits.end(),
              [](const Hit &a, const Hit &b) {
                  return a.forwardLogOdds > b.forwardLogOdds;
              });
    combined.stats.hits = combined.hits.size();

    out.stats = combined.stats;
    out.msa = buildMsa(query, prof, db, combined, cfg.build, pool);
    out.stats.cellsViterbi += out.msa.alignCells;
    return out;
}

} // namespace afsb::msa
