#include "model/block_graph.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "model/unit_kernels.hh"
#include "tensor/arena.hh"
#include "tensor/ops.hh"
#include "util/task.hh"
#include "util/threadpool.hh"

namespace afsb::model::graph {

namespace {

using tensor::Arena;
using tensor::Tensor;
namespace rowops = tensor::rowops;

constexpr float kEps = 1e-5f;

/**
 * Pair tensors are carved into blocks of kMultRowTile lines so the
 * triangle-einsum tiles nest exactly (one tile per block) and every
 * GEMM range starts on an even row: a block starts at line
 * 16*bl, i.e. row 16*bl*n — always even, whatever n is.
 */
constexpr size_t kLineBlock = unitk::kMultRowTile;
static_assert(kLineBlock % 2 == 0,
              "line blocks must keep GEMM row pairing aligned");

/** Token rows per diffusion row-block task (even: GEMM pairing). */
constexpr size_t kTokenRowBlock = 8;

struct LineBlocks
{
    size_t n = 0;
    size_t nb = 0;
    explicit LineBlocks(size_t lines)
        : n(lines), nb((lines + kLineBlock - 1) / kLineBlock)
    {
    }
    size_t lo(size_t bl) const { return bl * kLineBlock; }
    size_t hi(size_t bl) const
    {
        return std::min(n, lo(bl) + kLineBlock);
    }
};

/** Per-line-block chain hook: fired when a sub-layer has fully
 *  updated the pair lines of block bl. */
using BlockChain = std::function<void(size_t)>;

using Clock = std::chrono::steady_clock;

/// Nanoseconds the calling thread spent in metered bodies nested
/// inside the body it is running (an inline group runs a spawned
/// task inside its spawner); subtracted so every body is charged
/// only its exclusive time.
thread_local int64_t tlsNestedNs = 0;

/**
 * Busy time of one sub-layer's tasks: one counter per TaskGroup
 * runner slot (a slot runs on one thread at a time), merged in slot
 * order once the window has synced.  Disabled — no clock reads —
 * when nothing consumes the time.
 */
class BusyMeter
{
  public:
    BusyMeter(const TaskGroup &g, bool enabled)
        : g_(g), ns_(enabled ? g.slots() : 0)
    {
    }

    template <class F> void run(const F &body)
    {
        if (ns_.empty()) {
            body();
            return;
        }
        const int64_t outer = tlsNestedNs;
        tlsNestedNs = 0;
        const auto t0 = Clock::now();
        body();
        const int64_t dt =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0)
                .count();
        ns_[g_.currentSlot()].ns += dt - tlsNestedNs;
        tlsNestedNs = outer + dt;
    }

    double seconds() const
    {
        int64_t total = 0;
        for (const Counter &c : ns_)
            total += c.ns;
        return static_cast<double>(total) * 1e-9;
    }

  private:
    struct alignas(64) Counter
    {
        int64_t ns = 0;
    };
    const TaskGroup &g_;
    std::vector<Counter> ns_;
};

/**
 * A graph sub-layer: spawns and gates through this base charge their
 * bodies' busy time to the sub-layer's meter.
 */
class SubLayer
{
  public:
    SubLayer(const SubLayer &) = delete;
    SubLayer &operator=(const SubLayer &) = delete;

    const BusyMeter &busy() const { return busy_; }

  protected:
    SubLayer(TaskGroup &g, bool timed) : g_(g), busy_(g, timed) {}

    template <class F> void spawn(F body)
    {
        g_.spawn([this, body] { busy_.run(body); });
    }

    template <class F> TaskGroup::Gate *gate(size_t count, F body)
    {
        return g_.gate(count, [this, body] { busy_.run(body); });
    }

    TaskGroup &g_;
    BusyMeter busy_;
};

/**
 * Feeds a LayerTimeHook from consecutive sync windows: each window's
 * wall time, measured from the previous window's end, is split among
 * the window's sub-layers by busy share (the last part takes the
 * rounding remainder), so the parts sum to the run's wall time.
 */
class WindowReporter
{
  public:
    struct Part
    {
        const char *name;
        const BusyMeter *busy;
    };

    explicit WindowReporter(const LayerTimeHook &hook) : hook_(hook)
    {
        if (hook_)
            last_ = Clock::now();
    }

    bool timed() const { return static_cast<bool>(hook_); }

    /** Close the window that just synced. */
    void close(const std::vector<Part> &parts)
    {
        if (!hook_)
            return;
        const auto now = Clock::now();
        const double wall =
            std::chrono::duration<double>(now - last_).count();
        last_ = now;
        double busy = 0.0;
        for (const Part &p : parts)
            busy += p.busy->seconds();
        double left = wall;
        for (size_t i = 0; i < parts.size(); ++i) {
            const double share =
                busy > 0.0 ? parts[i].busy->seconds() / busy
                           : 1.0 / static_cast<double>(parts.size());
            const double t =
                i + 1 < parts.size() ? wall * share : left;
            left -= t;
            hook_(parts[i].name, t);
        }
    }

  private:
    const LayerTimeHook &hook_;
    Clock::time_point last_;
};

/**
 * One triangle multiplicative update as a graph segment.
 *
 *   A[bl] (LN + gated a/b projections + out gate, row-local)
 *     -> allA latch (the einsum reads every b line)
 *     -> [incoming only] per-block line transposes -> allT latch
 *     -> one einsum tile task per 16-line block
 *     -> O[bl] (LN + out projection + gate + residual, row-local)
 *     -> next sub-layer's A[bl].
 */
class TriMultSub : public SubLayer
{
  public:
    TriMultSub(TaskGroup &g, Tensor &pair,
               const TriangleMultWeights &w, bool outgoing,
               Arena *arena, bool timed)
        : SubLayer(g, timed), pair_(pair), w_(w), outgoing_(outgoing),
          n_(pair.dim(0)), c_(pair.dim(2)), lb_(n_)
    {
        const std::vector<size_t> pairShape{n_, n_, c_};
        normed_ = Tensor::uninitialized(pairShape, arena);
        sig_ = Tensor::uninitialized(pairShape, arena);
        aBuf_ = Tensor::uninitialized(pairShape, arena);
        bBuf_ = Tensor::uninitialized(pairShape, arena);
        gateOut_ = Tensor::uninitialized(pairShape, arena);
        out_ = Tensor::uninitialized(pairShape, arena);
        normOut_ = Tensor::uninitialized(pairShape, arena);
        update_ = Tensor::uninitialized(pairShape, arena);
        if (!outgoing_) {
            aT_ = Tensor::uninitialized(pairShape, arena);
            bT_ = Tensor::uninitialized(pairShape, arena);
        }

        allA_ = gate(lb_.nb, [this] { onAllA(); });
        if (!outgoing_)
            allT_ = gate(lb_.nb, [this] {
                spawnTiles(aT_.data(), bT_.data());
            });
        oGate_.resize(lb_.nb);
        for (size_t bl = 0; bl < lb_.nb; ++bl)
            oGate_[bl] = gate(1, [this, bl] { oBody(bl); });
    }

    void setNext(BlockChain next) { next_ = std::move(next); }

    /** Spawn the block's prologue (call at build or from the
     *  previous sub-layer's O task). */
    void start(size_t bl)
    {
        spawn([this, bl] { aBody(bl); });
    }

  private:
    void aBody(size_t bl)
    {
        const size_t r0 = lb_.lo(bl) * n_;
        const size_t r1 = lb_.hi(bl) * n_;
        const size_t e0 = r0 * c_, e1 = r1 * c_;
        rowops::layerNormRows(pair_.data(), normed_.data(), c_, kEps,
                              r0, r1);
        rowops::linearRows(normed_.data(), w_.gateA.data(), nullptr,
                           sig_.data(), c_, c_, r0, r1);
        rowops::sigmoidRange(sig_.data(), sig_.data(), e0, e1);
        rowops::linearRows(normed_.data(), w_.projA.data(), nullptr,
                           aBuf_.data(), c_, c_, r0, r1);
        rowops::mulRange(sig_.data(), aBuf_.data(), aBuf_.data(), e0,
                         e1);
        rowops::linearRows(normed_.data(), w_.gateB.data(), nullptr,
                           sig_.data(), c_, c_, r0, r1);
        rowops::sigmoidRange(sig_.data(), sig_.data(), e0, e1);
        rowops::linearRows(normed_.data(), w_.projB.data(), nullptr,
                           bBuf_.data(), c_, c_, r0, r1);
        rowops::mulRange(sig_.data(), bBuf_.data(), bBuf_.data(), e0,
                         e1);
        rowops::linearRows(normed_.data(), w_.outGate.data(), nullptr,
                           gateOut_.data(), c_, c_, r0, r1);
        rowops::sigmoidRange(gateOut_.data(), gateOut_.data(), e0,
                             e1);
        allA_->arrive();
    }

    void onAllA()
    {
        if (outgoing_) {
            spawnTiles(aBuf_.data(), bBuf_.data());
            return;
        }
        for (size_t bl = 0; bl < lb_.nb; ++bl)
            spawn([this, bl] {
                unitk::transposeLinesRange(aT_.data(), aBuf_.data(),
                                           n_, c_, lb_.lo(bl),
                                           lb_.hi(bl));
                unitk::transposeLinesRange(bT_.data(), bBuf_.data(),
                                           n_, c_, lb_.lo(bl),
                                           lb_.hi(bl));
                allT_->arrive();
            });
    }

    void spawnTiles(const float *ap, const float *bp)
    {
        for (size_t u = 0; u < lb_.nb; ++u)
            spawn([this, ap, bp, u] {
                unitk::triMultTile(out_.data(), ap, bp, n_, c_, u);
                oGate_[u]->arrive();
            });
    }

    void oBody(size_t bl)
    {
        const size_t r0 = lb_.lo(bl) * n_;
        const size_t r1 = lb_.hi(bl) * n_;
        const size_t e0 = r0 * c_, e1 = r1 * c_;
        rowops::layerNormRows(out_.data(), normOut_.data(), c_, kEps,
                              r0, r1);
        rowops::linearRows(normOut_.data(), w_.outProj.data(),
                           w_.bias.data(), update_.data(), c_, c_,
                           r0, r1);
        rowops::mulRange(update_.data(), gateOut_.data(),
                         update_.data(), e0, e1);
        rowops::addRange(pair_.data(), update_.data(), e0, e1);
        if (next_)
            next_(bl);
    }

    Tensor &pair_;
    const TriangleMultWeights &w_;
    bool outgoing_;
    size_t n_, c_;
    LineBlocks lb_;
    Tensor normed_, sig_, aBuf_, bBuf_, gateOut_, aT_, bT_, out_,
        normOut_, update_;
    TaskGroup::Gate *allA_ = nullptr;
    TaskGroup::Gate *allT_ = nullptr;
    std::vector<TaskGroup::Gate *> oGate_;
    BlockChain next_;
};

/**
 * One triangle attention as a graph segment.
 *
 *   A[bl] (LN + q/k/v/bias projections + q scaling, row-local)
 *     -> allA latch (each unit's bias pack plane spans every line)
 *     -> per-head bias pack tasks -> pack latch
 *     -> one (line, head) unit task each
 *     -> starting: units of a line arrive that block's O gate
 *        ending: units write ctx columns, so a full-unit latch
 *        releases every O[bl] at once
 *     -> O[bl] (out projection + residual) -> next sub-layer.
 */
class TriAttnSub : public SubLayer
{
  public:
    TriAttnSub(TaskGroup &g, Tensor &pair,
               const TriangleAttnWeights &w, bool starting,
               const ModelConfig &cfg, Arena *arena, bool timed)
        : SubLayer(g, timed), pair_(pair), w_(w), starting_(starting),
          n_(pair.dim(0)), c_(pair.dim(2)), heads_(cfg.heads),
          dh_(cfg.headDim), lb_(n_)
    {
        const size_t hd = heads_ * dh_;
        normed_ = Tensor::uninitialized({n_, n_, c_}, arena);
        q_ = Tensor::uninitialized({n_, n_, hd}, arena);
        k_ = Tensor::uninitialized({n_, n_, hd}, arena);
        v_ = Tensor::uninitialized({n_, n_, hd}, arena);
        biasT_ = Tensor::uninitialized({n_, n_, heads_}, arena);
        pack_ = Tensor::uninitialized({heads_, n_, n_}, arena);
        ctx_ = Tensor::zeros({n_, n_, hd}, arena);
        update_ = Tensor::uninitialized({n_, n_, c_}, arena);

        allA_ = gate(lb_.nb, [this] { onAllA(); });
        packG_ = gate(heads_, [this] { spawnUnits(); });
        if (starting_) {
            oGate_.resize(lb_.nb);
            for (size_t bl = 0; bl < lb_.nb; ++bl)
                oGate_[bl] = gate(
                    (lb_.hi(bl) - lb_.lo(bl)) * heads_,
                    [this, bl] { oBody(bl); });
        } else {
            allU_ = gate(n_ * heads_, [this] {
                for (size_t bl = 0; bl < lb_.nb; ++bl)
                    spawn([this, bl] { oBody(bl); });
            });
        }
    }

    void setNext(BlockChain next) { next_ = std::move(next); }

    void start(size_t bl)
    {
        spawn([this, bl] { aBody(bl); });
    }

  private:
    void aBody(size_t bl)
    {
        const size_t hd = heads_ * dh_;
        const size_t r0 = lb_.lo(bl) * n_;
        const size_t r1 = lb_.hi(bl) * n_;
        const float invSqrt =
            1.0f / std::sqrt(static_cast<float>(dh_));
        rowops::layerNormRows(pair_.data(), normed_.data(), c_, kEps,
                              r0, r1);
        rowops::linearRows(normed_.data(), w_.q.data(), nullptr,
                           q_.data(), c_, hd, r0, r1);
        rowops::scaleRange(q_.data(), q_.data(), invSqrt, r0 * hd,
                           r1 * hd);
        rowops::linearRows(normed_.data(), w_.k.data(), nullptr,
                           k_.data(), c_, hd, r0, r1);
        rowops::linearRows(normed_.data(), w_.v.data(), nullptr,
                           v_.data(), c_, hd, r0, r1);
        rowops::linearRows(normed_.data(), w_.biasProj.data(),
                           nullptr, biasT_.data(), c_, heads_, r0,
                           r1);
        allA_->arrive();
    }

    void onAllA()
    {
        for (size_t h = 0; h < heads_; ++h)
            spawn([this, h] {
                unitk::packTriBiasRows(pack_.data(), biasT_.data(),
                                       n_, heads_, starting_, h * n_,
                                       (h + 1) * n_);
                packG_->arrive();
            });
    }

    void spawnUnits()
    {
        for (size_t u = 0; u < n_ * heads_; ++u)
            spawn([this, u] {
                unitk::triAttnUnit(ctx_.data(), q_.data(), k_.data(),
                                   v_.data(), pack_.data(), n_,
                                   heads_, dh_, starting_, u,
                                   unitk::tlsScratchA(),
                                   unitk::tlsScratchB());
                if (starting_)
                    oGate_[(u / heads_) / kLineBlock]->arrive();
                else
                    allU_->arrive();
            });
    }

    void oBody(size_t bl)
    {
        const size_t hd = heads_ * dh_;
        const size_t r0 = lb_.lo(bl) * n_;
        const size_t r1 = lb_.hi(bl) * n_;
        rowops::linearRows(ctx_.data(), w_.outProj.data(),
                           w_.outBias.data(), update_.data(), hd, c_,
                           r0, r1);
        rowops::addRange(pair_.data(), update_.data(), r0 * c_,
                         r1 * c_);
        if (next_)
            next_(bl);
    }

    Tensor &pair_;
    const TriangleAttnWeights &w_;
    bool starting_;
    size_t n_, c_, heads_, dh_;
    LineBlocks lb_;
    Tensor normed_, q_, k_, v_, biasT_, pack_, ctx_, update_;
    TaskGroup::Gate *allA_ = nullptr;
    TaskGroup::Gate *packG_ = nullptr;
    TaskGroup::Gate *allU_ = nullptr;
    std::vector<TaskGroup::Gate *> oGate_;
    BlockChain next_;
};

/** Row-local transition MLP over pair line blocks: one task per
 *  block, no latch anywhere — the purest chain link. */
class PairTransSub : public SubLayer
{
  public:
    PairTransSub(TaskGroup &g, Tensor &pair,
                 const TransitionWeights &w, Arena *arena, bool timed)
        : SubLayer(g, timed), pair_(pair), w_(w), n_(pair.dim(0)),
          c_(pair.dim(2)), hidden_(w.w1.dim(1)), lb_(n_)
    {
        normT_ = Tensor::uninitialized({n_, n_, c_}, arena);
        hbuf_ = Tensor::uninitialized({n_, n_, hidden_}, arena);
        update_ = Tensor::uninitialized({n_, n_, c_}, arena);
    }

    void setNext(BlockChain next) { next_ = std::move(next); }

    void start(size_t bl)
    {
        spawn([this, bl] { body(bl); });
    }

  private:
    void body(size_t bl)
    {
        const size_t r0 = lb_.lo(bl) * n_;
        const size_t r1 = lb_.hi(bl) * n_;
        rowops::layerNormRows(pair_.data(), normT_.data(), c_, kEps,
                              r0, r1);
        rowops::linearRows(normT_.data(), w_.w1.data(),
                           w_.b1.data(), hbuf_.data(), c_, hidden_,
                           r0, r1);
        rowops::geluRange(hbuf_.data(), hbuf_.data(), r0 * hidden_,
                          r1 * hidden_);
        rowops::linearRows(hbuf_.data(), w_.w2.data(), w_.b2.data(),
                           update_.data(), hidden_, c_, r0, r1);
        rowops::addRange(pair_.data(), update_.data(), r0 * c_,
                         r1 * c_);
        if (next_)
            next_(bl);
    }

    Tensor &pair_;
    const TransitionWeights &w_;
    size_t n_, c_, hidden_;
    LineBlocks lb_;
    Tensor normT_, hbuf_, update_;
    BlockChain next_;
};

/**
 * Single attention with pair bias plus the single transition, as the
 * tail of window 3: the pair-bias projection chains per line block
 * off the pair transition, the single-side q/k/v task runs
 * concurrently from the window start, and one latch releases the
 * per-head units once both sides are in.  The base meter times the
 * attention; the transition, run inside the same final task, has a
 * meter of its own.
 */
class SingleTailSub : public SubLayer
{
  public:
    SingleTailSub(TaskGroup &g, Tensor &single, const Tensor &pair,
                  const SingleAttnWeights &wa,
                  const TransitionWeights &wt,
                  const ModelConfig &cfg, Arena *arena, bool timed)
        : SubLayer(g, timed), transBusy_(g, timed), single_(single),
          pair_(pair), wa_(wa), wt_(wt),
          n_(single.dim(0)), cs_(single.dim(1)), cz_(pair.dim(2)),
          heads_(cfg.heads), dh_(cfg.headDim),
          hidden_(wt.w1.dim(1)), lb_(pair.dim(0))
    {
        const size_t hd = heads_ * dh_;
        normP_ = Tensor::uninitialized({lb_.n, lb_.n, cz_}, arena);
        biasS_ =
            Tensor::uninitialized({lb_.n, lb_.n, heads_}, arena);
        normS_ = Tensor::uninitialized({n_, cs_}, arena);
        qS_ = Tensor::uninitialized({n_, hd}, arena);
        kS_ = Tensor::uninitialized({n_, hd}, arena);
        vS_ = Tensor::uninitialized({n_, hd}, arena);
        ctxS_ = Tensor::zeros({n_, hd}, arena);
        updS_ = Tensor::uninitialized({n_, cs_}, arena);
        hS_ = Tensor::uninitialized({n_, hidden_}, arena);

        gSA_ = gate(lb_.nb + 1, [this] {
            for (size_t h = 0; h < heads_; ++h)
                spawn([this, h] {
                    unitk::singleAttnHead(ctxS_.data(), qS_.data(),
                                          kS_.data(), vS_.data(),
                                          biasS_.data(), n_, heads_,
                                          dh_, h,
                                          unitk::tlsScratchA(),
                                          unitk::tlsScratchB());
                    gCtx_->arrive();
                });
        });
        gCtx_ = gate(heads_, [this] { tailBody(); });
    }

    const BusyMeter &transitionBusy() const { return transBusy_; }

    /** Per-pair-line-block bias chain hook (pair transition next_). */
    void biasStart(size_t bl)
    {
        spawn([this, bl] {
            const size_t r0 = lb_.lo(bl) * lb_.n;
            const size_t r1 = lb_.hi(bl) * lb_.n;
            rowops::layerNormRows(pair_.data(), normP_.data(), cz_,
                                  kEps, r0, r1);
            rowops::linearRows(normP_.data(), wa_.pairBias.data(),
                               nullptr, biasS_.data(), cz_, heads_,
                               r0, r1);
            gSA_->arrive();
        });
    }

    /** Single-side projections; independent of the pair chain. */
    void startSingleSide()
    {
        spawn([this] {
            const size_t hd = heads_ * dh_;
            const float invSqrt =
                1.0f / std::sqrt(static_cast<float>(dh_));
            rowops::layerNormRows(single_.data(), normS_.data(), cs_,
                                  kEps, 0, n_);
            rowops::linearRows(normS_.data(), wa_.q.data(), nullptr,
                               qS_.data(), cs_, hd, 0, n_);
            rowops::scaleRange(qS_.data(), qS_.data(), invSqrt, 0,
                               n_ * hd);
            rowops::linearRows(normS_.data(), wa_.k.data(), nullptr,
                               kS_.data(), cs_, hd, 0, n_);
            rowops::linearRows(normS_.data(), wa_.v.data(), nullptr,
                               vS_.data(), cs_, hd, 0, n_);
            gSA_->arrive();
        });
    }

  private:
    void tailBody()
    {
        const size_t hd = heads_ * dh_;
        rowops::linearRows(ctxS_.data(), wa_.outProj.data(),
                           wa_.outBias.data(), updS_.data(), hd, cs_,
                           0, n_);
        rowops::addRange(single_.data(), updS_.data(), 0, n_ * cs_);
        // Single transition, row-local, reusing the scratch.
        transBusy_.run([this] {
            rowops::layerNormRows(single_.data(), normS_.data(), cs_,
                                  kEps, 0, n_);
            rowops::linearRows(normS_.data(), wt_.w1.data(),
                               wt_.b1.data(), hS_.data(), cs_,
                               hidden_, 0, n_);
            rowops::geluRange(hS_.data(), hS_.data(), 0,
                              n_ * hidden_);
            rowops::linearRows(hS_.data(), wt_.w2.data(),
                               wt_.b2.data(), updS_.data(), hidden_,
                               cs_, 0, n_);
            rowops::addRange(single_.data(), updS_.data(), 0,
                             n_ * cs_);
        });
    }

    BusyMeter transBusy_;
    Tensor &single_;
    const Tensor &pair_;
    const SingleAttnWeights &wa_;
    const TransitionWeights &wt_;
    size_t n_, cs_, cz_, heads_, dh_, hidden_;
    LineBlocks lb_;
    Tensor normP_, biasS_, normS_, qS_, kS_, vS_, ctxS_, updS_, hS_;
    TaskGroup::Gate *gSA_ = nullptr;
    TaskGroup::Gate *gCtx_ = nullptr;
};

/**
 * One diffusion attention block (tokenAttention) as a graph segment:
 *
 *   A[rb] (LN + q/k/v, row-local over kTokenRowBlock tokens)
 *     -> allA latch (every head slab gathers every k row)
 *     -> per-head K^T slab task, which fans out its own
 *        per-(head, row-block) attention-row tasks
 *     -> all-units latch
 *     -> O[rb] (out projection + residual + transition, row-local)
 *     -> the next block's A[rb].
 */
class TokenAttnSub : public SubLayer
{
  public:
    TokenAttnSub(TaskGroup &g, Tensor &h, const AttnBlockWeights &w,
                 size_t window, const ModelConfig &cfg, Arena *arena,
                 bool timed)
        : SubLayer(g, timed), h_(h), w_(w), window_(window), n_(h.dim(0)),
          ct_(h.dim(1)), heads_(cfg.heads), dh_(cfg.headDim),
          hidden_(w.transition.w1.dim(1)),
          nrb_((n_ + kTokenRowBlock - 1) / kTokenRowBlock)
    {
        const size_t hd = heads_ * dh_;
        normed_ = Tensor::uninitialized({n_, ct_}, arena);
        q_ = Tensor::uninitialized({n_, hd}, arena);
        k_ = Tensor::uninitialized({n_, hd}, arena);
        v_ = Tensor::uninitialized({n_, hd}, arena);
        slabs_ = Tensor::uninitialized({heads_, dh_, n_}, arena);
        ctx_ = Tensor::zeros({n_, hd}, arena);
        upd_ = Tensor::uninitialized({n_, ct_}, arena);
        normT_ = Tensor::uninitialized({n_, ct_}, arena);
        hbuf_ = Tensor::uninitialized({n_, hidden_}, arena);

        allA_ = gate(nrb_, [this] { spawnHeads(); });
        gUnits_ = gate(heads_ * nrb_, [this] {
            for (size_t rb = 0; rb < nrb_; ++rb)
                spawn([this, rb] { oBody(rb); });
        });
    }

    void setNext(TokenAttnSub *next) { next_ = next; }

    void start(size_t rb)
    {
        spawn([this, rb] { aBody(rb); });
    }

    size_t rowBlocks() const { return nrb_; }

  private:
    size_t rlo(size_t rb) const { return rb * kTokenRowBlock; }
    size_t rhi(size_t rb) const
    {
        return std::min(n_, rlo(rb) + kTokenRowBlock);
    }

    void aBody(size_t rb)
    {
        const size_t hd = heads_ * dh_;
        const size_t r0 = rlo(rb), r1 = rhi(rb);
        const float invSqrt =
            1.0f / std::sqrt(static_cast<float>(dh_));
        rowops::layerNormRows(h_.data(), normed_.data(), ct_, kEps,
                              r0, r1);
        rowops::linearRows(normed_.data(), w_.q.data(), nullptr,
                           q_.data(), ct_, hd, r0, r1);
        rowops::scaleRange(q_.data(), q_.data(), invSqrt, r0 * hd,
                           r1 * hd);
        rowops::linearRows(normed_.data(), w_.k.data(), nullptr,
                           k_.data(), ct_, hd, r0, r1);
        rowops::linearRows(normed_.data(), w_.v.data(), nullptr,
                           v_.data(), ct_, hd, r0, r1);
        allA_->arrive();
    }

    void spawnHeads()
    {
        for (size_t h = 0; h < heads_; ++h)
            spawn([this, h] {
                float *slab = slabs_.data() + h * dh_ * n_;
                unitk::tokenAttnSlab(slab, k_.data(), n_, heads_,
                                     dh_, h);
                for (size_t rb = 0; rb < nrb_; ++rb)
                    spawn([this, h, slab, rb] {
                        unitk::tokenAttnRows(
                            ctx_.data(), q_.data(), slab, v_.data(),
                            n_, heads_, dh_, h, window_, rlo(rb),
                            rhi(rb), unitk::tlsScratchB());
                        gUnits_->arrive();
                    });
            });
    }

    void oBody(size_t rb)
    {
        const size_t hd = heads_ * dh_;
        const size_t r0 = rlo(rb), r1 = rhi(rb);
        rowops::linearRows(ctx_.data(), w_.outProj.data(),
                           w_.outBias.data(), upd_.data(), hd, ct_,
                           r0, r1);
        rowops::addRange(h_.data(), upd_.data(), r0 * ct_, r1 * ct_);
        rowops::layerNormRows(h_.data(), normT_.data(), ct_, kEps,
                              r0, r1);
        rowops::linearRows(normT_.data(), w_.transition.w1.data(),
                           w_.transition.b1.data(), hbuf_.data(),
                           ct_, hidden_, r0, r1);
        rowops::geluRange(hbuf_.data(), hbuf_.data(), r0 * hidden_,
                          r1 * hidden_);
        rowops::linearRows(hbuf_.data(), w_.transition.w2.data(),
                           w_.transition.b2.data(), upd_.data(),
                           hidden_, ct_, r0, r1);
        rowops::addRange(h_.data(), upd_.data(), r0 * ct_, r1 * ct_);
        if (next_)
            next_->start(rb);
    }

    Tensor &h_;
    const AttnBlockWeights &w_;
    size_t window_;
    size_t n_, ct_, heads_, dh_, hidden_, nrb_;
    Tensor normed_, q_, k_, v_, slabs_, ctx_, upd_, normT_, hbuf_;
    TaskGroup::Gate *allA_ = nullptr;
    TaskGroup::Gate *gUnits_ = nullptr;
    TokenAttnSub *next_ = nullptr;
};

/** Attention blocks scheduled per sync window (bounds the arena
 *  high-water mark: one window's tensors live at a time). */
constexpr size_t kDiffusionWindowBlocks = 4;

} // namespace

void
runPairformerBlock(Tensor &pair, Tensor &single,
                   const PairformerBlockWeights &w,
                   const ModelConfig &cfg, const LayerTimeHook &hook)
{
    TaskGroup g(cfg.pool);
    Arena *arena = cfg.arena;
    const LineBlocks lb(pair.dim(0));
    WindowReporter report(hook);
    const bool timed = report.timed();

    {
        Arena::Scope scope(arena);
        TriMultSub mOut(g, pair, w.triMultOut, true, arena, timed);
        TriMultSub mIn(g, pair, w.triMultIn, false, arena, timed);
        mOut.setNext([&mIn](size_t bl) { mIn.start(bl); });
        for (size_t bl = 0; bl < lb.nb; ++bl)
            mOut.start(bl);
        g.sync();
        report.close({{"triangle_mult_outgoing", &mOut.busy()},
                      {"triangle_mult_incoming", &mIn.busy()}});
    }
    {
        Arena::Scope scope(arena);
        TriAttnSub aStart(g, pair, w.triAttnStart, true, cfg, arena,
                          timed);
        TriAttnSub aEnd(g, pair, w.triAttnEnd, false, cfg, arena,
                        timed);
        aStart.setNext([&aEnd](size_t bl) { aEnd.start(bl); });
        for (size_t bl = 0; bl < lb.nb; ++bl)
            aStart.start(bl);
        g.sync();
        report.close({{"triangle_attention_starting", &aStart.busy()},
                      {"triangle_attention_ending", &aEnd.busy()}});
    }
    {
        Arena::Scope scope(arena);
        PairTransSub pt(g, pair, w.pairTrans, arena, timed);
        SingleTailSub tail(g, single, pair, w.singleAttn,
                           w.singleTrans, cfg, arena, timed);
        pt.setNext([&tail](size_t bl) { tail.biasStart(bl); });
        for (size_t bl = 0; bl < lb.nb; ++bl)
            pt.start(bl);
        tail.startSingleSide();
        g.sync();
        report.close({{"pair_transition", &pt.busy()},
                      {"single_attention", &tail.busy()},
                      {"single_transition", &tail.transitionBusy()}});
    }
}

void
runDiffusionTokenStack(Tensor &h, const DiffusionWeights &w,
                       const ModelConfig &cfg, const LayerTimeHook &hook)
{
    struct Block
    {
        const AttnBlockWeights *w;
        size_t window;
        const char *name;
    };
    std::vector<Block> seq;
    for (const auto &b : w.localEnc)
        seq.push_back({&b, cfg.localWindow, "local_attention_encoder"});
    for (const auto &b : w.globalAttn)
        seq.push_back({&b, 0, "global_attention"});
    for (const auto &b : w.localDec)
        seq.push_back({&b, cfg.localWindow, "local_attention_decoder"});

    TaskGroup g(cfg.pool);
    Arena *arena = cfg.arena;
    WindowReporter report(hook);
    for (size_t w0 = 0; w0 < seq.size();
         w0 += kDiffusionWindowBlocks) {
        const size_t w1 =
            std::min(seq.size(), w0 + kDiffusionWindowBlocks);
        Arena::Scope scope(arena);
        std::vector<std::unique_ptr<TokenAttnSub>> blocks;
        blocks.reserve(w1 - w0);
        for (size_t i = w0; i < w1; ++i)
            blocks.push_back(std::make_unique<TokenAttnSub>(
                g, h, *seq[i].w, seq[i].window, cfg, arena,
                report.timed()));
        for (size_t i = 0; i + 1 < blocks.size(); ++i)
            blocks[i]->setNext(blocks[i + 1].get());
        for (size_t rb = 0; rb < blocks.front()->rowBlocks(); ++rb)
            blocks.front()->start(rb);
        g.sync();
        std::vector<WindowReporter::Part> parts;
        for (size_t i = w0; i < w1; ++i)
            parts.push_back({seq[i].name, &blocks[i - w0]->busy()});
        report.close(parts);
    }
}

} // namespace afsb::model::graph
