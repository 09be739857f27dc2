#include "model/diffusion.hh"

#include <cmath>

#include "model/block_graph.hh"
#include "model/unit_kernels.hh"
#include "util/grain.hh"
#include "util/logging.hh"
#include "util/simd.hh"
#include "util/threadpool.hh"

namespace afsb::model {

using tensor::linear;

namespace {

Tensor
initWeight(size_t in, size_t out, Rng &rng)
{
    return Tensor::randomNormal(
        {in, out}, rng,
        1.0f / std::sqrt(static_cast<float>(in)));
}

/**
 * GEMM-shaped token attention. One unit = one head: K is gathered
 * into a contiguous dh x n transposed slab once per head, then
 * global attention (@p window 0) runs the full n x n logit GEMM +
 * row softmax + context GEMM, while local attention runs one
 * windowed row GEMM per token against the slab's [lo, hi) columns.
 * Unit bodies live in unit_kernels.cc so the task-graph path
 * (block_graph.cc) shares the compiled code exactly.
 */
void
tokenAttentionFast(Tensor &ctx, const Tensor &q, const Tensor &k,
                   const Tensor &v, size_t n, size_t heads,
                   size_t dh, size_t window, float invSqrt,
                   ThreadPool *pool, tensor::Arena *arena)
{
    const Tensor qs = tensor::scale(q, invSqrt, arena);
    const size_t span = window > 0 ? window : n;
    const size_t flops = 4 * n * span * dh;
    auto unit = [&](size_t h0, size_t h1) {
        std::vector<float> &ktp = unitk::tlsScratchA();
        ktp.resize(dh * n);
        for (size_t h = h0; h < h1; ++h) {
            unitk::tokenAttnSlab(ktp.data(), k.data(), n, heads,
                                 dh, h);
            unitk::tokenAttnRows(ctx.data(), qs.data(), ktp.data(),
                                 v.data(), n, heads, dh, h, window,
                                 0, n, unitk::tlsScratchB());
        }
    };
    if (!pool) {
        unit(0, heads);
        return;
    }
    pool->parallelFor(heads, grain::forFlops(flops), unit);
}

} // namespace

void
tokenAttention(Tensor &h, const AttnBlockWeights &w,
               const ModelConfig &cfg, size_t window)
{
    const size_t n = h.dim(0);
    const size_t heads = cfg.heads;
    const size_t dh = cfg.headDim;
    const size_t hd = heads * dh;
    const float invSqrt = 1.0f / std::sqrt(static_cast<float>(dh));
    ThreadPool *pool = cfg.pool;
    tensor::Arena *arena = cfg.arena;
    tensor::Arena::Scope scope(arena);

    const Tensor normed = tensor::layerNorm(h, 1e-5f, pool, arena);
    const Tensor q = linear(normed, w.q, pool, arena);
    const Tensor k = linear(normed, w.k, pool, arena);
    const Tensor v = linear(normed, w.v, pool, arena);

    Tensor ctx = Tensor::zeros({n, hd}, arena);
    if (cfg.forceNaive) {
        // Reference loop (seed implementation, unchanged):
        // token-parallel, each (i, head) context row independent.
        auto rows = [&](size_t i0, size_t i1) {
            std::vector<float> logits;
            for (size_t i = i0; i < i1; ++i) {
                size_t lo = 0, hi = n;
                if (window > 0) {
                    lo = i > window / 2 ? i - window / 2 : 0;
                    hi = std::min(n, lo + window);
                }
                for (size_t head = 0; head < heads; ++head) {
                    const size_t ho = head * dh;
                    logits.assign(hi - lo, 0.0f);
                    const float *qv = q.data() + i * hd + ho;
                    float mx = -1e30f;
                    for (size_t j = lo; j < hi; ++j) {
                        const float *kv = k.data() + j * hd + ho;
                        float dot = 0.0f;
                        for (size_t d = 0; d < dh; ++d)
                            dot += qv[d] * kv[d];
                        logits[j - lo] = dot * invSqrt;
                        mx = std::max(mx, logits[j - lo]);
                    }
                    float sum = 0.0f;
                    for (auto &l : logits) {
                        l = std::exp(l - mx);
                        sum += l;
                    }
                    const float inv = 1.0f / sum;
                    float *AFSB_RESTRICT o =
                        ctx.data() + i * hd + ho;
                    for (size_t j = lo; j < hi; ++j) {
                        const float p = logits[j - lo] * inv;
                        const float *AFSB_RESTRICT vv =
                            v.data() + j * hd + ho;
                        AFSB_VECTORIZE_LOOP
                        for (size_t d = 0; d < dh; ++d)
                            o[d] += p * vv[d];
                    }
                }
            }
        };
        if (pool)
            pool->parallelFor(n, 1, rows);
        else
            rows(0, n);
    } else {
        tokenAttentionFast(ctx, q, k, v, n, heads, dh, window,
                           invSqrt, pool, arena);
    }
    tensor::addInPlace(
        h, linear(ctx, w.outProj, w.outBias, pool, arena));
    pairTransition(h, w.transition, pool, arena);
}

AttnBlockWeights
AttnBlockWeights::init(size_t dim, const ModelConfig &cfg, Rng &rng)
{
    const size_t hd = cfg.heads * cfg.headDim;
    AttnBlockWeights w;
    w.q = initWeight(dim, hd, rng);
    w.k = initWeight(dim, hd, rng);
    w.v = initWeight(dim, hd, rng);
    w.outProj = initWeight(hd, dim, rng);
    w.outBias = Tensor({dim});
    w.transition = TransitionWeights::init(dim, rng);
    return w;
}

DiffusionWeights
DiffusionWeights::init(const ModelConfig &cfg, Rng &rng)
{
    const size_t ct = cfg.diffusionTokenDim;
    DiffusionWeights w;
    w.condProj = initWeight(cfg.singleDim, ct, rng);
    w.condBias = Tensor({ct});
    w.coordEmbed = initWeight(3, ct, rng);
    for (size_t b = 0; b < cfg.diffusionBlocks; ++b)
        w.localEnc.push_back(AttnBlockWeights::init(ct, cfg, rng));
    for (size_t b = 0; b < cfg.globalBlocks; ++b)
        w.globalAttn.push_back(AttnBlockWeights::init(ct, cfg, rng));
    for (size_t b = 0; b < cfg.diffusionBlocks; ++b)
        w.localDec.push_back(AttnBlockWeights::init(ct, cfg, rng));
    w.coordOut = initWeight(ct, 3, rng);
    w.coordOutBias = Tensor({3});
    return w;
}

std::vector<double>
noiseSchedule(size_t steps, double sigma_max, double sigma_min)
{
    panicIf(steps == 0, "noiseSchedule: zero steps");
    std::vector<double> out(steps);
    const double ratio =
        steps > 1 ? std::pow(sigma_min / sigma_max,
                             1.0 / static_cast<double>(steps - 1))
                  : 1.0;
    double sigma = sigma_max;
    for (size_t i = 0; i < steps; ++i) {
        out[i] = sigma;
        sigma *= ratio;
    }
    return out;
}

DiffusionModule::DiffusionModule(const ModelConfig &cfg, Rng &rng)
    : cfg_(cfg), weights_(DiffusionWeights::init(cfg, rng))
{}

void
DiffusionModule::denoiseStep(Tensor &coords, const Tensor &cond,
                             double sigma,
                             const LayerTimeHook &hook) const
{
    const size_t n = coords.dim(0);
    tensor::Arena *arena = cfg_.arena;
    tensor::Arena::Scope scope(arena);

    // Token features = conditioning + embedded noisy coordinates,
    // scaled into the unit regime for the current noise level.
    Tensor h = cond;
    const float cScale =
        1.0f / std::sqrt(1.0f + static_cast<float>(sigma * sigma));
    {
        const Tensor scaled = tensor::scale(coords, cScale, arena);
        tensor::addInPlace(
            h, linear(scaled, weights_.coordEmbed, cfg_.pool,
                      arena));
    }

    // Token-transformer stack (local encoder, global attention,
    // local decoder) as one task graph.
    graph::runDiffusionTokenStack(h, weights_, cfg_, hook);

    // Denoised estimate; coordinates step toward it.
    ScopedLayerTimer t(hook, "coordinate_update");
    const Tensor denoised = tensor::add(
        tensor::scale(coords, 0.5f, arena),
        linear(tensor::layerNorm(h, 1e-5f, cfg_.pool, arena),
               weights_.coordOut, weights_.coordOutBias, cfg_.pool,
               arena),
        arena);
    const float blend = static_cast<float>(
        1.0 / (1.0 + sigma));  // stronger pull at low noise
    for (size_t i = 0; i < n; ++i)
        for (size_t d = 0; d < 3; ++d)
            coords.at(i, d) =
                (1.0f - blend) * coords.at(i, d) +
                blend * denoised.at(i, d);
}

Structure
DiffusionModule::sample(const PairState &state, Rng &rng,
                        const LayerTimeHook &hook) const
{
    const size_t n = state.tokens();
    const auto schedule = noiseSchedule(cfg_.diffusionSteps);

    // Conditioning from the trunk single representation. Allocated
    // under sample's own arena scope: every denoiseStep opens a
    // nested scope above this mark, so cond survives all steps and
    // the per-step scratch is rewound between them.
    tensor::Arena::Scope scope(cfg_.arena);
    const Tensor cond =
        linear(state.single, weights_.condProj, weights_.condBias,
               cfg_.pool, cfg_.arena);

    Structure out;
    out.coords = Tensor::randomNormal(
        {n, 3}, rng, static_cast<float>(schedule.front()));
    for (double sigma : schedule)
        denoiseStep(out.coords, cond, sigma, hook);
    return out;
}

} // namespace afsb::model
