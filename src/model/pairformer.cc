#include "model/pairformer.hh"

#include "model/block_graph.hh"

namespace afsb::model {

PairformerBlockWeights
PairformerBlockWeights::init(const ModelConfig &cfg, Rng &rng)
{
    PairformerBlockWeights w;
    w.triMultOut = TriangleMultWeights::init(cfg, rng);
    w.triMultIn = TriangleMultWeights::init(cfg, rng);
    w.triAttnStart = TriangleAttnWeights::init(cfg, rng);
    w.triAttnEnd = TriangleAttnWeights::init(cfg, rng);
    w.pairTrans = TransitionWeights::init(cfg.pairDim, rng);
    w.singleAttn = SingleAttnWeights::init(cfg, rng);
    w.singleTrans = TransitionWeights::init(cfg.singleDim, rng);
    return w;
}

Pairformer::Pairformer(const ModelConfig &cfg, Rng &rng) : cfg_(cfg)
{
    blocks_.reserve(cfg.pairformerBlocks);
    for (size_t b = 0; b < cfg.pairformerBlocks; ++b)
        blocks_.push_back(PairformerBlockWeights::init(cfg, rng));
}

void
Pairformer::forward(PairState &state, const LayerTimeHook &hook) const
{
    for (const auto &w : blocks_)
        graph::runPairformerBlock(state.pair, state.single, w, cfg_,
                                  hook);
}

uint64_t
PairformerBlockWeights::bytes() const
{
    return triMultOut.bytes() + triMultIn.bytes() +
           triAttnStart.bytes() + triAttnEnd.bytes() +
           pairTrans.bytes() + singleAttn.bytes() +
           singleTrans.bytes();
}

uint64_t
Pairformer::weightBytes() const
{
    // Sum per-struct bytes() rather than hand-multiplied member
    // counts: the old arithmetic silently under-counted whenever a
    // weight struct gained a member (it already assumed projA's
    // shape for all six TriangleMultWeights matrices and skipped
    // none-of-the-above members entirely).
    uint64_t total = 0;
    for (const auto &w : blocks_)
        total += w.bytes();
    return total;
}

} // namespace afsb::model
