/**
 * @file
 * The Pairformer stack (AF3's replacement for the Evoformer).
 *
 * Each block applies, in order: triangle multiplicative update
 * (outgoing, incoming), triangle self-attention (starting, ending
 * node), pair transition, and single attention with pair bias plus a
 * single transition — operating on only the pair and single
 * representations (no MSA track, per the paper's Section II-B).
 */

#ifndef AFSB_MODEL_PAIRFORMER_HH
#define AFSB_MODEL_PAIRFORMER_HH

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "model/layers.hh"

namespace afsb::model {

/** The model state flowing through the trunk. */
struct PairState
{
    Tensor pair;    ///< (N, N, c_z)
    Tensor single;  ///< (N, c_s)

    size_t tokens() const { return single.dim(0); }
};

/** Weights for one Pairformer block. */
struct PairformerBlockWeights
{
    TriangleMultWeights triMultOut;
    TriangleMultWeights triMultIn;
    TriangleAttnWeights triAttnStart;
    TriangleAttnWeights triAttnEnd;
    TransitionWeights pairTrans;
    SingleAttnWeights singleAttn;
    TransitionWeights singleTrans;

    static PairformerBlockWeights init(const ModelConfig &cfg,
                                       Rng &rng);

    /** Total parameter bytes across every member struct. */
    uint64_t bytes() const;
};

/**
 * Callback invoked with (layer name, seconds); used by the profiler
 * to build Fig 9-style breakdowns of the real mini-model.
 *
 * The seconds are wall time on the path that ships. The Pairformer
 * block and the diffusion token stack run as task graphs whose
 * sub-layers overlap, so each sync window's wall time is split among
 * the sub-layers it ran by their share of the window's summed task
 * busy time: the hook fires once per sub-layer per window, and the
 * parts of a forward sum to its wall time. Stages outside the graphs
 * (coordinate_update, confidence_head) report their own scope's wall
 * time through ScopedLayerTimer.
 */
using LayerTimeHook =
    std::function<void(const std::string &, double)>;

/** Reports the wall time of its own scope to a hook (no-op if null). */
class ScopedLayerTimer
{
  public:
    ScopedLayerTimer(const LayerTimeHook &hook, const char *name)
        : hook_(hook), name_(name),
          start_(std::chrono::steady_clock::now())
    {}

    ~ScopedLayerTimer()
    {
        if (hook_)
            hook_(name_, std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start_)
                             .count());
    }

    /** The timer keeps a reference: a temporary hook would dangle. */
    ScopedLayerTimer(LayerTimeHook &&, const char *) = delete;
    ScopedLayerTimer(const ScopedLayerTimer &) = delete;
    ScopedLayerTimer &operator=(const ScopedLayerTimer &) = delete;

  private:
    const LayerTimeHook &hook_;
    const char *name_;
    std::chrono::steady_clock::time_point start_;
};

/** The full Pairformer stack. */
class Pairformer
{
  public:
    /** Initialize @p cfg.pairformerBlocks blocks of random weights. */
    Pairformer(const ModelConfig &cfg, Rng &rng);

    /**
     * Run the stack over @p state in place: one task graph per block
     * (graph::runPairformerBlock), on cfg.pool when set and inline on
     * the caller otherwise. @p hook receives each sub-layer's share
     * of the wall time (see LayerTimeHook).
     */
    void forward(PairState &state,
                 const LayerTimeHook &hook = nullptr) const;

    size_t blocks() const { return blocks_.size(); }

    /** Total weight bytes (memory accounting). */
    uint64_t weightBytes() const;

  private:
    ModelConfig cfg_;
    std::vector<PairformerBlockWeights> blocks_;
};

} // namespace afsb::model

#endif // AFSB_MODEL_PAIRFORMER_HH
