/**
 * @file
 * AF3 model architecture configuration.
 *
 * Two presets:
 *  - paperConfig(): the published AF3 dimensions (48 Pairformer
 *    blocks, 128-dim pair / 384-dim single representations, 16
 *    attention heads, diffusion over 8-16 denoising steps). Used by
 *    the analytic FLOP model and the GPU simulator.
 *  - miniConfig(): a scaled-down instance the C++ tensor engine
 *    executes for real (correctness tests, CPU microbenches). Same
 *    operator graph, smaller dims.
 */

#ifndef AFSB_MODEL_CONFIG_HH
#define AFSB_MODEL_CONFIG_HH

#include <cstddef>

namespace afsb {
class ThreadPool;
}

namespace afsb::tensor {
class Arena;
}

namespace afsb::model {

/** Architecture hyperparameters. */
struct ModelConfig
{
    size_t pairDim = 128;       ///< c_z, pair-representation channels
    size_t singleDim = 384;     ///< c_s, single-representation channels
    size_t pairformerBlocks = 48;
    size_t heads = 16;          ///< attention heads (triangle/single)
    size_t headDim = 32;        ///< per-head channels

    size_t diffusionSteps = 16; ///< denoising iterations
    size_t diffusionTokenDim = 768; ///< diffusion token channels
    size_t localWindow = 32;    ///< sequence-local attention window
    size_t diffusionBlocks = 3; ///< enc/dec local-attn blocks per step

    /**
     * Global (token-transformer) attention blocks per denoising
     * step. AF3's diffusion transformer runs a deep token-level
     * stack between the atom-level encoder and decoder, which is why
     * global attention dominates Diffusion runtime in Fig 9.
     */
    size_t globalBlocks = 12;

    /** MSA feature dimension folded into the input embedding. */
    size_t msaFeatureDim = 64;

    /**
     * Trunk recycling iterations: AF3 re-runs the Pairformer trunk
     * on its own output (default 10), multiplying trunk compute.
     */
    size_t recyclingIterations = 10;

    /** Diffusion samples generated per request (AF3 default 5). */
    size_t diffusionSamples = 5;

    /**
     * Opt-in worker pool for the native tensor path. When set, the
     * heavy kernels (matmul/linear/softmax/layerNorm, the O(N^3)
     * triangle loops, and token attention) partition output rows
     * across the pool. Row ownership is static, so results are
     * bit-identical to the serial path at every pool size. nullptr
     * (default) keeps every layer serial.
     */
    ThreadPool *pool = nullptr;

    /**
     * Opt-in workspace arena for layer temporaries. When set, every
     * intra-layer tensor (normed inputs, projections, attention
     * scratch) is a bump-pointer allocation rewound at layer exit,
     * eliminating per-layer heap traffic. Results are bit-identical
     * with and without an arena. nullptr (default) keeps the
     * allocate-per-tensor behavior.
     */
    tensor::Arena *arena = nullptr;

    /**
     * Force the reference (naive-loop) kernels in the layer-level
     * functions (layers.cc: triangle attention, triangle
     * multiplicative update, single attention; diffusion.cc:
     * tokenAttention) instead of the GEMM-shaped fast paths. The
     * naive kernels are the correctness baseline: the equivalence
     * tests hold the fast paths to <= 1e-4 max relative difference
     * against them. Layer-level only: Pairformer::forward and the
     * diffusion denoise step always run the task graphs
     * (block_graph.cc), which use the fast kernels.
     */
    bool forceNaive = false;
};

/** Published AF3 dimensions (FLOP accounting / GPU simulation). */
ModelConfig paperConfig();

/** Executable mini instance (tests / microbenches). */
ModelConfig miniConfig();

} // namespace afsb::model

#endif // AFSB_MODEL_CONFIG_HH
