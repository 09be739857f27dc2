/**
 * @file
 * Task-graph schedulers for the barrier-heavy model phases.
 *
 * The layer-level fork-join functions in layers.cc / diffusion.cc
 * run each sub-layer as a sequence of parallelFor sweeps with an
 * implicit barrier between every sweep: layer-norm all lines,
 * barrier, project all lines, barrier, run all attention units,
 * barrier, apply the residual, barrier, next sub-layer.  At the tail
 * of every sweep most workers idle while the last task drains.
 *
 * The schedulers here recast one Pairformer block and one diffusion
 * token-transformer stack as TaskGroup task graphs instead: work is
 * decomposed into the same units the fork-join path uses (rowops row
 * blocks, unitk attention/einsum units), and dependencies are
 * expressed with TaskGroup gates, so independent units of the *next*
 * sub-layer start as soon as the lines they read are finished — the
 * epilogue of triangle-mult-outgoing on one line block overlaps the
 * prologue of triangle-mult-incoming on another.  These graphs are
 * the only block schedule: Pairformer::forward and the diffusion
 * denoise step always run them.  With no pool, or when called from
 * inside a pool worker or another group's task, the TaskGroup runs
 * inline on the caller — the same graph, serially.
 *
 * Determinism: every task calls the same compiled bodies
 * (tensor::rowops, model::unitk) on the same pre-assigned ranges and
 * output slots as the fork-join path; partitions are pure functions
 * of the problem shape (16-line blocks, fixed unit ids) and
 * GEMM-backed ranges start on even rows.  Results are therefore
 * bit-identical to the layer functions called in block order, at
 * every pool size — the TaskGraphSweep tests byte-compare the graphs
 * against that oracle across worker counts.
 *
 * Layer timing: with a LayerTimeHook, every task charges its
 * exclusive busy time to its sub-layer in a per-runner-slot counter;
 * after each sync window the window's wall time is split among its
 * sub-layers by busy share and reported, one hook call per
 * sub-layer.  The parts therefore sum to the wall time of the run.
 * Without a hook no clock is read.
 *
 * All tensors a graph touches are allocated on the spawning thread
 * before any task runs (the tensor::Arena is single-threaded by
 * contract); each sync window opens its own Arena::Scope so scratch
 * is rewound as the graph advances.
 */

#ifndef AFSB_MODEL_BLOCK_GRAPH_HH
#define AFSB_MODEL_BLOCK_GRAPH_HH

#include "model/diffusion.hh"
#include "model/pairformer.hh"

namespace afsb::model::graph {

/**
 * One Pairformer block as a task graph: three sync windows —
 * {triMultOut, triMultIn}, {triAttnStart, triAttnEnd}, {pairTrans,
 * singleAttn, singleTrans} — with per-line-block chaining between
 * the sub-layers inside a window.  Updates pair and single in place;
 * bit-identical to the layers.cc sequence.  @p hook, when set, gets
 * the seven sub-layer names (triangle_mult_outgoing ...
 * single_transition) with their shares of each window's wall time.
 */
void runPairformerBlock(Tensor &pair, Tensor &single,
                        const PairformerBlockWeights &w,
                        const ModelConfig &cfg,
                        const LayerTimeHook &hook = nullptr);

/**
 * The diffusion token-transformer stack (local encoder, global
 * attention, local decoder) as a task graph: attention blocks are
 * grouped into sync windows of four, and inside a window each
 * token-row block chains residual + transition + next block's
 * projections without waiting for the other rows.  Updates h in
 * place; bit-identical to the tokenAttention loop in diffusion.cc.
 * @p hook, when set, gets one call per attention block
 * (local_attention_encoder, global_attention,
 * local_attention_decoder) with its share of its window's wall time.
 */
void runDiffusionTokenStack(Tensor &h, const DiffusionWeights &w,
                            const ModelConfig &cfg,
                            const LayerTimeHook &hook = nullptr);

} // namespace afsb::model::graph

#endif // AFSB_MODEL_BLOCK_GRAPH_HH
