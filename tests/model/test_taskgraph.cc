/**
 * @file
 * Task-graph scheduler sweep (block_graph.cc): the TaskGroup-
 * scheduled Pairformer block and diffusion token stack must be
 * byte-identical to a test-local oracle — the layer functions called
 * in block order — at every pool size (and inline, with no pool),
 * with and without a workspace arena and a layer-time hook, and
 * across repeated runs.  Float equality here is exact
 * (Tensor::operator==): the contract is bit-identity, not tolerance.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "model/block_graph.hh"
#include "model/diffusion.hh"
#include "model/pairformer.hh"
#include "tensor/arena.hh"
#include "util/rng.hh"
#include "util/threadpool.hh"

namespace afsb::model {
namespace {

/** Odd token count: exercises the 16-line block tail, the gemm
 *  pair-row tail, and the final partial token-row block. */
constexpr size_t kTokens = 13;

ModelConfig
testConfig()
{
    ModelConfig cfg = miniConfig();
    cfg.pairformerBlocks = 2;
    cfg.diffusionSteps = 2;
    // 1 + 5 + 1 token blocks: two sync windows of the stack graph.
    cfg.globalBlocks = 5;
    return cfg;
}

PairState
makeState(const ModelConfig &cfg, size_t tokens = kTokens)
{
    Rng rng(907);
    PairState s;
    s.pair = Tensor::randomNormal({tokens, tokens, cfg.pairDim}, rng,
                                  0.5f);
    s.single = Tensor::randomNormal({tokens, cfg.singleDim}, rng, 0.5f);
    return s;
}

Tensor
makeTokens(const ModelConfig &cfg)
{
    Rng rng(908);
    return Tensor::randomNormal({kTokens, cfg.diffusionTokenDim}, rng,
                                0.5f);
}

/** Oracle: the Pairformer as the seven layer functions per block,
 *  with the weights Pairformer(cfg, Rng(seed)) draws. */
PairState
oraclePairformer(const ModelConfig &cfg, uint64_t seed)
{
    Rng rng(seed);
    PairState s = makeState(cfg);
    for (size_t b = 0; b < cfg.pairformerBlocks; ++b) {
        const auto w = PairformerBlockWeights::init(cfg, rng);
        triangleMultiplicativeUpdate(s.pair, w.triMultOut, cfg, true);
        triangleMultiplicativeUpdate(s.pair, w.triMultIn, cfg, false);
        triangleAttention(s.pair, w.triAttnStart, cfg, true);
        triangleAttention(s.pair, w.triAttnEnd, cfg, false);
        pairTransition(s.pair, w.pairTrans, cfg.pool, cfg.arena);
        singleAttentionWithPairBias(s.single, s.pair, w.singleAttn,
                                    cfg);
        pairTransition(s.single, w.singleTrans, cfg.pool, cfg.arena);
    }
    return s;
}

/** Oracle: the diffusion token stack as a tokenAttention loop. */
Tensor
oracleTokenStack(const DiffusionWeights &w, const ModelConfig &cfg)
{
    Tensor h = makeTokens(cfg);
    for (const auto &b : w.localEnc)
        tokenAttention(h, b, cfg, cfg.localWindow);
    for (const auto &b : w.globalAttn)
        tokenAttention(h, b, cfg, 0);
    for (const auto &b : w.localDec)
        tokenAttention(h, b, cfg, cfg.localWindow);
    return h;
}

/** Pool sizes of the sweeps; 0 means no pool (inline graph). */
const size_t kPools[] = {0, 1, 2, 3, 8};

std::unique_ptr<ThreadPool>
makePool(size_t threads)
{
    return threads ? std::make_unique<ThreadPool>(threads) : nullptr;
}

/** Sums every hook call by layer name. */
struct HookSums
{
    std::map<std::string, double> seconds;
    LayerTimeHook hook()
    {
        return [this](const std::string &name, double s) {
            seconds[name] += s;
        };
    }
};

TEST(TaskGraphSweep, PairformerMatchesForkJoinAtEveryPoolSize)
{
    ModelConfig cfg = testConfig();
    tensor::Arena arena(16ull << 20);
    ThreadPool refPool(2);
    cfg.pool = &refPool;
    cfg.arena = &arena;
    const PairState ref = oraclePairformer(cfg, 11);

    for (size_t threads : {1u, 2u, 3u, 8u}) {
        ThreadPool pool(threads);
        ModelConfig run = cfg;
        run.pool = &pool;
        PairState s = makeState(cfg);
        Rng wrng(11);
        const Pairformer graphModel(run, wrng);
        graphModel.forward(s);
        EXPECT_TRUE(s.pair == ref.pair) << "threads=" << threads;
        EXPECT_TRUE(s.single == ref.single)
            << "threads=" << threads;
    }
}

TEST(TaskGraphSweep, PairformerRepeatedRunsAndNoArena)
{
    ModelConfig cfg = testConfig();
    ThreadPool pool(4);
    cfg.pool = &pool;

    Rng w1(23);
    const Pairformer model(cfg, w1);
    PairState a = makeState(cfg);
    model.forward(a);
    PairState b = makeState(cfg);
    model.forward(b);
    EXPECT_TRUE(a.pair == b.pair);
    EXPECT_TRUE(a.single == b.single);

    // Arena only moves scratch, never arithmetic.
    tensor::Arena arena(16ull << 20);
    ModelConfig withArena = cfg;
    withArena.arena = &arena;
    Rng w2(23);
    const Pairformer arenaModel(withArena, w2);
    PairState c = makeState(cfg);
    arenaModel.forward(c);
    EXPECT_TRUE(a.pair == c.pair);
    EXPECT_TRUE(a.single == c.single);
}

TEST(TaskGraphSweep, DiffusionMatchesForkJoinAtEveryPoolSize)
{
    ModelConfig cfg = testConfig();
    tensor::Arena arena(16ull << 20);
    ThreadPool refPool(2);
    cfg.pool = &refPool;
    cfg.arena = &arena;
    Rng wrng(31);
    const DiffusionWeights w = DiffusionWeights::init(cfg, wrng);
    const Tensor want = oracleTokenStack(w, cfg);

    for (size_t threads : {1u, 2u, 3u, 8u}) {
        ThreadPool pool(threads);
        ModelConfig run = cfg;
        run.pool = &pool;
        Tensor got = makeTokens(cfg);
        graph::runDiffusionTokenStack(got, w, run);
        EXPECT_TRUE(got == want) << "threads=" << threads;
    }
}

TEST(TaskGraphSweep, HookedForwardByteIdentical)
{
    const ModelConfig base = testConfig();
    const PairState pairRef = oraclePairformer(base, 11);
    Rng wrng(31);
    const DiffusionWeights dw = DiffusionWeights::init(base, wrng);
    const Tensor stackRef = oracleTokenStack(dw, base);
    const PairState cond = makeState(base);
    Tensor sampleRef;
    bool haveSampleRef = false;

    for (size_t threads : kPools) {
        const auto pool = makePool(threads);
        tensor::Arena arena(16ull << 20);
        ModelConfig cfg = base;
        cfg.pool = pool.get();
        cfg.arena = &arena;
        HookSums sums;
        const LayerTimeHook hook = sums.hook();

        Rng pw(11);
        const Pairformer pf(cfg, pw);
        PairState plain = makeState(cfg);
        pf.forward(plain);
        PairState hooked = makeState(cfg);
        pf.forward(hooked, hook);
        EXPECT_TRUE(plain.pair == pairRef.pair) << "threads=" << threads;
        EXPECT_TRUE(plain.single == pairRef.single)
            << "threads=" << threads;
        EXPECT_TRUE(hooked.pair == pairRef.pair)
            << "threads=" << threads;
        EXPECT_TRUE(hooked.single == pairRef.single)
            << "threads=" << threads;

        Tensor hPlain = makeTokens(cfg);
        graph::runDiffusionTokenStack(hPlain, dw, cfg);
        Tensor hHooked = makeTokens(cfg);
        graph::runDiffusionTokenStack(hHooked, dw, cfg, hook);
        EXPECT_TRUE(hPlain == stackRef) << "threads=" << threads;
        EXPECT_TRUE(hHooked == stackRef) << "threads=" << threads;

        // The whole denoiser: hooked equals unhooked, and every pool
        // size equals the first (inline) run.
        Rng dwr(41);
        const DiffusionModule diffusion(cfg, dwr);
        Rng n1(77), n2(77);
        const Structure sPlain = diffusion.sample(cond, n1);
        const Structure sHooked = diffusion.sample(cond, n2, hook);
        EXPECT_TRUE(sPlain.coords == sHooked.coords)
            << "threads=" << threads;
        if (!haveSampleRef) {
            sampleRef = sPlain.coords;
            haveSampleRef = true;
        }
        EXPECT_TRUE(sPlain.coords == sampleRef)
            << "threads=" << threads;
    }
}

TEST(TaskGraphSweep, HookPartsCoverForward)
{
    ModelConfig cfg = testConfig();
    ThreadPool pool(2);
    tensor::Arena arena(64ull << 20);
    cfg.pool = &pool;
    cfg.arena = &arena;
    Rng pw(5);
    const Pairformer pf(cfg, pw);
    Rng dw(6);
    const DiffusionModule diffusion(cfg, dw);
    // Big enough that each window takes real time.
    PairState state = makeState(cfg, 48);

    HookSums pair;
    const LayerTimeHook pairHook = pair.hook();
    const auto t0 = std::chrono::steady_clock::now();
    pf.forward(state, pairHook);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

    double parts = 0.0;
    for (const char *name :
         {"triangle_mult_outgoing", "triangle_mult_incoming",
          "triangle_attention_starting", "triangle_attention_ending",
          "pair_transition", "single_attention", "single_transition"}) {
        ASSERT_TRUE(pair.seconds.count(name)) << name;
        EXPECT_GT(pair.seconds[name], 0.0) << name;
        parts += pair.seconds[name];
    }
    EXPECT_EQ(pair.seconds.size(), 7u);
    EXPECT_GE(parts, 0.95 * wall);
    EXPECT_LE(parts, wall);

    HookSums diff;
    const LayerTimeHook diffHook = diff.hook();
    Rng noise(9);
    diffusion.sample(state, noise, diffHook);
    for (const char *name : {"local_attention_encoder", "global_attention",
                             "local_attention_decoder"}) {
        ASSERT_TRUE(diff.seconds.count(name)) << name;
        EXPECT_GT(diff.seconds[name], 0.0) << name;
    }
}

} // namespace
} // namespace afsb::model
