/**
 * @file
 * Workload `infer`: one Af3Model::infer call on a seeded 128-token
 * protein complex (mini model, pairDim 32, 4 Pairformer blocks,
 * arena on, a pool of nproc - 1 workers plus the calling thread).
 */

#include "bench.hh"

#include "bio/seqgen.hh"
#include "model/af3_model.hh"
#include "model/config.hh"
#include "model/flops.hh"
#include "tensor/arena.hh"
#include "util/rng.hh"
#include "util/threadpool.hh"

namespace perfbench {

namespace {

using namespace afsb;

constexpr size_t kChainTokens = 64; // two chains: 128 tokens

void
digestTensor(Digest &d, const tensor::Tensor &t)
{
    d.bytes(t.data(), t.size() * sizeof(float));
}

std::string
outputDigest(const model::Structure &s, const model::ConfidenceResult &c)
{
    Digest d;
    digestTensor(d, s.coords);
    d.bytes(c.plddt.data(), c.plddt.size() * sizeof(double));
    return d.hex();
}

std::string
stateDigest(const model::PairState &st)
{
    Digest d;
    digestTensor(d, st.pair);
    digestTensor(d, st.single);
    return d.hex();
}

/** Builds a weight set from its own seeded generator. */
template <typename Fn>
auto
withRng(uint64_t seed, Fn &&fn)
{
    Rng rng(seed);
    return fn(rng);
}

/** Sums of the shipped per-layer profile, by reported sub-layer. */
const std::vector<std::pair<std::string, std::vector<std::string>>> &
subLayers()
{
    static const std::vector<
        std::pair<std::string, std::vector<std::string>>>
        table = {
            {"model.triangle_mult_s",
             {"triangle_mult_outgoing", "triangle_mult_incoming"}},
            {"model.triangle_attention_s",
             {"triangle_attention_starting",
              "triangle_attention_ending"}},
            {"model.pair_transition_s", {"pair_transition"}},
            {"model.single_attention_s", {"single_attention"}},
            {"model.single_transition_s", {"single_transition"}},
            {"model.local_attention_s",
             {"local_attention_encoder", "local_attention_decoder"}},
            {"model.global_attention_s", {"global_attention"}},
        };
    return table;
}

class InferWorkload : public Workload
{
  public:
    explicit InferWorkload(const HostInfo &host)
        : workers_(host.nproc > 1 ? host.nproc - 1 : 1)
    {}

    std::string opName() const override { return "infer_s"; }

    std::string
    threadBudget() const override
    {
        return "Af3Model::infer: pool of " + std::to_string(workers_) +
               " workers + calling thread (" +
               std::to_string(workers_ + 1) + " threads)";
    }

    void
    makeInputs(uint64_t seed) override
    {
        bio::SequenceGenerator gen(subSeed(seed, 1));
        complex_ = bio::Complex("infer");
        complex_.addChain(gen.random("A", bio::MoleculeType::Protein,
                                     kChainTokens));
        complex_.addChain(gen.random("B", bio::MoleculeType::Protein,
                                     kChainTokens));
        Rng rng(subSeed(seed, 2));
        msa_.depthPerChain = {64 + rng.nextBounded(448),
                              64 + rng.nextBounded(448)};
        weightSeed_ = subSeed(seed, 3);
        sampleSeed_ = 1 + rng.nextBounded(1000);
    }

    void
    setup() override
    {
        // Destroy the previous set-up before building the next, so
        // repeated set-ups measure a cold build each time.
        model_.reset();
        stages_.reset();
        serialPairformer_.reset();
        arena_.reset();
        pool_.reset();

        pool_ = std::make_unique<ThreadPool>(workers_);
        arena_ = std::make_unique<tensor::Arena>();
        cfg_ = model::miniConfig();
        cfg_.pairDim = 32;
        cfg_.pairformerBlocks = 4;
        cfg_.pool = pool_.get();
        cfg_.arena = arena_.get();
        model_ = std::make_unique<model::Af3Model>(cfg_, weightSeed_);

        // The same weights, held stage by stage so the traced run
        // can call each stage's public entry point (Af3Model derives
        // its stage seeds exactly this way).
        stages_ = std::make_unique<Stages>(cfg_, weightSeed_);
        model::ModelConfig serial = cfg_;
        serial.pool = nullptr;
        serialPairformer_ = std::make_unique<model::Pairformer>(
            withRng(weightSeed_ ^ 0x9e3779b97f4a7c15ull,
                            [&](Rng &r) {
                                return model::Pairformer(serial, r);
                            }));
    }

    std::string
    runOp() override
    {
        const auto result = model_->infer(complex_, msa_, sampleSeed_);
        for (const auto &[metric, names] : subLayers()) {
            double sum = 0.0;
            for (const auto &n : names) {
                const auto it = result.profile.find(n);
                if (it != result.profile.end())
                    sum += it->second;
            }
            subLayerSamples_[metric].push_back(sum);
        }
        return outputDigest(result.structure,
                            result.confidence);
    }

    std::string
    tracedOp(Tracer &tracer) override
    {
        const auto hook = [&](const std::string &name, double seconds) {
            const double end = tracer.now();
            tracer.addFinished("model." + name, end - seconds, end);
        };
        model::PairState state;
        {
            SpanScope s(&tracer, "model.embed");
            state = model::embedInput(complex_, msa_, stages_->embedder,
                                      cfg_);
        }
        {
            SpanScope s(&tracer, "model.pairformer");
            stages_->pairformer.forward(state, hook);
        }
        hookedPairformerDigest_ = stateDigest(state);
        Rng noise(sampleSeed_ * 0x2545f4914f6cdd1dull + 0x1234);
        model::Structure structure;
        {
            SpanScope s(&tracer, "model.diffusion");
            structure = stages_->diffusion.sample(state, noise, hook);
        }
        model::ConfidenceResult confidence;
        {
            SpanScope s(&tracer, "model.confidence");
            confidence =
                model::computeConfidence(state, stages_->confidence);
        }
        return outputDigest(structure, confidence);
    }

    void
    layerMetrics(Tracer &tracer, const HostInfo &host, double op_seconds,
                 LayerMetrics &out, Checks &checks) override
    {
        for (const char *stage :
             {"embed", "pairformer", "diffusion", "confidence"})
            out[std::string("model.") + stage + "_s"] =
                medianPerOp(tracer, std::string("model.") + stage);
        for (const auto &[metric, samples] : subLayerSamples_)
            out[metric] = afsb::medianOf(samples);

        // The Pairformer without the layer hook takes the task-graph
        // path; it must give the hooked path's bytes.
        std::vector<double> graphSeconds;
        for (int rep = 0; rep < 3; ++rep) {
            auto state = model::embedInput(complex_, msa_,
                                           stages_->embedder, cfg_);
            SpanScope s(&tracer, "model.pairformer_graph");
            const auto t0 = Clock::now();
            stages_->pairformer.forward(state);
            graphSeconds.push_back(secondsSince(t0));
            checks.expect(stateDigest(state) == hookedPairformerDigest_,
                          "pairformer task graph");
        }
        out["model.pairformer_graph_s"] = afsb::medianOf(graphSeconds);

        std::vector<double> serialSeconds;
        for (int rep = 0; rep < 2; ++rep) {
            auto state = model::embedInput(complex_, msa_,
                                           stages_->embedder, cfg_);
            SpanScope s(&tracer, "model.pairformer_1t");
            const auto t0 = Clock::now();
            serialPairformer_->forward(state, [](const std::string &,
                                                 double) {});
            serialSeconds.push_back(secondsSince(t0));
            checks.expect(stateDigest(state) == hookedPairformerDigest_,
                          "serial pairformer");
        }
        const double serial = afsb::medianOf(serialSeconds);
        out["model.pairformer_1t_s"] = serial;
        const double threads = static_cast<double>(workers_ + 1);
        if (out["model.pairformer_s"] > 0.0)
            out["model.pairformer_scaling_eff"] =
                serial / (out["model.pairformer_s"] * threads);

        const double gflop =
            model::totalFlops(model::operatorGraph(
                complex_.totalResidues(), cfg_)) /
            1e9;
        out["model.gflop"] = gflop;
        out["model.gflop_per_s"] = gflop / op_seconds;
        if (host.fmaGflops > 0.0)
            out["model.roofline_frac"] =
                out["model.gflop_per_s"] / (host.fmaGflops * threads);
        out["tensor.arena_high_water_mib"] =
            static_cast<double>(arena_->highWaterFloats()) *
            sizeof(float) / (1024.0 * 1024.0);
    }

  private:
    /** Af3Model's stage weights, built with its stage seeds. */
    struct Stages
    {
        Stages(const model::ModelConfig &cfg, uint64_t seed)
            : embedder(withRng(seed, [&](Rng &r) {
                  return model::EmbedderWeights::init(cfg, r);
              })),
              pairformer(withRng(seed ^ 0x9e3779b97f4a7c15ull,
                                 [&](Rng &r) {
                                     return model::Pairformer(cfg, r);
                                 })),
              diffusion(withRng(seed ^ 0x5851f42d4c957f2dull,
                                [&](Rng &r) {
                                    return model::DiffusionModule(cfg,
                                                                  r);
                                })),
              confidence(withRng(seed ^ 0xc0fdc0fdc0fdc0fdull,
                                 [&](Rng &r) {
                                     return model::ConfidenceWeights::
                                         init(cfg, r);
                                 }))
        {}

        model::EmbedderWeights embedder;
        model::Pairformer pairformer;
        model::DiffusionModule diffusion;
        model::ConfidenceWeights confidence;
    };

    size_t workers_;
    bio::Complex complex_;
    model::MsaFeatures msa_;
    uint64_t weightSeed_ = 0;
    uint64_t sampleSeed_ = 1;

    model::ModelConfig cfg_;
    std::unique_ptr<ThreadPool> pool_;
    std::unique_ptr<tensor::Arena> arena_;
    std::unique_ptr<model::Af3Model> model_;
    std::unique_ptr<Stages> stages_;
    std::unique_ptr<model::Pairformer> serialPairformer_;

    std::string hookedPairformerDigest_;
    std::map<std::string, std::vector<double>> subLayerSamples_;
};

} // namespace

std::unique_ptr<Workload>
makeInferWorkload(const HostInfo &host)
{
    return std::make_unique<InferWorkload>(host);
}

} // namespace perfbench
