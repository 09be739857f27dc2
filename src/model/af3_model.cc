#include "model/af3_model.hh"

namespace afsb::model {

namespace {

const char *kPairformerLayers[] = {
    "triangle_mult_outgoing", "triangle_mult_incoming",
    "triangle_attention_starting", "triangle_attention_ending",
    "pair_transition", "single_attention", "single_transition",
};

const char *kDiffusionLayers[] = {
    "local_attention_encoder", "global_attention",
    "local_attention_decoder", "coordinate_update",
};

double
sumLayers(const LayerProfile &profile, const char *const *names,
          size_t count)
{
    double total = 0.0;
    for (size_t i = 0; i < count; ++i) {
        auto it = profile.find(names[i]);
        if (it != profile.end())
            total += it->second;
    }
    return total;
}

} // namespace

double
InferenceResult::pairformerSeconds() const
{
    return sumLayers(profile, kPairformerLayers,
                     std::size(kPairformerLayers));
}

double
InferenceResult::diffusionSeconds() const
{
    return sumLayers(profile, kDiffusionLayers,
                     std::size(kDiffusionLayers));
}

namespace {

EmbedderWeights
makeEmbedder(const ModelConfig &cfg, uint64_t seed)
{
    Rng rng(seed);
    return EmbedderWeights::init(cfg, rng);
}

Pairformer
makePairformer(const ModelConfig &cfg, uint64_t seed)
{
    Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
    return Pairformer(cfg, rng);
}

DiffusionModule
makeDiffusion(const ModelConfig &cfg, uint64_t seed)
{
    Rng rng(seed ^ 0x5851f42d4c957f2dull);
    return DiffusionModule(cfg, rng);
}

ConfidenceWeights
makeConfidence(const ModelConfig &cfg, uint64_t seed)
{
    Rng rng(seed ^ 0xc0fdc0fdc0fdc0fdull);
    return ConfidenceWeights::init(cfg, rng);
}

} // namespace

Af3Model::Af3Model(const ModelConfig &cfg, uint64_t seed)
    : cfg_(cfg),
      embedder_(makeEmbedder(cfg, seed)),
      pairformer_(makePairformer(cfg, seed)),
      diffusion_(makeDiffusion(cfg, seed)),
      confidence_(makeConfidence(cfg, seed))
{}

InferenceResult
Af3Model::infer(const bio::Complex &complex_input,
                const MsaFeatures &msa, uint64_t sample_seed) const
{
    InferenceResult result;
    const LayerTimeHook hook = [&](const std::string &name,
                                   double seconds) {
        result.profile[name] += seconds;
    };

    PairState state =
        embedInput(complex_input, msa, embedder_, cfg_);
    pairformer_.forward(state, hook);

    Rng noise(sample_seed * 0x2545f4914f6cdd1dull + 0x1234);
    result.structure = diffusion_.sample(state, noise, hook);

    {
        ScopedLayerTimer t(hook, "confidence_head");
        result.confidence = computeConfidence(state, confidence_);
    }
    return result;
}

} // namespace afsb::model
