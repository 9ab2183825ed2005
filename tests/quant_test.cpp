// Quantization substrate: code round-trips, quantized layers vs their float
// originals, network conversion, int8 weight codes as kCode sites of the one
// fault::InjectionSpace (layout, dead bits, prior), campaigns on quantized
// networks (truncated replay, chains, an exact-enumeration oracle), and the
// float-vs-int8 resilience ordering.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <span>

#include "data/toy2d.h"
#include "fault/space.h"
#include "inject/random_fi.h"
#include "mcmc/runner.h"
#include "nn/builders.h"
#include "nn/layers.h"
#include "quant/convert.h"
#include "train/trainer.h"
#include "util/rng.h"

namespace bdlfi::quant {
namespace {

using tensor::Shape;
using tensor::Tensor;

TEST(Quantize, CalibrationCoversMaxAbs) {
  std::vector<float> values{-3.0f, 1.0f, 2.54f};
  const QuantParams params = calibrate_symmetric(values);
  EXPECT_FLOAT_EQ(params.scale, 3.0f / 127.0f);
}

TEST(Quantize, AllZeroBufferGetsUnitScale) {
  std::vector<float> values(8, 0.0f);
  EXPECT_FLOAT_EQ(calibrate_symmetric(values).scale, 1.0f);
}

TEST(Quantize, RoundTripErrorBounded) {
  util::Rng rng{1};
  Tensor w = Tensor::randn(Shape{500}, rng, 0.0f, 0.3f);
  const QuantParams params = calibrate_symmetric(w.flat());
  const auto codes = quantize_buffer(w.flat(), params);
  std::vector<float> back(codes.size());
  dequantize_buffer(codes, params, back);
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_LE(std::abs(back[i] - w[static_cast<std::int64_t>(i)]),
              max_roundtrip_error(params) + 1e-7f);
  }
}

TEST(Quantize, ValuesClampAt127) {
  QuantParams params{0.01f};
  EXPECT_EQ(quantize_value(100.0f, params), 127);
  EXPECT_EQ(quantize_value(-100.0f, params), -127);
  EXPECT_EQ(quantize_value(0.0f, params), 0);
}

TEST(QuantDenseLayer, MatchesFloatDenseWithinQuantError) {
  util::Rng rng{2};
  nn::Dense dense(8, 4);
  dense.init_he(rng);
  QuantDense qdense(dense.weight(), dense.bias());

  Tensor x = Tensor::randn(Shape{5, 8}, rng);
  Tensor yf = dense.forward(x, false);
  Tensor yq = qdense.forward(x, false);
  // Worst-case output error: in_features * max|x| * scale/2.
  const float bound =
      8.0f * 4.0f * max_roundtrip_error(qdense.weight_params());
  EXPECT_LT(Tensor::max_abs_diff(yf, yq), bound);
}

TEST(QuantDenseLayer, BackwardAborts) {
  util::Rng rng{3};
  nn::Dense dense(2, 2);
  dense.init_he(rng);
  QuantDense qdense(dense.weight(), dense.bias());
  Tensor g{Shape{1, 2}};
  EXPECT_DEATH(qdense.backward(g), "inference-only");
}

TEST(QuantizeNetwork, MlpPredictionsMostlyAgree) {
  util::Rng rng{4};
  data::Dataset ds = data::make_two_moons(300, 0.08, rng);
  util::Rng init{5};
  nn::Network net = nn::make_mlp({2, 16, 2}, init);
  train::TrainConfig config;
  config.epochs = 25;
  config.lr = 0.05;
  config.seed = 6;
  train::fit(net, ds, ds, config);

  nn::Network qnet = quantize_network(net);
  const auto pf = net.predict(ds.inputs);
  const auto pq = qnet.predict(ds.inputs);
  std::size_t agree = 0;
  for (std::size_t i = 0; i < pf.size(); ++i) {
    if (pf[i] == pq[i]) ++agree;
  }
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(pf.size()),
            0.97);
}

TEST(QuantizeNetwork, PreservesLayerNamesAndCount) {
  util::Rng rng{7};
  nn::Network net = nn::make_mlp({2, 8, 3}, rng);
  nn::Network qnet = quantize_network(net);
  ASSERT_EQ(qnet.num_layers(), net.num_layers());
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    EXPECT_EQ(qnet.layer_name(i), net.layer_name(i));
  }
  EXPECT_EQ(qnet.layer_kind(0), "qdense");
  EXPECT_EQ(qnet.layer_kind(1), "relu");
}

TEST(QuantizeNetwork, ResnetConversionRuns) {
  util::Rng rng{8};
  nn::ResNetConfig config;
  config.width_multiplier = 0.0625;
  nn::Network net = nn::make_resnet18(config, rng);
  nn::Network qnet = quantize_network(net);
  EXPECT_EQ(qnet.layer_kind(0), "qconv");
  EXPECT_EQ(qnet.layer_kind(3), "qblock");
  Tensor x{Shape{1, 3, 16, 16}};
  EXPECT_EQ(qnet.forward(x).shape(), Shape({1, 10}));
  // All 20 convs (2 per block ×8 + 3 projections + stem) + fc report codes.
  nn::Network probe = qnet.clone();
  const auto refs = probe.codes();
  EXPECT_EQ(refs.size(), 1u + 16u + 3u + 1u);
  EXPECT_EQ(refs[1].name, "block0.conv1.weight_q");
}

// Replaces every weight of `net` by its int8 round trip, calibrated the way
// quantize_network calibrates it: one scale per tensor, or per output row.
void round_trip_weights(nn::Network& net, bool per_channel) {
  for (const nn::ParamRef& ref : net.params()) {
    if (ref.role != nn::ParamRole::kWeight) continue;
    const std::int64_t rows = per_channel ? ref.value->shape()[0] : 1;
    const auto block = static_cast<std::size_t>(ref.value->numel() / rows);
    for (std::int64_t r = 0; r < rows; ++r) {
      const std::span<float> row =
          ref.value->flat().subspan(static_cast<std::size_t>(r) * block, block);
      const QuantParams params = calibrate_symmetric(row);
      for (float& v : row) {
        v = dequantize_value(quantize_value(v, params), params);
      }
    }
  }
}

// The float network with round-tripped weights is the reference for the
// quantized forward: same kernels, same order, same dequantized values.
TEST(QuantizeNetwork, MatchesDequantizedFloatTwinBitExact) {
  const auto check = [](nn::Network& net, const Tensor& x) {
    for (const bool per_channel : {false, true}) {
      SCOPED_TRACE(per_channel ? "per channel" : "per tensor");
      nn::Network qnet = quantize_network(net, {per_channel});
      nn::Network twin = net.clone();
      round_trip_weights(twin, per_channel);
      const Tensor want = twin.forward(x);
      const Tensor got = qnet.forward(x);
      ASSERT_EQ(got.shape(), want.shape());
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            static_cast<std::size_t>(got.numel()) *
                                sizeof(float)),
                0);
    }
  };
  util::Rng rng{12};
  nn::Network mlp = nn::make_mlp({2, 16, 16, 3}, rng);
  check(mlp, Tensor::randn(Shape{9, 2}, rng));

  // Width 0.0625: the first stage's blocks keep the identity shortcut, each
  // later stage opens with a projection block.
  nn::ResNetConfig config;
  config.width_multiplier = 0.0625;
  config.num_classes = 4;
  nn::Network resnet = nn::make_resnet18(config, rng);
  const Tensor images = Tensor::randn(Shape{3, 3, 8, 8}, rng);
  (void)resnet.forward(images, /*training=*/true);  // non-trivial BN moments
  check(resnet, images);
}

using SiteKind = fault::InjectionSpace::SiteKind;

// The int8 codes of `net` concatenated in layer order: the element order of
// a space whose TargetSpec selects every code word.
std::vector<std::int8_t> snapshot_codes(nn::Network& net) {
  std::vector<std::int8_t> out;
  for (const nn::CodeRef& ref : net.codes()) {
    out.insert(out.end(), ref.data, ref.data + ref.numel);
  }
  return out;
}

// True when no bit of `mask` is one of bits 8..31 of a code word.
bool bits_are_live(const fault::InjectionSpace& space,
                   const fault::FaultMask& mask) {
  for (const std::int64_t flat : mask.bits()) {
    const fault::FaultSite site = fault::FaultSite::from_flat(flat);
    if (site.element < space.code_elements() &&
        site.bit >= fault::kBitsPerCode) {
      return false;
    }
  }
  return true;
}

TEST(QuantSpace, TotalsAndSelfInverseApply) {
  util::Rng rng{9};
  nn::Network net = nn::make_mlp({4, 8, 2}, rng);
  nn::Network qnet = quantize_network(net);
  fault::InjectionSpace space(qnet);
  // int8 weights only: quantized dense layers expose no float parameters.
  EXPECT_EQ(space.code_elements(), 4 * 8 + 8 * 2);
  EXPECT_EQ(space.total_elements(), space.code_elements());
  for (const auto& entry : space.entries()) {
    EXPECT_EQ(entry.site, SiteKind::kCode);
    EXPECT_EQ(entry.value, nullptr);
    EXPECT_NE(entry.codes, nullptr);
  }

  util::Rng mask_rng{10};
  const fault::FaultMask mask =
      space.sample_mask(fault::AvfProfile::uniform(), 0.05, mask_rng);
  ASSERT_GT(mask.num_flips(), 0u);
  const std::vector<std::int8_t> before = snapshot_codes(qnet);
  std::vector<std::int8_t> expected = before;
  for (const std::int64_t flat : mask.bits()) {
    const fault::FaultSite site = fault::FaultSite::from_flat(flat);
    ASSERT_LT(site.bit, fault::kBitsPerCode);
    std::int8_t& code = expected[static_cast<std::size_t>(site.element)];
    code = static_cast<std::int8_t>(static_cast<std::uint8_t>(code) ^
                                    (1u << site.bit));
  }
  space.apply(mask);
  EXPECT_EQ(snapshot_codes(qnet), expected);
  space.apply(mask);
  EXPECT_EQ(snapshot_codes(qnet), before);
}

TEST(QuantSpace, SampleRateMatchesP) {
  util::Rng rng{11};
  nn::Network net = nn::make_mlp({8, 32, 4}, rng);
  nn::Network qnet = quantize_network(net);
  fault::InjectionSpace space(qnet);
  util::Rng mask_rng{12};
  double total = 0.0;
  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    const fault::FaultMask mask =
        space.sample_mask(fault::AvfProfile::uniform(), 0.01, mask_rng);
    EXPECT_TRUE(bits_are_live(space, mask));
    total += static_cast<double>(mask.num_flips());
  }
  const double expected =
      0.01 * static_cast<double>(space.code_elements() * fault::kBitsPerCode);
  EXPECT_NEAR(total / trials, expected, 0.15 * expected);
}

// A quantized ResNet keeps its stem BatchNorm in float, so its space mixes
// code and float words: codes first, 8 live bits each next to 32.
TEST(QuantSpace, DeadBitsHaveZeroPriorAndXorNothing) {
  util::Rng rng{21};
  nn::ResNetConfig config;
  config.width_multiplier = 0.0625;
  nn::Network qnet = quantize_network(nn::make_resnet18(config, rng));
  fault::InjectionSpace space(qnet);
  std::int64_t codes = 0;
  for (const auto& entry : space.entries()) {
    if (entry.site != SiteKind::kCode) continue;
    EXPECT_EQ(entry.offset, codes) << entry.name;
    EXPECT_EQ(entry.role, nn::ParamRole::kWeight);
    codes += entry.numel;
  }
  EXPECT_EQ(space.code_elements(), codes);
  const std::int64_t floats = space.total_elements() - codes;
  ASSERT_GT(floats, 0);

  const auto uniform = fault::AvfProfile::uniform();
  const double p = 1e-2;
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(space.log_prior_toggle_delta(8, uniform, p), -inf);
  EXPECT_EQ(space.log_prior_toggle_delta(31, uniform, p), -inf);
  EXPECT_TRUE(std::isfinite(space.log_prior_toggle_delta(7, uniform, p)));
  EXPECT_TRUE(std::isfinite(space.log_prior_toggle_delta(
      codes * fault::kBitsPerWord + 31, uniform, p)));
  const auto clean = [&](std::int64_t code_words, std::int64_t float_words) {
    return static_cast<double>(8 * code_words + 32 * float_words) *
           std::log1p(-p);
  };
  const double lp = space.log_prior(fault::FaultMask{}, uniform, p);
  EXPECT_NEAR(lp, clean(codes, floats), 1e-12 * std::abs(lp));
  space.protect_elements({0, codes});  // one code word, one float word
  EXPECT_NEAR(space.log_prior(fault::FaultMask{}, uniform, p),
              clean(codes - 1, floats - 1), 1e-12 * std::abs(lp));
  space.protect_elements({});

  const std::vector<std::int8_t> before = snapshot_codes(qnet);
  space.apply_bits(std::vector<std::int64_t>{8, 31, 5 * 32 + 12});
  EXPECT_EQ(snapshot_codes(qnet), before);

  util::Rng mask_rng{22};
  for (int t = 0; t < 50; ++t) {
    EXPECT_TRUE(bits_are_live(space, space.sample_mask(uniform, p, mask_rng)));
  }
  // The value-dependent samplers read float words; they refuse code sites.
  EXPECT_DEATH(space.element_ptr(0), "int8 code");
}

class QuantFaultTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    util::Rng rng{13};
    data_ = new data::Dataset(data::make_two_moons(250, 0.08, rng));
    util::Rng init{14};
    net_ = new nn::Network(nn::make_mlp({2, 16, 2}, init));
    train::TrainConfig config;
    config.epochs = 30;
    config.lr = 0.05;
    config.seed = 15;
    train::fit(*net_, *data_, *data_, config);
    qnet_ = new nn::Network(quantize_network(*net_));
  }
  static void TearDownTestSuite() {
    delete qnet_;
    delete net_;
    delete data_;
  }
  // A fault network over the int8 weight codes of the quantized MLP.
  static std::unique_ptr<bayes::BayesianFaultNetwork> make_int8(
      bayes::EvalCacheConfig cache = {}) {
    return std::make_unique<bayes::BayesianFaultNetwork>(
        *qnet_, bayes::TargetSpec::weights_only(),
        fault::AvfProfile::uniform(), data_->inputs, data_->labels, cache);
  }
  static nn::Network* net_;
  static nn::Network* qnet_;
  static data::Dataset* data_;
};

nn::Network* QuantFaultTest::net_ = nullptr;
nn::Network* QuantFaultTest::qnet_ = nullptr;
data::Dataset* QuantFaultTest::data_ = nullptr;

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

TEST_F(QuantFaultTest, EmptyMaskIsGolden) {
  const auto qfn = make_int8();
  EXPECT_EQ(qfn->space().code_elements(), qfn->space().total_elements());
  const auto outcome = qfn->evaluate_mask(fault::FaultMask{});
  EXPECT_DOUBLE_EQ(outcome.classification_error, qfn->golden_error());
  EXPECT_DOUBLE_EQ(outcome.deviation, 0.0);
  EXPECT_EQ(qfn->golden_predictions(), qnet_->predict(data_->inputs));
}

TEST_F(QuantFaultTest, EvaluateRestoresCodes) {
  // Full forwards only, so the empty-mask logits are recomputed from the
  // owned network's codes rather than read from the activation cache.
  bayes::EvalCacheConfig full;
  full.enable_truncated_replay = false;
  const auto qfn = make_int8(full);
  const Tensor golden = qfn->logits_under_mask(fault::FaultMask{});
  util::Rng rng{16};
  const auto mask = qfn->sample_prior_mask(0.02, rng);
  ASSERT_GT(mask.num_flips(), 0u);
  const auto a = qfn->evaluate_mask(mask);
  const auto b = qfn->evaluate_mask(mask);
  EXPECT_DOUBLE_EQ(a.classification_error, b.classification_error);
  EXPECT_TRUE(
      bitwise_equal(qfn->logits_under_mask(fault::FaultMask{}), golden));
}

TEST_F(QuantFaultTest, Int8NeverProducesNaN) {
  // int8 weights dequantize to bounded values — no exponent field, so the
  // "detected" (NaN/Inf) channel must stay empty even at brutal flip rates.
  const auto qfn = make_int8();
  inject::RandomFiConfig fi;
  fi.injections = 100;
  fi.seed = 17;
  const auto result = inject::run_random_fi(*qfn, 0.05, fi);
  EXPECT_GT(result.mean_flips, 0.0);
  EXPECT_EQ(result.mean_detected, 0.0);
  EXPECT_EQ(result.outcome_detected, 0u);
}

TEST_F(QuantFaultTest, Int8MoreResilientThanFloatAtMatchedRate) {
  // Headline quantized-inference result (Ares-style): at the same per-bit
  // flip probability, int8 weight storage yields less output corruption than
  // float32, because no single bit carries 2^96 of magnitude.
  const double p = 1e-3;
  bayes::BayesianFaultNetwork float_net(
      *net_, bayes::TargetSpec::weights_only(), fault::AvfProfile::uniform(),
      data_->inputs, data_->labels);
  inject::RandomFiConfig fi;
  fi.injections = 400;
  fi.seed = 18;
  const auto float_result = inject::run_random_fi(float_net, p, fi);

  fi.seed = 19;
  const auto quant_result = inject::run_random_fi(*make_int8(), p, fi);

  EXPECT_LT(quant_result.mean_deviation, float_result.mean_deviation);
}

TEST_F(QuantFaultTest, DeterministicForSeed) {
  const auto qfn = make_int8();
  inject::RandomFiConfig fi;
  fi.injections = 80;
  fi.seed = 20;
  const auto a = inject::run_random_fi(*qfn, 1e-3, fi);
  const auto b = inject::run_random_fi(*qfn, 1e-3, fi);
  EXPECT_DOUBLE_EQ(a.mean_error, b.mean_error);
  EXPECT_DOUBLE_EQ(a.mean_flips, b.mean_flips);
  EXPECT_EQ(a.error_samples, b.error_samples);
}

// Code flips replay from the golden activation cache exactly as float flips
// do: truncated or full, the logits are bit-identical to XOR-ing the codes
// of a clone and running a plain forward.
TEST_F(QuantFaultTest, TruncatedReplayMatchesFullForward) {
  const auto qfn = make_int8();
  nn::Network reference = qnet_->clone();
  const fault::InjectionSpace space(reference,
                                    bayes::TargetSpec::weights_only());
  ASSERT_EQ(space.total_elements(), qfn->space().total_elements());
  util::Rng rng{23};
  std::size_t masks = 0;
  for (const double p : {1e-3, 1e-2, 3e-2}) {
    for (int i = 0; i < 100; ++i, ++masks) {
      const fault::FaultMask mask = qfn->sample_prior_mask(p, rng);
      space.apply(mask);
      const Tensor want = reference.forward(data_->inputs);
      space.apply(mask);
      ASSERT_TRUE(bitwise_equal(qfn->logits_under_mask(mask), want))
          << "p=" << p << " mask " << mask.to_string();
    }
  }
  EXPECT_EQ(masks, 300u);
  EXPECT_GT(qfn->eval_stats().truncated_evals, 0u);
  EXPECT_GT(qfn->eval_stats().full_evals, 0u);
}

// Bits 8..31 of a code word have zero prior, so no chain may ever hold one:
// MH rejects them (analytically under the prior, after a forward under a
// tempered target) and Gibbs never toggles them on.
TEST_F(QuantFaultTest, ChainsNeverRetainDeadBits) {
  const auto qfn = make_int8();
  const double p = 1e-2;
  const auto check = [&](const mcmc::CampaignResult& result) {
    ASSERT_FALSE(result.failed) << result.fail_reason;
    std::size_t masks = 0;
    for (const auto& chain : result.chains) {
      for (const auto& mask : chain.mask_samples) {
        ++masks;
        EXPECT_TRUE(bits_are_live(qfn->space(), mask)) << mask.to_string();
      }
    }
    EXPECT_EQ(masks, result.total_samples);
    EXPECT_GT(result.mean_acceptance, 0.0);
  };
  const mcmc::TargetFactory prior = [p](bayes::BayesianFaultNetwork& net) {
    return std::make_unique<bayes::PriorTarget>(net, p);
  };
  const mcmc::TargetFactory tempered = [p](bayes::BayesianFaultNetwork& net) {
    return std::make_unique<bayes::DeviationTemperedTarget>(net, p, 5.0);
  };
  mcmc::RunnerConfig mh;
  mh.num_chains = 3;
  mh.mh.samples = 200;
  mh.mh.burn_in = 20;
  mh.mh.record_masks = true;
  mh.seed = 24;
  {
    SCOPED_TRACE("MH, prior target");
    check(mcmc::run_chains(*qfn, prior, p, mh));
  }
  {
    SCOPED_TRACE("MH, deviation-tempered target");
    check(mcmc::run_chains(*qfn, tempered, p, mh));
  }
  mcmc::RunnerConfig gibbs;
  gibbs.num_chains = 3;
  gibbs.use_gibbs = true;
  gibbs.gibbs.samples = 200;
  gibbs.gibbs.coordinates_per_sweep = 256;
  gibbs.gibbs.record_masks = true;
  gibbs.seed = 25;
  {
    SCOPED_TRACE("Gibbs, prior target");
    check(mcmc::run_chains(*qfn, prior, p, gibbs));
  }
}

// Exact-enumeration oracle. A quantized moons MLP {2, 4, 2} has 16 code
// words; protecting all but two leaves 16 live bits, so every one of the
// 2^16 masks can be evaluated. The prior must sum to 1 over them (it would
// not if the clean-bit constant counted 32 bits per code word or counted
// protected words), and random FI, MH and Gibbs must each land within their
// own 95% interval of the true mean error. The live words are each layer's
// largest-magnitude code, so flips move the error often enough for a normal
// interval to mean something.
TEST_F(QuantFaultTest, ExactEnumerationOracle) {
  util::Rng data_rng{26};
  const data::Dataset train_set = data::make_two_moons(200, 0.1, data_rng);
  const data::Dataset eval_set = data::make_two_moons(64, 0.1, data_rng);
  util::Rng init{27};
  nn::Network net = nn::make_mlp({2, 4, 2}, init);
  train::TrainConfig config;
  config.epochs = 20;
  config.lr = 0.05;
  config.seed = 28;
  train::fit(net, train_set, train_set, config);
  nn::Network qnet = quantize_network(net);
  std::int64_t live[2] = {0, 0};
  std::int64_t offset = 0;
  const auto refs = qnet.codes();
  ASSERT_EQ(refs.size(), 2u);
  for (std::size_t layer = 0; layer < 2; ++layer) {
    const std::int8_t* codes = refs[layer].data;
    std::int64_t best = 0;
    for (std::int64_t i = 1; i < refs[layer].numel; ++i) {
      if (std::abs(codes[i]) > std::abs(codes[best])) best = i;
    }
    live[layer] = offset + best;
    offset += refs[layer].numel;
  }
  bayes::BayesianFaultNetwork bfn(
      qnet, bayes::TargetSpec::all_parameters(), fault::AvfProfile::uniform(),
      eval_set.inputs, eval_set.labels);
  ASSERT_EQ(bfn.space().total_elements(), 16);
  ASSERT_EQ(bfn.space().code_elements(), 16);
  std::vector<std::int64_t> protect;
  for (std::int64_t e = 0; e < 16; ++e) {
    if (e != live[0] && e != live[1]) protect.push_back(e);
  }
  bfn.mutable_space().protect_elements(protect);

  const double p = 0.05;
  // The tempered posterior weighs each mask by prior · exp(λ · dev / 100).
  const double lambda = 5.0;
  double prior_sum = 0.0, truth = 0.0;
  double tempered_sum = 0.0, tempered_truth = 0.0;
  for (std::uint32_t pattern = 0; pattern < (1u << 16); ++pattern) {
    std::vector<std::int64_t> flat;
    for (int b = 0; b < 16; ++b) {
      if ((pattern >> b) & 1u) {
        flat.push_back(live[b / 8] * fault::kBitsPerWord + b % 8);
      }
    }
    const fault::FaultMask mask{std::move(flat)};
    const double prior = std::exp(bfn.log_prior(mask, p));
    const bayes::MaskOutcome outcome = bfn.evaluate_mask(mask);
    prior_sum += prior;
    truth += prior * outcome.classification_error;
    const double weight = prior * std::exp(lambda * outcome.deviation / 100.0);
    tempered_sum += weight;
    tempered_truth += weight * outcome.classification_error;
  }
  tempered_truth /= tempered_sum;
  EXPECT_NEAR(prior_sum, 1.0, 1e-12);
  EXPECT_GT(truth, bfn.golden_error());  // the live bits matter
  EXPECT_GT(tempered_truth, truth);      // and λ moves the mean

  inject::RandomFiConfig fi;
  fi.injections = 4000;
  fi.seed = 29;
  fi.workers = 4;  // fixed sharding: the draws do not depend on the host
  const auto random = inject::run_random_fi(bfn, p, fi);
  EXPECT_NEAR(random.mean_error, truth, random.ci95_halfwidth);

  const mcmc::TargetFactory prior = [p](bayes::BayesianFaultNetwork& n) {
    return std::make_unique<bayes::PriorTarget>(n, p);
  };
  const auto within_ci = [&](const mcmc::CampaignResult& result,
                             double want = -1.0) {
    ASSERT_FALSE(result.failed) << result.fail_reason;
    const double half = 1.96 * result.stddev_error /
                        std::sqrt(result.diagnostics.ess);
    EXPECT_NEAR(result.mean_error, want < 0.0 ? truth : want, half)
        << "ESS " << result.diagnostics.ess;
  };
  mcmc::RunnerConfig mh;
  mh.num_chains = 4;
  mh.mh.samples = 2000;
  mh.mh.thin = 2;
  mh.seed = 30;
  {
    SCOPED_TRACE("MH");
    within_ci(mcmc::run_chains(bfn, prior, p, mh));
  }
  mcmc::RunnerConfig gibbs;
  gibbs.num_chains = 4;
  gibbs.use_gibbs = true;
  gibbs.gibbs.samples = 2000;
  gibbs.gibbs.coordinates_per_sweep = 512;
  gibbs.seed = 31;
  {
    SCOPED_TRACE("Gibbs");
    within_ci(mcmc::run_chains(bfn, prior, p, gibbs));
  }

  // Under the tempered target most toggles land on dead code bits or
  // protected words, whose bound is −inf: early rejection skips their
  // forwards, and the chains must still find the exact tempered mean.
  const mcmc::TargetFactory tempered = [p, lambda](
                                           bayes::BayesianFaultNetwork& n) {
    return std::make_unique<bayes::DeviationTemperedTarget>(n, p, lambda);
  };
  for (const mcmc::RunnerConfig* config : {&mh, &gibbs}) {
    SCOPED_TRACE(config->use_gibbs ? "Gibbs, tempered" : "MH, tempered");
    const mcmc::CampaignResult result =
        mcmc::run_chains(bfn, tempered, p, *config);
    within_ci(result, tempered_truth);
    EXPECT_GT(result.total_forwards_skipped, 0u);
  }
}

}  // namespace
}  // namespace bdlfi::quant
