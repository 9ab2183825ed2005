// Quantization substrate: code round-trips, quantized layers vs their float
// originals, network conversion, int8 fault space semantics, and the
// float-vs-int8 resilience ordering.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>

#include "data/toy2d.h"
#include "inject/random_fi.h"
#include "nn/builders.h"
#include "nn/layers.h"
#include "quant/convert.h"
#include "quant/space.h"
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
  // All 20 convs (2 per block ×8 + 3 projections + stem) + fc have buffers.
  nn::Network probe = qnet.clone();
  const auto refs = collect_quant_buffers(probe);
  EXPECT_EQ(refs.size(), 1u + 16u + 3u + 1u);
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

TEST(QuantSpace, TotalsAndSelfInverseApply) {
  util::Rng rng{9};
  nn::Network net = nn::make_mlp({4, 8, 2}, rng);
  nn::Network qnet = quantize_network(net);
  QuantInjectionSpace space(qnet);
  EXPECT_EQ(space.total_elements(), 4 * 8 + 8 * 2);  // int8 weights only
  EXPECT_EQ(space.total_bits(), space.total_elements() * 8);

  util::Rng mask_rng{10};
  const fault::FaultMask mask = space.sample_mask(0.05, mask_rng);
  ASSERT_GT(mask.num_flips(), 0u);
  std::vector<std::int8_t> before;
  for (std::int64_t e = 0; e < space.total_elements(); ++e) {
    before.push_back(*space.element_ptr(e));
  }
  space.apply(mask);
  bool changed = false;
  for (std::int64_t e = 0; e < space.total_elements(); ++e) {
    changed |= *space.element_ptr(e) != before[static_cast<std::size_t>(e)];
  }
  EXPECT_TRUE(changed);
  space.apply(mask);
  for (std::int64_t e = 0; e < space.total_elements(); ++e) {
    EXPECT_EQ(*space.element_ptr(e), before[static_cast<std::size_t>(e)]);
  }
}

TEST(QuantSpace, SampleRateMatchesP) {
  util::Rng rng{11};
  nn::Network net = nn::make_mlp({8, 32, 4}, rng);
  nn::Network qnet = quantize_network(net);
  QuantInjectionSpace space(qnet);
  util::Rng mask_rng{12};
  double total = 0.0;
  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    total += static_cast<double>(space.sample_mask(0.01, mask_rng).num_flips());
  }
  const double expected = 0.01 * static_cast<double>(space.total_bits());
  EXPECT_NEAR(total / trials, expected, 0.15 * expected);
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
  static nn::Network* net_;
  static nn::Network* qnet_;
  static data::Dataset* data_;
};

nn::Network* QuantFaultTest::net_ = nullptr;
nn::Network* QuantFaultTest::qnet_ = nullptr;
data::Dataset* QuantFaultTest::data_ = nullptr;

TEST_F(QuantFaultTest, EmptyMaskIsGolden) {
  QuantFaultNetwork qfn(*qnet_, data_->inputs, data_->labels);
  const auto outcome = qfn.evaluate_mask(fault::FaultMask{});
  EXPECT_DOUBLE_EQ(outcome.classification_error, qfn.golden_error());
  EXPECT_DOUBLE_EQ(outcome.deviation, 0.0);
}

TEST_F(QuantFaultTest, EvaluateRestoresCodes) {
  QuantFaultNetwork qfn(*qnet_, data_->inputs, data_->labels);
  util::Rng rng{16};
  const auto mask = qfn.sample_prior_mask(0.02, rng);
  const auto a = qfn.evaluate_mask(mask);
  const auto b = qfn.evaluate_mask(mask);
  EXPECT_DOUBLE_EQ(a.classification_error, b.classification_error);
}

TEST_F(QuantFaultTest, Int8NeverProducesNaN) {
  // int8 weights dequantize to bounded values — no exponent field, so the
  // "detected" (NaN/Inf) channel must stay empty even at brutal flip rates.
  QuantFaultNetwork qfn(*qnet_, data_->inputs, data_->labels);
  const auto result = run_quant_random_fi(qfn, 0.05, 100, 17);
  EXPECT_EQ(result.mean_detected, 0.0);
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

  QuantFaultNetwork qfn(*qnet_, data_->inputs, data_->labels);
  const auto quant_result = run_quant_random_fi(qfn, p, 400, 19);

  EXPECT_LT(quant_result.mean_deviation, float_result.mean_deviation);
}

TEST_F(QuantFaultTest, DeterministicForSeed) {
  QuantFaultNetwork qfn(*qnet_, data_->inputs, data_->labels);
  const auto a = run_quant_random_fi(qfn, 1e-3, 80, 20);
  const auto b = run_quant_random_fi(qfn, 1e-3, 80, 20);
  EXPECT_DOUBLE_EQ(a.mean_error, b.mean_error);
  EXPECT_DOUBLE_EQ(a.mean_flips, b.mean_flips);
}

}  // namespace
}  // namespace bdlfi::quant
