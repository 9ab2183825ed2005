// Activation-fault campaign: input/activation fault sites against in-flight
// corruption, taxonomy accounting, layer coverage, and golden-state
// isolation.
#include "inject/activation.h"

#include <gtest/gtest.h>

#include <cstring>

#include "bayes/fault_network.h"
#include "data/toy2d.h"
#include "fault/bits.h"
#include "nn/builders.h"
#include "train/trainer.h"
#include "util/rng.h"

namespace bdlfi::inject {
namespace {

class ActivationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    util::Rng rng{1};
    data_ = new data::Dataset(data::make_two_moons(200, 0.08, rng));
    util::Rng init{2};
    net_ = new nn::Network(nn::make_mlp({2, 16, 2}, init));
    train::TrainConfig config;
    config.epochs = 25;
    config.lr = 0.05;
    config.seed = 3;
    train::fit(*net_, *data_, *data_, config);
  }
  static void TearDownTestSuite() {
    delete net_;
    delete data_;
  }
  static nn::Network* net_;
  static data::Dataset* data_;
};

nn::Network* ActivationTest::net_ = nullptr;
data::Dataset* ActivationTest::data_ = nullptr;

TEST_F(ActivationTest, CoversInputAndEveryLayer) {
  ActivationCampaignConfig config;
  config.injections = 5;
  config.p = 1e-4;
  config.seed = 4;
  const auto points =
      run_activation_campaign(*net_, data_->inputs, data_->labels, config);
  // (input) + 3 layers (fc1, relu1, fc2).
  ASSERT_EQ(points.size(), 1u + net_->num_layers());
  EXPECT_EQ(points[0].layer_index, -1);
  EXPECT_EQ(points[0].layer_kind, "input");
  EXPECT_EQ(points[1].layer_name, "fc1");
  for (const auto& pt : points) {
    EXPECT_GT(pt.activation_numel, 0);
    EXPECT_GE(pt.mean_error, 0.0);
    EXPECT_LE(pt.mean_error, 100.0);
  }
}

TEST_F(ActivationTest, ExcludeInputDropsPseudoLayer) {
  ActivationCampaignConfig config;
  config.injections = 3;
  config.include_input = false;
  const auto points =
      run_activation_campaign(*net_, data_->inputs, data_->labels, config);
  ASSERT_EQ(points.size(), net_->num_layers());
  EXPECT_EQ(points[0].layer_index, 0);
}

TEST_F(ActivationTest, HighRateCausesDamageLowRateDoesNot) {
  ActivationCampaignConfig gentle;
  gentle.injections = 20;
  gentle.p = 1e-7;
  gentle.seed = 5;
  ActivationCampaignConfig harsh = gentle;
  harsh.p = 5e-2;
  const auto low =
      run_activation_campaign(*net_, data_->inputs, data_->labels, gentle);
  const auto high =
      run_activation_campaign(*net_, data_->inputs, data_->labels, harsh);
  double low_dev = 0.0, high_dev = 0.0;
  for (const auto& pt : low) low_dev += pt.mean_deviation;
  for (const auto& pt : high) high_dev += pt.mean_deviation;
  EXPECT_GT(high_dev, low_dev + 10.0);
}

TEST_F(ActivationTest, GoldenNetworkUntouched) {
  const auto before = net_->predict(data_->inputs);
  ActivationCampaignConfig config;
  config.injections = 10;
  config.p = 1e-2;
  run_activation_campaign(*net_, data_->inputs, data_->labels, config);
  EXPECT_EQ(net_->predict(data_->inputs), before);
}

TEST_F(ActivationTest, DeterministicForSeed) {
  ActivationCampaignConfig config;
  config.injections = 10;
  config.p = 1e-3;
  config.seed = 6;
  const auto a =
      run_activation_campaign(*net_, data_->inputs, data_->labels, config);
  const auto b =
      run_activation_campaign(*net_, data_->inputs, data_->labels, config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].mean_error, b[i].mean_error);
    EXPECT_DOUBLE_EQ(a[i].mean_flips, b[i].mean_flips);
  }
}

TEST_F(ActivationTest, FlipCountTracksActivationSize) {
  ActivationCampaignConfig config;
  config.injections = 30;
  config.p = 1e-3;
  config.seed = 7;
  const auto points =
      run_activation_campaign(*net_, data_->inputs, data_->labels, config);
  for (const auto& pt : points) {
    const double expected =
        config.p * 32.0 * static_cast<double>(pt.activation_numel);
    EXPECT_NEAR(pt.mean_flips, expected, 0.35 * expected + 2.0)
        << pt.layer_name;
  }
}

// The input and activation sites the campaign samples on must mean what an
// in-flight corruption means: the logits of a mask equal, bit for bit, a
// forward whose hook flips exactly those bits of that layer's output (for
// the input, a forward over a flipped copy of the batch).
TEST_F(ActivationTest, SitesEqualInFlightFlips) {
  const auto flip = [](tensor::Tensor& t, const fault::FaultMask& mask) {
    for (const std::int64_t flat : mask.bits()) {
      const fault::FaultSite site = fault::FaultSite::from_flat(flat);
      t[site.element] = fault::flip_bit(t[site.element], site.bit);
    }
  };
  const auto expect_same = [](const tensor::Tensor& a,
                              const tensor::Tensor& b) {
    ASSERT_EQ(a.shape(), b.shape());
    EXPECT_EQ(std::memcmp(a.data(), b.data(),
                          static_cast<std::size_t>(a.numel()) * sizeof(float)),
              0);
  };
  util::Rng rng{8};
  const double p = 1e-3;
  for (std::int64_t layer = -1;
       layer < static_cast<std::int64_t>(net_->num_layers()); ++layer) {
    fault::TargetSpec spec = fault::TargetSpec::input_only();
    if (layer >= 0) {
      spec = fault::TargetSpec::activations_only();
      spec.layer_names = {net_->layer_name(static_cast<std::size_t>(layer))};
    }
    bayes::BayesianFaultNetwork bfn(*net_, spec,
                                    fault::AvfProfile::uniform(),
                                    data_->inputs, data_->labels);
    for (int draw = 0; draw < 3; ++draw) {
      SCOPED_TRACE("layer " + std::to_string(layer) + ", draw " +
                   std::to_string(draw));
      const fault::FaultMask mask = bfn.sample_prior_mask(p, rng);
      ASSERT_GT(mask.num_flips(), 0u);
      const tensor::Tensor logits = bfn.logits_under_mask(mask);
      nn::Network reference = net_->clone();
      if (layer < 0) {
        tensor::Tensor inputs = data_->inputs;
        flip(inputs, mask);
        expect_same(logits, reference.forward(inputs));
      } else {
        const auto target = static_cast<std::size_t>(layer);
        expect_same(logits,
                    reference.forward(data_->inputs, false,
                                      [&](std::size_t i, tensor::Tensor& act) {
                                        if (i == target) flip(act, mask);
                                      }));
      }
    }
  }
}

}  // namespace
}  // namespace bdlfi::inject
