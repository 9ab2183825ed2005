// Later-wave extensions: VGG-11 builder, per-channel quantization,
// Kolmogorov–Smirnov two-sample test, FIT-rate unit conversions.
#include <gtest/gtest.h>

#include <cmath>

#include "data/toy2d.h"
#include "fault/fit.h"
#include "nn/builders.h"
#include "nn/conv.h"
#include "nn/layers.h"
#include "quant/convert.h"
#include "util/rng.h"
#include "util/stats.h"

namespace bdlfi {
namespace {

using tensor::Shape;
using tensor::Tensor;

// --- VGG-11 --------------------------------------------------------------------

TEST(Vgg11, ForwardShapeAndStructure) {
  util::Rng rng{1};
  nn::VggConfig config;
  config.width_multiplier = 0.0625;
  config.image_size = 32;
  config.num_classes = 7;
  nn::Network net = nn::make_vgg11(config, rng);
  // 8 conv triplets (conv+bn+relu) + 5 pools + flatten + fc = 31 layers.
  EXPECT_EQ(net.num_layers(), 8u * 3 + 5 + 2);
  Tensor x{Shape{2, 3, 32, 32}};
  EXPECT_EQ(net.forward(x).shape(), Shape({2, 7}));
}

TEST(Vgg11, FullWidthParamCountBand) {
  util::Rng rng{2};
  nn::VggConfig config;  // width 1.0
  nn::Network net = nn::make_vgg11(config, rng);
  // VGG-11 conv trunk ≈ 9.2M params + BN + 512→10 head.
  EXPECT_GT(net.num_params(), 9'000'000);
  EXPECT_LT(net.num_params(), 10'000'000);
}

TEST(Vgg11, RejectsIndivisibleImageSize) {
  util::Rng rng{3};
  nn::VggConfig config;
  config.image_size = 20;
  EXPECT_DEATH(nn::make_vgg11(config, rng), "divisible");
}

TEST(Vgg11, QuantizesAndInjects) {
  util::Rng rng{4};
  nn::VggConfig config;
  config.width_multiplier = 0.0625;
  nn::Network net = nn::make_vgg11(config, rng);
  nn::Network qnet = quant::quantize_network(net);
  EXPECT_EQ(qnet.codes().size(), 9u);  // 8 convs + fc
  Tensor x{Shape{1, 3, 32, 32}};
  EXPECT_EQ(qnet.forward(x).shape(), Shape({1, 10}));
}

// --- per-channel quantization -----------------------------------------------

TEST(PerChannelQuant, TighterThanPerTensorOnSkewedRows) {
  // Rows with wildly different magnitudes: per-tensor scale wastes codes on
  // the small rows; per-channel recovers them.
  Tensor w{Shape{2, 4},
           {100.0f, -50.0f, 75.0f, -100.0f, 0.01f, -0.005f, 0.0075f, 0.01f}};
  quant::QuantDense per_tensor(w, Tensor{}, /*per_channel=*/false);
  quant::QuantDense per_channel(w, Tensor{}, /*per_channel=*/true);
  // The big row saturates both modes equally; the benefit shows on the
  // small-magnitude row, which per-tensor scaling rounds entirely to zero.
  auto row1_err = [&](const Tensor& deq) {
    float worst = 0.0f;
    for (std::int64_t i = 0; i < 4; ++i) {
      worst = std::max(worst, std::abs(deq.at(1, i) - w.at(1, i)));
    }
    return worst;
  };
  const float err_tensor = row1_err(per_tensor.dequantized_weight());
  const float err_channel = row1_err(per_channel.dequantized_weight());
  EXPECT_LT(err_channel, err_tensor * 0.05f);
  EXPECT_TRUE(per_channel.per_channel());
  // Each row's scale covers that row's max.
  EXPECT_FLOAT_EQ(per_channel.weight_params(0).scale, 100.0f / 127.0f);
  EXPECT_FLOAT_EQ(per_channel.weight_params(1).scale, 0.01f / 127.0f);
}

TEST(PerChannelQuant, CloneRoundTrips) {
  util::Rng rng{5};
  Tensor w = Tensor::randn(Shape{6, 8}, rng);
  quant::QuantDense layer(w, Tensor{}, true);
  auto copy = layer.clone();
  Tensor x = Tensor::randn(Shape{3, 8}, rng);
  EXPECT_EQ(Tensor::max_abs_diff(layer.forward(x, false),
                                 copy->forward(x, false)),
            0.0f);
}

TEST(PerChannelQuant, NetworkConversionOption) {
  util::Rng rng{6};
  nn::Network net = nn::make_mlp({4, 8, 2}, rng);
  quant::QuantizeOptions options;
  options.per_channel = true;
  nn::Network qnet = quant::quantize_network(net, options);
  auto* qdense = dynamic_cast<quant::QuantDense*>(&qnet.layer(0));
  ASSERT_NE(qdense, nullptr);
  EXPECT_TRUE(qdense->per_channel());
}

TEST(PerChannelQuant, ConvPerOutputChannel) {
  util::Rng rng{7};
  Tensor w = Tensor::randn(Shape{3, 2, 3, 3}, rng);
  // Scale channel 2 up massively.
  for (std::int64_t i = 0; i < 2 * 9; ++i) {
    w[2 * 2 * 9 + i] *= 1000.0f;
  }
  tensor::Conv2dSpec spec;
  quant::QuantConv2d per_tensor(w, Tensor{}, spec, false);
  quant::QuantConv2d per_channel(w, Tensor{}, spec, true);
  // Error on the two *small* output channels (elements before channel 2).
  auto small_err = [&](const Tensor& deq) {
    float worst = 0.0f;
    for (std::int64_t i = 0; i < 2 * 2 * 9; ++i) {
      worst = std::max(worst, std::abs(deq[i] - w[i]));
    }
    return worst;
  };
  EXPECT_LT(small_err(per_channel.dequantized_weight()),
            0.05f * small_err(per_tensor.dequantized_weight()));
}

// --- waveforms & rectangular convolution ----------------------------------------

TEST(Waveforms, ShapeLabelsAndRange) {
  util::Rng rng{20};
  data::Dataset ds = data::make_waveforms(90, 64, 0.05, rng);
  EXPECT_EQ(ds.inputs.shape(), Shape({90, 1, 1, 64}));
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_GE(ds.labels[i], 0);
    EXPECT_LT(ds.labels[i], 3);
  }
  // Amplitude-bounded (amp ≤ 1.3 + noise tail).
  for (std::int64_t i = 0; i < ds.inputs.numel(); ++i) {
    EXPECT_LT(std::abs(ds.inputs[i]), 2.0f);
  }
}

TEST(Waveforms, ClassesSeparableByWaveShape) {
  // Squares have higher mean |x| than sines of the same amplitude family.
  util::Rng rng{21};
  data::Dataset ds = data::make_waveforms(600, 64, 0.02, rng);
  double sine_energy = 0.0, square_energy = 0.0;
  std::size_t n_sine = 0, n_square = 0;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    double mean_abs = 0.0;
    for (std::int64_t t = 0; t < 64; ++t) {
      mean_abs += std::abs(ds.inputs[static_cast<std::int64_t>(i) * 64 + t]);
    }
    mean_abs /= 64.0;
    if (ds.labels[i] == 0) {
      sine_energy += mean_abs;
      ++n_sine;
    } else if (ds.labels[i] == 1) {
      square_energy += mean_abs;
      ++n_square;
    }
  }
  EXPECT_GT(square_energy / static_cast<double>(n_square),
            sine_energy / static_cast<double>(n_sine) * 1.2);
}

TEST(RectangularConv, OneByKMatchesNaive) {
  util::Rng rng{22};
  nn::Conv2d fir(1, 3, /*kernel_h=*/1, /*kernel_w=*/5, 1, 0, 2);
  fir.init_he(rng);
  Tensor x = Tensor::randn(Shape{2, 1, 1, 16}, rng);
  Tensor y = fir.forward(x, false);
  EXPECT_EQ(y.shape(), Shape({2, 3, 1, 16}));
  // Interior sample check against direct correlation.
  const Tensor& w = fir.weight();
  for (std::int64_t t = 2; t < 14; ++t) {
    float acc = 0.0f;
    for (std::int64_t k = 0; k < 5; ++k) {
      acc += x.at(0, 0, 0, t - 2 + k) * w.at(1, 0, 0, k);
    }
    EXPECT_NEAR(y.at(0, 1, 0, t), acc, 1e-4f);
  }
}

TEST(RectangularConv, CloneKeepsGeometry) {
  util::Rng rng{23};
  nn::Conv2d fir(1, 2, 1, 7, 1, 0, 3);
  fir.init_he(rng);
  auto copy = fir.clone();
  Tensor x = Tensor::randn(Shape{1, 1, 1, 20}, rng);
  EXPECT_EQ(Tensor::max_abs_diff(fir.forward(x, false),
                                 copy->forward(x, false)),
            0.0f);
}

TEST(RectangularConv, BackwardGradientSpotCheck) {
  util::Rng rng{24};
  nn::Conv2d fir(1, 2, 1, 5, 1, 0, 2);
  fir.init_he(rng);
  Tensor x = Tensor::randn(Shape{1, 1, 1, 12}, rng);
  Tensor out = fir.forward(x, true);
  fir.zero_grad();
  Tensor grad_in = fir.backward(Tensor::full(out.shape(), 1.0f));
  auto loss = [&](const Tensor& input) {
    Tensor y = fir.forward(input, false);
    double s = 0.0;
    for (std::int64_t i = 0; i < y.numel(); ++i) s += y[i];
    return s;
  };
  const float eps = 1e-2f;
  for (std::int64_t idx : {0L, 6L, 11L}) {
    Tensor xp = x, xm = x;
    xp[idx] += eps;
    xm[idx] -= eps;
    EXPECT_NEAR(grad_in[idx], (loss(xp) - loss(xm)) / (2.0 * eps), 1e-2);
  }
}

// --- Kolmogorov–Smirnov -------------------------------------------------------

TEST(KsTest, SameDistributionHighPValue) {
  util::Rng ra{8}, rb{88};
  std::vector<double> a, b;
  for (int i = 0; i < 800; ++i) {
    a.push_back(ra.normal());
    b.push_back(rb.normal());
  }
  const auto result = util::ks_two_sample(a, b);
  EXPECT_LT(result.statistic, 0.08);
  EXPECT_GT(result.p_value, 0.01);
}

TEST(KsTest, ShiftedDistributionRejected) {
  util::Rng rng{9};
  std::vector<double> a, b;
  for (int i = 0; i < 500; ++i) {
    a.push_back(rng.normal(0.0, 1.0));
    b.push_back(rng.normal(1.0, 1.0));
  }
  const auto result = util::ks_two_sample(a, b);
  EXPECT_GT(result.statistic, 0.3);
  EXPECT_LT(result.p_value, 1e-6);
}

TEST(KsTest, IdenticalSamplesStatZero) {
  std::vector<double> a{1, 2, 3, 4, 5};
  const auto result = util::ks_two_sample(a, a);
  EXPECT_DOUBLE_EQ(result.statistic, 0.0);
  EXPECT_GT(result.p_value, 0.99);
}

TEST(KsTest, DisjointSupportsStatOne) {
  std::vector<double> a{1, 2, 3};
  std::vector<double> b{10, 11, 12};
  EXPECT_DOUBLE_EQ(util::ks_two_sample(a, b).statistic, 1.0);
}

// --- FIT conversions ------------------------------------------------------------

TEST(Fit, RoundTrip) {
  const double p = fault::fit_to_bit_probability(600.0, 24.0);
  EXPECT_NEAR(fault::bit_probability_to_fit(p, 24.0), 600.0, 1e-9);
}

TEST(Fit, KnownMagnitude) {
  // 1000 FIT/Mb for one hour: 1000 / 1e9 / 2^20 per bit-hour.
  const double p = fault::fit_to_bit_probability(1000.0, 1.0);
  EXPECT_NEAR(p, 1000.0 / 1e9 / 1048576.0, 1e-20);
}

TEST(Fit, ModelUpsetsScaleWithBits) {
  const double one = fault::expected_model_upsets(600.0, 10.0, 1'000'000);
  const double two = fault::expected_model_upsets(600.0, 10.0, 2'000'000);
  EXPECT_NEAR(two, 2.0 * one, 1e-15);
}

TEST(Fit, HoursToOneUpsetInverse) {
  const std::int64_t bits = 11'000'000LL * 32;  // ResNet-18 fp32
  const double hours = fault::hours_to_one_upset(600.0, bits);
  EXPECT_NEAR(fault::expected_model_upsets(600.0, hours, bits), 1.0, 1e-9);
  // Sanity: 352 Mb of weights at 600 FIT/Mb ≈ 2.1e-4 upsets/hour, so one
  // expected upset lands around 200 days.
  EXPECT_GT(hours, 24.0 * 100.0);
  EXPECT_LT(hours, 24.0 * 300.0);
}

}  // namespace
}  // namespace bdlfi
