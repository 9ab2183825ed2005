// Numeric kernels vs naive references: GEMM (all transpose combos), softmax,
// im2col/conv/pool forward & backward gradient checks, and bit-exactness of
// the fused-panel conv, forward and backward, against per-sample GEMMs.
#include "tensor/ops.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "tensor/backend/backend.h"
#include "util/rng.h"

namespace bdlfi::tensor {
namespace {

Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.shape()[0], k = a.shape()[1], n = b.shape()[1];
  Tensor c{Shape{m, n}};
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        acc += a.at(i, kk) * b.at(kk, j);
      }
      c.at(i, j) = acc;
    }
  }
  return c;
}

TEST(Gemm, MatmulMatchesNaiveSmall) {
  util::Rng rng{1};
  Tensor a = Tensor::randn(Shape{5, 7}, rng);
  Tensor b = Tensor::randn(Shape{7, 3}, rng);
  EXPECT_LT(Tensor::max_abs_diff(matmul(a, b), naive_matmul(a, b)), 1e-4f);
}

TEST(Gemm, MatmulMatchesNaiveLargeParallel) {
  util::Rng rng{2};
  Tensor a = Tensor::randn(Shape{70, 90}, rng);
  Tensor b = Tensor::randn(Shape{90, 60}, rng);
  EXPECT_LT(Tensor::max_abs_diff(matmul(a, b), naive_matmul(a, b)), 1e-3f);
}

TEST(Gemm, TransposeACorrect) {
  util::Rng rng{3};
  Tensor a = Tensor::randn(Shape{7, 5}, rng);  // will be used as A^T (5x7)
  Tensor b = Tensor::randn(Shape{7, 4}, rng);
  Tensor c{Shape{5, 4}};
  gemm(true, false, 5, 4, 7, 1.0f, a.data(), 5, b.data(), 4, 0.0f, c.data(),
       4);
  // Reference: c[i][j] = sum_k a[k][i] * b[k][j]
  for (std::int64_t i = 0; i < 5; ++i) {
    for (std::int64_t j = 0; j < 4; ++j) {
      float acc = 0.0f;
      for (std::int64_t k = 0; k < 7; ++k) acc += a.at(k, i) * b.at(k, j);
      EXPECT_NEAR(c.at(i, j), acc, 1e-4f);
    }
  }
}

TEST(Gemm, TransposeBCorrect) {
  util::Rng rng{4};
  Tensor a = Tensor::randn(Shape{5, 7}, rng);
  Tensor b = Tensor::randn(Shape{4, 7}, rng);  // used as B^T (7x4)
  Tensor c{Shape{5, 4}};
  gemm(false, true, 5, 4, 7, 1.0f, a.data(), 7, b.data(), 7, 0.0f, c.data(),
       4);
  for (std::int64_t i = 0; i < 5; ++i) {
    for (std::int64_t j = 0; j < 4; ++j) {
      float acc = 0.0f;
      for (std::int64_t k = 0; k < 7; ++k) acc += a.at(i, k) * b.at(j, k);
      EXPECT_NEAR(c.at(i, j), acc, 1e-4f);
    }
  }
}

TEST(Gemm, AlphaBetaAccumulate) {
  util::Rng rng{5};
  Tensor a = Tensor::randn(Shape{3, 3}, rng);
  Tensor b = Tensor::randn(Shape{3, 3}, rng);
  Tensor c0 = Tensor::full(Shape{3, 3}, 1.0f);
  Tensor c = c0;
  gemm(false, false, 3, 3, 3, 2.0f, a.data(), 3, b.data(), 3, 0.5f, c.data(),
       3);
  Tensor ref = naive_matmul(a, b);
  for (std::int64_t i = 0; i < 9; ++i) {
    EXPECT_NEAR(c[i], 2.0f * ref[i] + 0.5f, 1e-4f);
  }
}

TEST(Elementwise, AddAndAxpy) {
  Tensor a = Tensor::full(Shape{4}, 1.0f);
  Tensor b = Tensor::arange(Shape{4});
  add_inplace(a, b);
  EXPECT_EQ(a[3], 4.0f);
  axpy_inplace(a, -2.0f, b);
  EXPECT_EQ(a[3], -2.0f);
}

TEST(Elementwise, ReluForwardBackward) {
  Tensor x{Shape{4}, {-1.0f, 0.0f, 2.0f, -3.0f}};
  Tensor y = x;
  relu_inplace(y);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[2], 2.0f);
  Tensor g = Tensor::full(Shape{4}, 1.0f);
  relu_backward_inplace(g, x);
  EXPECT_EQ(g[0], 0.0f);
  EXPECT_EQ(g[1], 0.0f);  // gradient at exactly 0 defined as 0
  EXPECT_EQ(g[2], 1.0f);
}

TEST(Softmax, RowsSumToOne) {
  util::Rng rng{6};
  Tensor logits = Tensor::randn(Shape{8, 5}, rng, 0.0f, 3.0f);
  Tensor p = softmax_rows(logits);
  for (std::int64_t r = 0; r < 8; ++r) {
    float sum = 0.0f;
    for (std::int64_t c = 0; c < 5; ++c) sum += p.at(r, c);
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(Softmax, LargeLogitsStable) {
  Tensor logits{Shape{1, 3}, {1000.0f, 1001.0f, 999.0f}};
  Tensor p = softmax_rows(logits);
  EXPECT_TRUE(std::isfinite(p[0]));
  EXPECT_GT(p[1], p[0]);
}

TEST(Softmax, NanRowFallsBackToUniform) {
  const float nan = std::nanf("");
  Tensor logits{Shape{1, 4}, {nan, nan, nan, nan}};
  Tensor p = softmax_rows(logits);
  for (int c = 0; c < 4; ++c) EXPECT_NEAR(p[c], 0.25f, 1e-6f);
}

TEST(Softmax, InfinityDominates) {
  const float inf = std::numeric_limits<float>::infinity();
  Tensor logits{Shape{1, 3}, {0.0f, inf, 0.0f}};
  Tensor p = softmax_rows(logits);
  EXPECT_NEAR(p[1], 1.0f, 1e-6f);
}

TEST(LogSoftmax, MatchesLogOfSoftmax) {
  util::Rng rng{7};
  Tensor logits = Tensor::randn(Shape{4, 6}, rng);
  Tensor lp = log_softmax_rows(logits);
  Tensor p = softmax_rows(logits);
  for (std::int64_t i = 0; i < lp.numel(); ++i) {
    EXPECT_NEAR(lp[i], std::log(p[i]), 1e-4f);
  }
}

TEST(Argmax, PicksMaxAndIgnoresNan) {
  const float nan = std::nanf("");
  Tensor m{Shape{2, 3}, {1.0f, 5.0f, 2.0f, 3.0f, nan, 1.0f}};
  const auto idx = argmax_rows(m);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);  // NaN never displaces the incumbent
}

// --- conv / pool -------------------------------------------------------------

Tensor naive_conv2d(const Tensor& input, const Tensor& weight,
                    const Tensor& bias, const Conv2dSpec& spec) {
  const std::int64_t n = input.shape()[0], c = input.shape()[1],
                     h = input.shape()[2], w = input.shape()[3];
  const std::int64_t o = weight.shape()[0];
  const std::int64_t oh = spec.out_h(h), ow = spec.out_w(w);
  Tensor out{Shape{n, o, oh, ow}};
  for (std::int64_t s = 0; s < n; ++s) {
    for (std::int64_t oc = 0; oc < o; ++oc) {
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          float acc = bias.empty() ? 0.0f : bias[oc];
          for (std::int64_t ic = 0; ic < c; ++ic) {
            for (std::int64_t ky = 0; ky < spec.kernel_h; ++ky) {
              for (std::int64_t kx = 0; kx < spec.kernel_w; ++kx) {
                const std::int64_t iy = oy * spec.stride - spec.pad_h + ky;
                const std::int64_t ix = ox * spec.stride - spec.pad_w + kx;
                if (iy < 0 || iy >= h || ix < 0 || ix >= w) continue;
                acc += input.at(s, ic, iy, ix) * weight.at(oc, ic, ky, kx);
              }
            }
          }
          out.at(s, oc, oy, ox) = acc;
        }
      }
    }
  }
  return out;
}

TEST(Conv2d, MatchesNaiveSamePadding) {
  util::Rng rng{8};
  Tensor input = Tensor::randn(Shape{2, 3, 8, 8}, rng);
  Tensor weight = Tensor::randn(Shape{4, 3, 3, 3}, rng);
  Tensor bias = Tensor::randn(Shape{4}, rng);
  Conv2dSpec spec;  // 3x3, stride 1, pad 1
  EXPECT_LT(Tensor::max_abs_diff(conv2d_forward(input, weight, bias, spec),
                                 naive_conv2d(input, weight, bias, spec)),
            1e-3f);
}

TEST(Conv2d, MatchesNaiveStride2) {
  util::Rng rng{9};
  Tensor input = Tensor::randn(Shape{1, 2, 9, 9}, rng);
  Tensor weight = Tensor::randn(Shape{3, 2, 3, 3}, rng);
  Conv2dSpec spec;
  spec.stride = 2;
  EXPECT_LT(Tensor::max_abs_diff(conv2d_forward(input, weight, {}, spec),
                                 naive_conv2d(input, weight, {}, spec)),
            1e-3f);
}

TEST(Conv2d, OneByOneKernel) {
  util::Rng rng{10};
  Tensor input = Tensor::randn(Shape{1, 4, 5, 5}, rng);
  Tensor weight = Tensor::randn(Shape{2, 4, 1, 1}, rng);
  Conv2dSpec spec;
  spec.kernel_h = spec.kernel_w = 1;
  spec.set_pad(0);
  EXPECT_LT(Tensor::max_abs_diff(conv2d_forward(input, weight, {}, spec),
                                 naive_conv2d(input, weight, {}, spec)),
            1e-3f);
}

// The per-sample arithmetic conv2d_forward ran before it fused samples into
// wide panels: one im2col and one gemm_rows per sample, then the per-plane
// bias. Written out here so the panel path is compared against it, not
// against itself.
Tensor per_sample_conv2d(const Tensor& input, const Tensor& weight,
                         const Tensor& bias, const Conv2dSpec& spec) {
  const std::int64_t n = input.shape()[0], c = input.shape()[1],
                     h = input.shape()[2], w = input.shape()[3];
  const std::int64_t o = weight.shape()[0];
  const std::int64_t ohow = spec.out_h(h) * spec.out_w(w);
  const std::int64_t patch = c * spec.kernel_h * spec.kernel_w;
  const backend::KernelBackend& be = backend::active();
  Tensor out{Shape{n, o, spec.out_h(h), spec.out_w(w)}};
  std::vector<float> cols(static_cast<std::size_t>(patch * ohow));
  for (std::int64_t s = 0; s < n; ++s) {
    im2col(input.data() + s * c * h * w, c, h, w, spec, cols.data());
    float* dst = out.data() + s * o * ohow;
    be.gemm_rows(false, false, 0, o, ohow, patch, 1.0f, weight.data(), patch,
                 cols.data(), ohow, 0.0f, dst, ohow);
    if (!bias.empty()) {
      for (std::int64_t oc = 0; oc < o; ++oc) {
        be.add_const(dst + oc * ohow, bias[oc], ohow);
      }
    }
  }
  return out;
}

TEST(Conv2d, PanelPathBitIdenticalToPerSampleGemms) {
  struct Case {
    std::int64_t c, o, hw, kernel, stride, pad;
  };
  // OH*OW = 1, 4, 16, 256 at 3x3/stride 1/pad 1, plus stride 2 with and
  // without padding (16 and 4 columns).
  const Case cases[] = {{8, 16, 1, 3, 1, 1},  {16, 5, 2, 3, 1, 1},
                        {3, 8, 4, 3, 1, 1},   {4, 6, 16, 3, 1, 1},
                        {6, 12, 8, 3, 2, 1},  {8, 16, 4, 1, 2, 0}};
  const std::string restore = backend::active_name();
  for (const std::string& name : backend::available()) {
    ASSERT_TRUE(backend::set_active(name));
    util::Rng rng{12};
    for (const Case& k : cases) {
      for (const std::int64_t n : {1, 7, 64}) {
        for (const bool with_bias : {false, true}) {
          SCOPED_TRACE(name + " c=" + std::to_string(k.c) +
                       " hw=" + std::to_string(k.hw) +
                       " stride=" + std::to_string(k.stride) +
                       " n=" + std::to_string(n) +
                       " bias=" + std::to_string(with_bias));
          Conv2dSpec spec;
          spec.kernel_h = spec.kernel_w = k.kernel;
          spec.stride = k.stride;
          spec.set_pad(k.pad);
          const Tensor input = Tensor::randn(Shape{n, k.c, k.hw, k.hw}, rng);
          const Tensor weight =
              Tensor::randn(Shape{k.o, k.c, k.kernel, k.kernel}, rng);
          const Tensor bias =
              with_bias ? Tensor::randn(Shape{k.o}, rng) : Tensor{};
          const Tensor got = conv2d_forward(input, weight, bias, spec);
          const Tensor want = per_sample_conv2d(input, weight, bias, spec);
          ASSERT_EQ(got.shape(), want.shape());
          EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                static_cast<std::size_t>(got.numel()) *
                                    sizeof(float)),
                    0);
        }
      }
    }
  }
  ASSERT_TRUE(backend::set_active(restore));
}

// The per-sample arithmetic conv2d_backward ran before it moved onto wide
// panels: for each sample in order, one im2col, the dW gemm_rows adding onto
// the running grad_weight (beta 1), the dCols gemm_rows, col2im into the
// sample's zeroed input gradient, and the per-plane bias sums.
void per_sample_conv2d_backward(const Tensor& input, const Tensor& weight,
                                const Tensor& grad_output,
                                const Conv2dSpec& spec, Tensor& grad_input,
                                Tensor& grad_weight, Tensor& grad_bias) {
  const std::int64_t n = input.shape()[0], c = input.shape()[1],
                     h = input.shape()[2], w = input.shape()[3];
  const std::int64_t o = weight.shape()[0];
  const std::int64_t ohow = spec.out_h(h) * spec.out_w(w);
  const std::int64_t patch = c * spec.kernel_h * spec.kernel_w;
  const backend::KernelBackend& be = backend::active();
  grad_input = Tensor{input.shape()};
  grad_weight = Tensor{weight.shape()};
  grad_bias = Tensor{Shape{o}};
  std::vector<float> cols(static_cast<std::size_t>(patch * ohow));
  std::vector<float> dcols(cols.size());
  for (std::int64_t s = 0; s < n; ++s) {
    const float* dout = grad_output.data() + s * o * ohow;
    im2col(input.data() + s * c * h * w, c, h, w, spec, cols.data());
    be.gemm_rows(false, true, 0, o, patch, ohow, 1.0f, dout, ohow,
                 cols.data(), ohow, 1.0f, grad_weight.data(), patch);
    be.gemm_rows(true, false, 0, patch, ohow, o, 1.0f, weight.data(), patch,
                 dout, ohow, 0.0f, dcols.data(), ohow);
    col2im(dcols.data(), c, h, w, spec, grad_input.data() + s * c * h * w);
    for (std::int64_t oc = 0; oc < o; ++oc) {
      float acc = 0.0f;
      for (std::int64_t i = 0; i < ohow; ++i) acc += dout[oc * ohow + i];
      grad_bias[oc] += acc;
    }
  }
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) ==
             0;
}

TEST(Conv2d, BackwardPanelPathBitIdenticalToPerSampleGemms) {
  struct Case {
    std::int64_t c, o, hw, kernel, stride, pad, n;
  };
  // The forward parity test's geometries (OH*OW = 1, 4, 16, 256, stride 2
  // with and without padding, a 1x1 projection) at n = 1, 7 and 64, plus
  // one batch whose [144, 16*1024] im2col panel (2.4M floats) exceeds the
  // backward's panel budget, so the batch runs in consecutive chunks.
  std::vector<Case> cases;
  for (const std::int64_t n : {1, 7, 64}) {
    for (Case k : {Case{8, 16, 1, 3, 1, 1, 0}, Case{16, 5, 2, 3, 1, 1, 0},
                   Case{3, 8, 4, 3, 1, 1, 0}, Case{4, 6, 16, 3, 1, 1, 0},
                   Case{6, 12, 8, 3, 2, 1, 0}, Case{8, 16, 4, 1, 2, 0, 0}}) {
      k.n = n;
      cases.push_back(k);
    }
  }
  cases.push_back({16, 8, 32, 3, 1, 1, 16});
  // Exact zeros in grad_output (a ReLU's backward makes them) take scalar's
  // zero skip in the dW GEMM; +-inf and NaN weights (training through
  // corrupted forwards makes them) reach the dCols GEMM.
  enum class Values { kDense, kZeros, kNonFinite };
  const std::string restore = backend::active_name();
  for (const std::string& name : backend::available()) {
    ASSERT_TRUE(backend::set_active(name));
    util::Rng rng{13};
    for (const Case& k : cases) {
      for (const Values values :
           {Values::kDense, Values::kZeros, Values::kNonFinite}) {
        SCOPED_TRACE(name + " c=" + std::to_string(k.c) +
                     " hw=" + std::to_string(k.hw) +
                     " kernel=" + std::to_string(k.kernel) +
                     " stride=" + std::to_string(k.stride) +
                     " n=" + std::to_string(k.n) +
                     " values=" + std::to_string(static_cast<int>(values)));
        Conv2dSpec spec;
        spec.kernel_h = spec.kernel_w = k.kernel;
        spec.stride = k.stride;
        spec.set_pad(k.pad);
        const Tensor input = Tensor::randn(Shape{k.n, k.c, k.hw, k.hw}, rng);
        Tensor weight = Tensor::randn(Shape{k.o, k.c, k.kernel, k.kernel}, rng);
        Tensor grad_output = Tensor::randn(
            Shape{k.n, k.o, spec.out_h(k.hw), spec.out_w(k.hw)}, rng);
        if (values == Values::kZeros) {
          for (std::int64_t i = 0; i < grad_output.numel(); i += 2) {
            grad_output[i] = 0.0f;
          }
          grad_output[grad_output.numel() - 1] = 0.0f;
        }
        if (values == Values::kNonFinite) {
          weight[0] = std::numeric_limits<float>::infinity();
          weight[weight.numel() / 2] = -std::numeric_limits<float>::infinity();
          weight[weight.numel() - 1] = std::numeric_limits<float>::quiet_NaN();
          grad_output[0] = 0.0f;
        }
        Tensor gi, gw, gb, want_gi, want_gw, want_gb;
        conv2d_backward(input, weight, grad_output, spec, gi, gw, gb);
        per_sample_conv2d_backward(input, weight, grad_output, spec, want_gi,
                                   want_gw, want_gb);
        EXPECT_TRUE(same_bits(gi, want_gi)) << "grad_input";
        EXPECT_TRUE(same_bits(gw, want_gw)) << "grad_weight";
        EXPECT_TRUE(same_bits(gb, want_gb)) << "grad_bias";
      }
    }
  }
  ASSERT_TRUE(backend::set_active(restore));
}

TEST(Conv2d, BackwardNumericalGradientCheck) {
  util::Rng rng{11};
  Tensor input = Tensor::randn(Shape{1, 2, 5, 5}, rng);
  Tensor weight = Tensor::randn(Shape{2, 2, 3, 3}, rng);
  Tensor bias = Tensor::randn(Shape{2}, rng);
  Conv2dSpec spec;

  // Loss = sum(conv(input)); analytic gradients via conv2d_backward.
  Tensor out = conv2d_forward(input, weight, bias, spec);
  Tensor grad_out = Tensor::full(out.shape(), 1.0f);
  Tensor gi, gw, gb;
  conv2d_backward(input, weight, grad_out, spec, gi, gw, gb);

  auto loss = [&](const Tensor& in, const Tensor& w) {
    Tensor o = conv2d_forward(in, w, bias, spec);
    double s = 0.0;
    for (std::int64_t i = 0; i < o.numel(); ++i) s += o[i];
    return s;
  };
  const float eps = 1e-2f;
  // Spot-check a few input coordinates.
  for (std::int64_t idx : {0L, 7L, 24L, 49L}) {
    Tensor in_p = input, in_m = input;
    in_p[idx] += eps;
    in_m[idx] -= eps;
    const double numeric = (loss(in_p, weight) - loss(in_m, weight)) /
                           (2.0 * eps);
    EXPECT_NEAR(gi[idx], numeric, 1e-2) << "input idx " << idx;
  }
  for (std::int64_t idx : {0L, 5L, 17L}) {
    Tensor w_p = weight, w_m = weight;
    w_p[idx] += eps;
    w_m[idx] -= eps;
    const double numeric = (loss(input, w_p) - loss(input, w_m)) /
                           (2.0 * eps);
    EXPECT_NEAR(gw[idx], numeric, 2e-2) << "weight idx " << idx;
  }
  // Bias gradient of sum-loss = #output positions per channel.
  EXPECT_NEAR(gb[0], 25.0f, 1e-3f);
}

TEST(Im2Col, Col2ImRoundTripAccumulates) {
  // col2im(im2col(x)) counts each pixel once per covering window (k^2 with
  // stride 1, same pad, interior pixels).
  Tensor input = Tensor::full(Shape{1, 1, 6, 6}, 1.0f);
  Conv2dSpec spec;
  const std::int64_t oh = spec.out_h(6), ow = spec.out_w(6);
  std::vector<float> cols(static_cast<std::size_t>(9 * oh * ow));
  im2col(input.data(), 1, 6, 6, spec, cols.data());
  Tensor back{Shape{1, 1, 6, 6}};
  col2im(cols.data(), 1, 6, 6, spec, back.data());
  EXPECT_FLOAT_EQ(back.at(0, 0, 3, 3), 9.0f);  // interior: 9 windows
  EXPECT_FLOAT_EQ(back.at(0, 0, 0, 0), 4.0f);  // corner: 4 windows
}

TEST(MaxPool, ForwardAndBackward) {
  Tensor input = Tensor::arange(Shape{1, 1, 4, 4});
  std::vector<std::int64_t> argmax;
  Tensor out = maxpool2d_forward(input, 2, argmax);
  EXPECT_EQ(out.shape(), Shape({1, 1, 2, 2}));
  EXPECT_EQ(out.at(0, 0, 0, 0), 5.0f);
  EXPECT_EQ(out.at(0, 0, 1, 1), 15.0f);

  Tensor grad_out = Tensor::full(out.shape(), 1.0f);
  Tensor grad_in = maxpool2d_backward(grad_out, input.shape(), argmax);
  EXPECT_EQ(grad_in.at(0, 0, 1, 1), 1.0f);   // position of 5
  EXPECT_EQ(grad_in.at(0, 0, 0, 0), 0.0f);
  float total = 0.0f;
  for (std::int64_t i = 0; i < grad_in.numel(); ++i) total += grad_in[i];
  EXPECT_EQ(total, 4.0f);
}

TEST(GlobalAvgPool, ForwardBackward) {
  Tensor input = Tensor::arange(Shape{1, 2, 2, 2});
  Tensor out = global_avgpool_forward(input);
  EXPECT_EQ(out.shape(), Shape({1, 2}));
  EXPECT_FLOAT_EQ(out.at(0, 0), 1.5f);
  EXPECT_FLOAT_EQ(out.at(0, 1), 5.5f);

  Tensor grad_out = Tensor::full(Shape{1, 2}, 4.0f);
  Tensor grad_in = global_avgpool_backward(grad_out, input.shape());
  EXPECT_FLOAT_EQ(grad_in.at(0, 0, 0, 0), 1.0f);  // 4 / (2*2)
}

}  // namespace
}  // namespace bdlfi::tensor
