#include "nn/batchnorm.h"

#include <cmath>

#include "util/check.h"

namespace bdlfi::nn {

BatchNorm2d::BatchNorm2d(std::int64_t channels, float eps, float momentum)
    : channels_(channels),
      eps_(eps),
      momentum_(momentum),
      gamma_(Tensor::full(Shape{channels}, 1.0f)),
      beta_(Shape{channels}),
      grad_gamma_(Shape{channels}),
      grad_beta_(Shape{channels}),
      running_mean_(Shape{channels}),
      running_var_(Tensor::full(Shape{channels}, 1.0f)) {
  BDLFI_CHECK(channels > 0);
}

Tensor BatchNorm2d::forward_train(const Tensor& x) {
  BDLFI_CHECK(x.shape().rank() == 4 && x.shape()[1] == channels_);
  const std::int64_t n = x.shape()[0], c = x.shape()[1], h = x.shape()[2],
                     w = x.shape()[3];
  const std::int64_t per_channel = n * h * w;
  Tensor y{x.shape()};

  cached_xhat_ = Tensor{x.shape()};
  cached_inv_std_ = Tensor{Shape{c}};
  for (std::int64_t ch = 0; ch < c; ++ch) {
    double sum = 0.0, sq = 0.0;
    for (std::int64_t s = 0; s < n; ++s) {
      const float* in = x.data() + (s * c + ch) * h * w;
      for (std::int64_t i = 0; i < h * w; ++i) {
        sum += in[i];
        sq += static_cast<double>(in[i]) * in[i];
      }
    }
    const double mean = sum / static_cast<double>(per_channel);
    const double var =
        std::max(0.0, sq / static_cast<double>(per_channel) - mean * mean);
    const float inv_std = 1.0f / std::sqrt(static_cast<float>(var) + eps_);
    cached_inv_std_[ch] = inv_std;

    running_mean_[ch] = (1.0f - momentum_) * running_mean_[ch] +
                        momentum_ * static_cast<float>(mean);
    running_var_[ch] = (1.0f - momentum_) * running_var_[ch] +
                       momentum_ * static_cast<float>(var);

    const float g = gamma_[ch], b = beta_[ch];
    for (std::int64_t s = 0; s < n; ++s) {
      const float* in = x.data() + (s * c + ch) * h * w;
      float* out = y.data() + (s * c + ch) * h * w;
      float* xh = cached_xhat_.data() + (s * c + ch) * h * w;
      for (std::int64_t i = 0; i < h * w; ++i) {
        const float xhat = (in[i] - static_cast<float>(mean)) * inv_std;
        xh[i] = xhat;
        out[i] = g * xhat + b;
      }
    }
  }
  return y;
}

void BatchNorm2d::forward_into(const Tensor& in, Tensor& out,
                               Workspace& /*ws*/) {
  BDLFI_CHECK(in.shape().rank() == 4 && in.shape()[1] == channels_);
  BDLFI_CHECK(in.numel() == out.numel());
  const std::int64_t n = in.shape()[0], c = in.shape()[1], h = in.shape()[2],
                     w = in.shape()[3];
  // Frozen running moments make the layer a per-channel affine map; out may
  // alias in (each element is read exactly once before it is written).
  for (std::int64_t ch = 0; ch < c; ++ch) {
    const float inv_std = 1.0f / std::sqrt(running_var_[ch] + eps_);
    const float scale = gamma_[ch] * inv_std;
    const float shift = beta_[ch] - running_mean_[ch] * scale;
    for (std::int64_t s = 0; s < n; ++s) {
      const float* src = in.data() + (s * c + ch) * h * w;
      float* dst = out.data() + (s * c + ch) * h * w;
      for (std::int64_t i = 0; i < h * w; ++i) dst[i] = src[i] * scale + shift;
    }
  }
}

Tensor BatchNorm2d::backward(const Tensor& grad_output) {
  BDLFI_CHECK_MSG(!cached_xhat_.empty(),
                  "BatchNorm2d::backward without training forward");
  const Shape& shape = cached_xhat_.shape();
  const std::int64_t n = shape[0], c = shape[1], h = shape[2], w = shape[3];
  const auto m = static_cast<float>(n * h * w);
  Tensor grad_in{shape};

  for (std::int64_t ch = 0; ch < c; ++ch) {
    // Per-channel reductions: sum(dy), sum(dy * xhat).
    double sum_dy = 0.0, sum_dy_xhat = 0.0;
    for (std::int64_t s = 0; s < n; ++s) {
      const float* dy = grad_output.data() + (s * c + ch) * h * w;
      const float* xh = cached_xhat_.data() + (s * c + ch) * h * w;
      for (std::int64_t i = 0; i < h * w; ++i) {
        sum_dy += dy[i];
        sum_dy_xhat += static_cast<double>(dy[i]) * xh[i];
      }
    }
    grad_beta_[ch] += static_cast<float>(sum_dy);
    grad_gamma_[ch] += static_cast<float>(sum_dy_xhat);

    const float g = gamma_[ch];
    const float inv_std = cached_inv_std_[ch];
    const auto mean_dy = static_cast<float>(sum_dy) / m;
    const auto mean_dy_xhat = static_cast<float>(sum_dy_xhat) / m;
    for (std::int64_t s = 0; s < n; ++s) {
      const float* dy = grad_output.data() + (s * c + ch) * h * w;
      const float* xh = cached_xhat_.data() + (s * c + ch) * h * w;
      float* dx = grad_in.data() + (s * c + ch) * h * w;
      for (std::int64_t i = 0; i < h * w; ++i) {
        dx[i] = g * inv_std * (dy[i] - mean_dy - xh[i] * mean_dy_xhat);
      }
    }
  }
  return grad_in;
}

void BatchNorm2d::collect_params(const std::string& prefix,
                                 std::vector<ParamRef>& out) {
  out.push_back({prefix + "gamma", ParamRole::kBnGamma, &gamma_,
                 &grad_gamma_});
  out.push_back({prefix + "beta", ParamRole::kBnBeta, &beta_, &grad_beta_});
}

void BatchNorm2d::collect_buffers(const std::string& prefix,
                                  std::vector<ParamRef>& out) {
  out.push_back({prefix + "running_mean", ParamRole::kBnRunningMean,
                 &running_mean_, nullptr});
  out.push_back({prefix + "running_var", ParamRole::kBnRunningVar,
                 &running_var_, nullptr});
}

void BatchNorm2d::zero_grad() {
  grad_gamma_.fill(0.0f);
  grad_beta_.fill(0.0f);
}

std::unique_ptr<Layer> BatchNorm2d::clone() const {
  auto copy = std::make_unique<BatchNorm2d>(channels_, eps_, momentum_);
  copy->gamma_ = gamma_;
  copy->beta_ = beta_;
  copy->running_mean_ = running_mean_;
  copy->running_var_ = running_var_;
  return copy;
}

}  // namespace bdlfi::nn
