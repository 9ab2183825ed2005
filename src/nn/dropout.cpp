#include "nn/dropout.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "tensor/ops.h"
#include "util/check.h"

namespace bdlfi::nn {

Dropout::Dropout(double rate, std::uint64_t seed) : rate_(rate), rng_(seed) {
  BDLFI_CHECK(rate >= 0.0 && rate < 1.0);
}

Tensor Dropout::forward_train(const Tensor& x) {
  if (rate_ == 0.0) {
    cached_mask_ = Tensor{};  // identity pass: backward is identity too
    return x;
  }
  const auto scale = static_cast<float>(1.0 / (1.0 - rate_));
  Tensor mask{x.shape()};
  for (std::int64_t i = 0; i < mask.numel(); ++i) {
    mask[i] = rng_.bernoulli(rate_) ? 0.0f : scale;
  }
  Tensor y{x.shape()};
  for (std::int64_t i = 0; i < y.numel(); ++i) y[i] = x[i] * mask[i];
  cached_mask_ = std::move(mask);
  return y;
}

void Dropout::forward_into(const Tensor& in, Tensor& out, Workspace& /*ws*/) {
  BDLFI_CHECK(in.numel() == out.numel());
  if (!mc_mode_ || rate_ == 0.0) {
    if (out.data() != in.data()) {
      std::copy_n(in.data(), static_cast<std::size_t>(in.numel()),
                  out.data());
    }
    return;
  }
  // MC mode: one draw per element in order, as in training; out may alias in.
  const auto scale = static_cast<float>(1.0 / (1.0 - rate_));
  for (std::int64_t i = 0; i < in.numel(); ++i) {
    out[i] = in[i] * (rng_.bernoulli(rate_) ? 0.0f : scale);
  }
}

Tensor Dropout::backward(const Tensor& grad_output) {
  if (cached_mask_.empty()) return grad_output;
  BDLFI_CHECK(grad_output.shape() == cached_mask_.shape());
  Tensor grad = grad_output;
  for (std::int64_t i = 0; i < grad.numel(); ++i) {
    grad[i] *= cached_mask_[i];
  }
  return grad;
}

std::unique_ptr<Layer> Dropout::clone() const {
  auto copy = std::make_unique<Dropout>(rate_);
  copy->mc_mode_ = mc_mode_;
  copy->rng_ = rng_;
  return copy;
}

std::size_t set_mc_dropout(Network& net, bool enabled) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    if (auto* dropout = dynamic_cast<Dropout*>(&net.layer(i))) {
      dropout->set_mc_mode(enabled);
      ++count;
    }
  }
  return count;
}

McDropoutResult mc_dropout_predict(Network& net, const Tensor& inputs,
                                   std::size_t passes) {
  BDLFI_CHECK(passes >= 1);
  const std::size_t n = static_cast<std::size_t>(inputs.shape()[0]);
  std::vector<std::map<std::int64_t, std::size_t>> votes(n);
  for (std::size_t pass = 0; pass < passes; ++pass) {
    const auto preds = net.predict(inputs);
    for (std::size_t i = 0; i < n; ++i) ++votes[i][preds[i]];
  }
  McDropoutResult result;
  result.predictions.resize(n);
  result.vote_entropy.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::int64_t best = -1;
    std::size_t best_count = 0;
    double entropy = 0.0;
    for (const auto& [cls, count] : votes[i]) {
      if (count > best_count) {
        best_count = count;
        best = cls;
      }
      const double frac =
          static_cast<double>(count) / static_cast<double>(passes);
      entropy -= frac * std::log(frac);
    }
    result.predictions[i] = best;
    result.vote_entropy[i] = entropy;
  }
  return result;
}

}  // namespace bdlfi::nn
