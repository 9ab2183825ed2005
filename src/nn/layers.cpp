#include "nn/layers.h"

#include <algorithm>
#include <cmath>

#include "tensor/ops.h"
#include "util/check.h"

namespace bdlfi::nn {

const char* param_role_name(ParamRole role) {
  switch (role) {
    case ParamRole::kWeight: return "weight";
    case ParamRole::kBias: return "bias";
    case ParamRole::kBnGamma: return "gamma";
    case ParamRole::kBnBeta: return "beta";
    case ParamRole::kBnRunningMean: return "running_mean";
    case ParamRole::kBnRunningVar: return "running_var";
  }
  return "?";
}

std::int64_t Layer::num_params() {
  std::vector<ParamRef> refs;
  collect_params("", refs);
  std::int64_t n = 0;
  for (const auto& r : refs) n += r.value->numel();
  return n;
}

Tensor Layer::forward(const Tensor& x, bool training) {
  if (training) return forward_train(x);
  Tensor out{output_shape(x.shape())};
  Workspace ws;
  forward_into(x, out, ws);
  return out;
}

// --- Dense -------------------------------------------------------------------

Dense::Dense(std::int64_t in_features, std::int64_t out_features, bool bias)
    : in_(in_features),
      out_(out_features),
      has_bias_(bias),
      weight_(Shape{out_features, in_features}),
      bias_(bias ? Tensor{Shape{out_features}} : Tensor{}),
      grad_weight_(Shape{out_features, in_features}),
      grad_bias_(bias ? Tensor{Shape{out_features}} : Tensor{}) {
  BDLFI_CHECK(in_features > 0 && out_features > 0);
}

void Dense::init_he(util::Rng& rng) {
  const float stddev = std::sqrt(2.0f / static_cast<float>(in_));
  weight_ = Tensor::randn(weight_.shape(), rng, 0.0f, stddev);
  if (has_bias_) bias_.fill(0.0f);
}

Shape Dense::output_shape(const Shape& in) const {
  BDLFI_CHECK(in.rank() == 2 && in[1] == in_);
  return Shape{in[0], out_};
}

Tensor Dense::forward_train(const Tensor& x) {
  cached_input_ = x;
  return forward(x, false);
}

void Dense::forward_into(const Tensor& in, Tensor& out, Workspace& /*ws*/) {
  BDLFI_CHECK(in.shape().rank() == 2 && in.shape()[1] == in_);
  const std::int64_t n = in.shape()[0];
  BDLFI_CHECK(out.shape() == Shape({n, out_}));
  BDLFI_CHECK(out.data() != in.data());
  // y = x [n,in] * W^T [in,out]; beta = 0 overwrites whatever the arena slot
  // held, so stale activations from the previous eval are inert. Under a
  // compute context the GEMM is checked pre-bias: compute faults strike the
  // raw MAC results, and the checksum invariant only covers the multiply.
  if (compute_ctx_ != nullptr) {
    tensor::abft::gemm_checked(false, true, n, out_, in_, 1.0f, in.data(), in_,
                               weight_.data(), in_, out.data(), out_,
                               *compute_ctx_, /*elem_base=*/0);
  } else {
    tensor::gemm(false, true, n, out_, in_, 1.0f, in.data(), in_,
                 weight_.data(), in_, 0.0f, out.data(), out_);
  }
  if (has_bias_) tensor::bias_add_rows(out, bias_);
}

Tensor Dense::backward(const Tensor& grad_output) {
  BDLFI_CHECK_MSG(!cached_input_.empty(),
                  "Dense::backward without training forward");
  const std::int64_t n = cached_input_.shape()[0];
  BDLFI_CHECK(grad_output.shape() == Shape({n, out_}));
  // dW += dY^T [out,n] * X [n,in]
  tensor::gemm(true, false, out_, in_, n, 1.0f, grad_output.data(), out_,
               cached_input_.data(), in_, 1.0f, grad_weight_.data(), in_);
  if (has_bias_) {
    for (std::int64_t r = 0; r < n; ++r) {
      const float* row = grad_output.data() + r * out_;
      for (std::int64_t c = 0; c < out_; ++c) grad_bias_[c] += row[c];
    }
  }
  // dX = dY [n,out] * W [out,in]
  Tensor grad_in{Shape{n, in_}};
  tensor::gemm(false, false, n, in_, out_, 1.0f, grad_output.data(), out_,
               weight_.data(), in_, 0.0f, grad_in.data(), in_);
  return grad_in;
}

void Dense::collect_params(const std::string& prefix,
                           std::vector<ParamRef>& out) {
  out.push_back({prefix + "weight", ParamRole::kWeight, &weight_,
                 &grad_weight_});
  if (has_bias_) {
    out.push_back({prefix + "bias", ParamRole::kBias, &bias_, &grad_bias_});
  }
}

void Dense::zero_grad() {
  grad_weight_.fill(0.0f);
  if (has_bias_) grad_bias_.fill(0.0f);
}

std::unique_ptr<Layer> Dense::clone() const {
  auto copy = std::make_unique<Dense>(in_, out_, has_bias_);
  copy->weight_ = weight_;
  copy->bias_ = bias_;
  return copy;
}

// --- ReLU --------------------------------------------------------------------

Tensor ReLU::forward_train(const Tensor& x) {
  cached_pre_ = x;
  return forward(x, false);
}

void ReLU::forward_into(const Tensor& in, Tensor& out, Workspace& /*ws*/) {
  BDLFI_CHECK(in.numel() == out.numel());
  if (out.data() != in.data()) {
    std::copy_n(in.data(), static_cast<std::size_t>(in.numel()), out.data());
  }
  tensor::relu_inplace(out);
}

Tensor ReLU::backward(const Tensor& grad_output) {
  BDLFI_CHECK_MSG(!cached_pre_.empty(),
                  "ReLU::backward without training forward");
  Tensor g = grad_output;
  tensor::relu_backward_inplace(g, cached_pre_);
  return g;
}

// --- Flatten -----------------------------------------------------------------

Shape Flatten::output_shape(const Shape& in) const {
  BDLFI_CHECK(in.rank() >= 2);
  const std::int64_t n = in[0];
  return Shape{n, in.numel() / n};
}

Tensor Flatten::forward_train(const Tensor& x) {
  cached_shape_ = x.shape();
  return x.reshaped(output_shape(x.shape()));
}

void Flatten::forward_into(const Tensor& in, Tensor& out, Workspace& /*ws*/) {
  BDLFI_CHECK(in.numel() == out.numel());
  // Pure reshape: when the plan aliases the slots this is a no-op; a copy
  // only happens when the input arrives externally (truncated replay).
  if (out.data() != in.data()) {
    std::copy_n(in.data(), static_cast<std::size_t>(in.numel()), out.data());
  }
}

Tensor Flatten::backward(const Tensor& grad_output) {
  return grad_output.reshaped(cached_shape_);
}

// --- MaxPool2d ---------------------------------------------------------------

Shape MaxPool2d::output_shape(const Shape& in) const {
  BDLFI_CHECK(in.rank() == 4);
  return Shape{in[0], in[1], in[2] / kernel_, in[3] / kernel_};
}

Tensor MaxPool2d::forward_train(const Tensor& x) {
  cached_shape_ = x.shape();
  return tensor::maxpool2d_forward(x, kernel_, argmax_);
}

void MaxPool2d::forward_into(const Tensor& in, Tensor& out,
                             Workspace& /*ws*/) {
  // Eval mode records no argmax: it exists for backward only.
  tensor::maxpool2d_forward_into(in, kernel_, out, nullptr);
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  return tensor::maxpool2d_backward(grad_output, cached_shape_, argmax_);
}

// --- GlobalAvgPool -----------------------------------------------------------

Shape GlobalAvgPool::output_shape(const Shape& in) const {
  BDLFI_CHECK(in.rank() == 4);
  return Shape{in[0], in[1]};
}

Tensor GlobalAvgPool::forward_train(const Tensor& x) {
  cached_shape_ = x.shape();
  return forward(x, false);
}

void GlobalAvgPool::forward_into(const Tensor& in, Tensor& out,
                                 Workspace& /*ws*/) {
  tensor::global_avgpool_forward_into(in, out);
}

Tensor GlobalAvgPool::backward(const Tensor& grad_output) {
  return tensor::global_avgpool_backward(grad_output, cached_shape_);
}

}  // namespace bdlfi::nn
