#include "nn/conv.h"

#include <cmath>

#include "util/check.h"

namespace bdlfi::nn {

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t pad,
               bool bias)
    : Conv2d(in_channels, out_channels, kernel, kernel, stride,
             pad >= 0 ? pad : kernel / 2, pad >= 0 ? pad : kernel / 2, bias) {}

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel_h, std::int64_t kernel_w,
               std::int64_t stride, std::int64_t pad_h, std::int64_t pad_w,
               bool bias)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      has_bias_(bias),
      weight_(Shape{out_channels, in_channels, kernel_h, kernel_w}),
      bias_(bias ? Tensor{Shape{out_channels}} : Tensor{}),
      grad_weight_(weight_.shape()),
      grad_bias_(bias ? Tensor{Shape{out_channels}} : Tensor{}) {
  BDLFI_CHECK(in_channels > 0 && out_channels > 0 && kernel_h > 0 &&
              kernel_w > 0 && stride > 0 && pad_h >= 0 && pad_w >= 0);
  spec_.kernel_h = kernel_h;
  spec_.kernel_w = kernel_w;
  spec_.stride = stride;
  spec_.pad_h = pad_h;
  spec_.pad_w = pad_w;
}

void Conv2d::init_he(util::Rng& rng) {
  const auto fan_in = static_cast<float>(in_channels_ * spec_.kernel_h *
                                         spec_.kernel_w);
  const float stddev = std::sqrt(2.0f / fan_in);
  weight_ = Tensor::randn(weight_.shape(), rng, 0.0f, stddev);
  if (has_bias_) bias_.fill(0.0f);
}

Shape Conv2d::output_shape(const Shape& in) const {
  BDLFI_CHECK(in.rank() == 4 && in[1] == in_channels_);
  return Shape{in[0], out_channels_, spec_.out_h(in[2]), spec_.out_w(in[3])};
}

Tensor Conv2d::forward_train(const Tensor& x) {
  cached_input_ = x;
  return forward(x, false);
}

void Conv2d::forward_into(const Tensor& in, Tensor& out, Workspace& /*ws*/) {
  BDLFI_CHECK(in.shape().rank() == 4 && in.shape()[1] == in_channels_);
  if (compute_ctx_ != nullptr) {
    tensor::conv2d_forward_into(in, weight_, bias_, spec_, *compute_ctx_, out);
  } else {
    tensor::conv2d_forward_into(in, weight_, bias_, spec_,
                                tensor::abft::OpContext{}, out);
  }
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  BDLFI_CHECK_MSG(!cached_input_.empty(),
                  "Conv2d::backward without training forward");
  Tensor grad_in, gw, gb;
  tensor::conv2d_backward(cached_input_, weight_, grad_output, spec_, grad_in,
                          gw, gb);
  tensor::add_inplace(grad_weight_, gw);
  if (has_bias_) tensor::add_inplace(grad_bias_, gb);
  return grad_in;
}

void Conv2d::collect_params(const std::string& prefix,
                            std::vector<ParamRef>& out) {
  out.push_back({prefix + "weight", ParamRole::kWeight, &weight_,
                 &grad_weight_});
  if (has_bias_) {
    out.push_back({prefix + "bias", ParamRole::kBias, &bias_, &grad_bias_});
  }
}

void Conv2d::zero_grad() {
  grad_weight_.fill(0.0f);
  if (has_bias_) grad_bias_.fill(0.0f);
}

std::unique_ptr<Layer> Conv2d::clone() const {
  auto copy = std::make_unique<Conv2d>(in_channels_, out_channels_,
                                       spec_.kernel_h, spec_.kernel_w,
                                       spec_.stride, spec_.pad_h,
                                       spec_.pad_w, has_bias_);
  copy->weight_ = weight_;
  copy->bias_ = bias_;
  return copy;
}

}  // namespace bdlfi::nn
