// 2-D convolution layer (NCHW activations, OIHW kernels), im2col + GEMM.
#pragma once

#include "nn/layer.h"
#include "tensor/ops.h"

namespace bdlfi::nn {

class Conv2d : public Layer {
 public:
  /// Square kernel; pad = -1 means "same" padding (kernel/2).
  Conv2d(std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel, std::int64_t stride = 1, std::int64_t pad = -1,
         bool bias = false);
  /// Rectangular kernel with explicit per-axis padding (e.g. 1×k FIR banks
  /// over [N,1,1,L] signals).
  Conv2d(std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel_h, std::int64_t kernel_w, std::int64_t stride,
         std::int64_t pad_h, std::int64_t pad_w, bool bias = false);

  std::string kind() const override { return "conv"; }
  Shape output_shape(const Shape& in) const override;
  void forward_into(const Tensor& in, Tensor& out, Workspace& ws) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(const std::string& prefix,
                      std::vector<ParamRef>& out) override;
  void zero_grad() override;
  std::unique_ptr<Layer> clone() const override;

  void init_he(util::Rng& rng);

  const tensor::Conv2dSpec& spec() const { return spec_; }
  std::int64_t in_channels() const { return in_channels_; }
  std::int64_t out_channels() const { return out_channels_; }
  Tensor& weight() { return weight_; }
  Tensor& bias() { return bias_; }

 protected:
  Tensor forward_train(const Tensor& x) override;

 private:
  std::int64_t in_channels_, out_channels_;
  tensor::Conv2dSpec spec_;
  bool has_bias_;
  Tensor weight_, bias_;
  Tensor grad_weight_, grad_bias_;
  Tensor cached_input_;
};

}  // namespace bdlfi::nn
