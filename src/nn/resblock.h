// ResNet "basic block": two 3×3 conv+BN stages with a skip connection,
//   y = relu( bn2(conv2( relu(bn1(conv1(x))) )) + shortcut(x) )
// where shortcut is identity, or a strided 1×1 conv + BN when the block
// changes resolution/width (ResNet-18/34 style).
#pragma once

#include <memory>

#include "nn/batchnorm.h"
#include "nn/conv.h"
#include "nn/layers.h"

namespace bdlfi::nn {

/// The basic-block eval sequence, the one body every block kind runs:
/// conv1, bn1, relu, conv2, bn2, shortcut (proj_bn(proj_conv(in)), or `in`
/// when proj_conv is null), add, relu, each through the sub-layer's
/// forward_into. The inner activation and the projection shortcut are views
/// into `ws.scratch`.
void basic_block_forward_into(Layer& conv1, Layer& bn1, Layer& conv2,
                              Layer& bn2, Layer* proj_conv, Layer* proj_bn,
                              const Tensor& in, Tensor& out, Workspace& ws);

class BasicBlock : public Layer {
 public:
  /// stride > 1 (or in != out channels) adds the projection shortcut.
  BasicBlock(std::int64_t in_channels, std::int64_t out_channels,
             std::int64_t stride);

  std::string kind() const override { return "block"; }
  Shape output_shape(const Shape& in) const override;
  /// basic_block_forward_into over this block's sub-layers, which run under
  /// the block's context minus its flip list.
  void forward_into(const Tensor& in, Tensor& out, Workspace& ws) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(const std::string& prefix,
                      std::vector<ParamRef>& out) override;
  void collect_buffers(const std::string& prefix,
                       std::vector<ParamRef>& out) override;
  void zero_grad() override;
  std::unique_ptr<Layer> clone() const override;

  void init_he(util::Rng& rng);

  bool has_projection() const { return proj_conv_ != nullptr; }

  // Sub-layer access for inference-only transformations (e.g. the int8
  // converter in src/quant rebuilds blocks with quantized convolutions).
  Conv2d& conv1() { return *conv1_; }
  BatchNorm2d& bn1() { return *bn1_; }
  Conv2d& conv2() { return *conv2_; }
  BatchNorm2d& bn2() { return *bn2_; }
  Conv2d* proj_conv() { return proj_conv_.get(); }
  BatchNorm2d* proj_bn() { return proj_bn_.get(); }

 protected:
  Tensor forward_train(const Tensor& x) override;

 private:
  /// Hands the inner convs this block's context minus its flip list, staged
  /// in `inner`; nullptr clears them.
  void set_inner_context(tensor::abft::OpContext* inner);

  std::unique_ptr<Conv2d> conv1_;
  std::unique_ptr<BatchNorm2d> bn1_;
  std::unique_ptr<Conv2d> conv2_;
  std::unique_ptr<BatchNorm2d> bn2_;
  std::unique_ptr<Conv2d> proj_conv_;   // nullable
  std::unique_ptr<BatchNorm2d> proj_bn_;  // nullable
  // Backward caches.
  Tensor cached_mid_pre_;   // pre-activation of inner ReLU
  Tensor cached_sum_pre_;   // pre-activation of final ReLU
};

}  // namespace bdlfi::nn
