#include "nn/resblock.h"

#include "tensor/ops.h"
#include "util/check.h"

namespace bdlfi::nn {

BasicBlock::BasicBlock(std::int64_t in_channels, std::int64_t out_channels,
                       std::int64_t stride)
    : conv1_(std::make_unique<Conv2d>(in_channels, out_channels, 3, stride)),
      bn1_(std::make_unique<BatchNorm2d>(out_channels)),
      conv2_(std::make_unique<Conv2d>(out_channels, out_channels, 3, 1)),
      bn2_(std::make_unique<BatchNorm2d>(out_channels)) {
  if (stride != 1 || in_channels != out_channels) {
    proj_conv_ = std::make_unique<Conv2d>(in_channels, out_channels, 1, stride,
                                          /*pad=*/0);
    proj_bn_ = std::make_unique<BatchNorm2d>(out_channels);
  }
}

void BasicBlock::init_he(util::Rng& rng) {
  conv1_->init_he(rng);
  conv2_->init_he(rng);
  if (proj_conv_) proj_conv_->init_he(rng);
}

void BasicBlock::set_inner_context(tensor::abft::OpContext* inner) {
  // The inner convs inherit the ABFT deployment (checksum coverage and its
  // counters) but not the flip list: compute-fault sites address top-level
  // layer outputs, and the block's output geometry is not its convs'.
  const tensor::abft::OpContext* sub = nullptr;
  if (inner != nullptr && compute_ctx_ != nullptr) {
    *inner = *compute_ctx_;
    inner->flips = nullptr;
    sub = inner;
  }
  conv1_->set_compute_context(sub);
  conv2_->set_compute_context(sub);
  if (proj_conv_) proj_conv_->set_compute_context(sub);
}

void basic_block_forward_into(Layer& conv1, Layer& bn1, Layer& conv2,
                              Layer& bn2, Layer* proj_conv, Layer* proj_bn,
                              const Tensor& in, Tensor& out, Workspace& ws) {
  const Shape mid_shape = conv1.output_shape(in.shape());
  const auto mid_n = static_cast<std::size_t>(mid_shape.numel());
  const std::size_t need =
      mid_n + (proj_conv ? static_cast<std::size_t>(out.numel()) : 0);
  // Grow-once, and only here: the views below outlive the sub-layer calls.
  if (ws.scratch.size() < need) ws.scratch.resize(need);
  Tensor mid = Tensor::view(mid_shape, ws.scratch.data());

  conv1.forward_into(in, mid, ws);
  bn1.forward_into(mid, mid, ws);
  tensor::relu_inplace(mid);
  conv2.forward_into(mid, out, ws);
  bn2.forward_into(out, out, ws);
  if (proj_conv) {
    Tensor shortcut = Tensor::view(out.shape(), ws.scratch.data() + mid_n);
    proj_conv->forward_into(in, shortcut, ws);
    proj_bn->forward_into(shortcut, shortcut, ws);
    tensor::add_inplace(out, shortcut);
  } else {
    tensor::add_inplace(out, in);
  }
  tensor::relu_inplace(out);
}

Shape BasicBlock::output_shape(const Shape& in) const {
  return conv2_->output_shape(conv1_->output_shape(in));
}

Tensor BasicBlock::forward_train(const Tensor& x) {
  tensor::abft::OpContext inner;
  set_inner_context(&inner);

  Tensor mid = bn1_->forward(conv1_->forward(x, true), true);
  cached_mid_pre_ = mid;
  tensor::relu_inplace(mid);
  Tensor out = bn2_->forward(conv2_->forward(mid, true), true);

  Tensor shortcut =
      proj_conv_ ? proj_bn_->forward(proj_conv_->forward(x, true), true) : x;
  tensor::add_inplace(out, shortcut);
  cached_sum_pre_ = out;
  tensor::relu_inplace(out);

  set_inner_context(nullptr);
  return out;
}

void BasicBlock::forward_into(const Tensor& in, Tensor& out, Workspace& ws) {
  tensor::abft::OpContext inner;
  set_inner_context(&inner);
  basic_block_forward_into(*conv1_, *bn1_, *conv2_, *bn2_, proj_conv_.get(),
                           proj_bn_.get(), in, out, ws);
  set_inner_context(nullptr);
}

Tensor BasicBlock::backward(const Tensor& grad_output) {
  BDLFI_CHECK_MSG(!cached_sum_pre_.empty(),
                  "BasicBlock::backward without training forward");
  Tensor dsum = grad_output;
  tensor::relu_backward_inplace(dsum, cached_sum_pre_);

  // Main branch: bn2 <- conv2 <- relu <- bn1 <- conv1.
  Tensor dmid = conv2_->backward(bn2_->backward(dsum));
  tensor::relu_backward_inplace(dmid, cached_mid_pre_);
  Tensor dx_main = conv1_->backward(bn1_->backward(dmid));

  // Shortcut branch.
  Tensor dx_short = proj_conv_
      ? proj_conv_->backward(proj_bn_->backward(dsum))
      : dsum;

  tensor::add_inplace(dx_main, dx_short);
  return dx_main;
}

void BasicBlock::collect_params(const std::string& prefix,
                                std::vector<ParamRef>& out) {
  conv1_->collect_params(prefix + "conv1.", out);
  bn1_->collect_params(prefix + "bn1.", out);
  conv2_->collect_params(prefix + "conv2.", out);
  bn2_->collect_params(prefix + "bn2.", out);
  if (proj_conv_) {
    proj_conv_->collect_params(prefix + "proj.", out);
    proj_bn_->collect_params(prefix + "proj_bn.", out);
  }
}

void BasicBlock::collect_buffers(const std::string& prefix,
                                 std::vector<ParamRef>& out) {
  bn1_->collect_buffers(prefix + "bn1.", out);
  bn2_->collect_buffers(prefix + "bn2.", out);
  if (proj_bn_) proj_bn_->collect_buffers(prefix + "proj_bn.", out);
}

void BasicBlock::zero_grad() {
  conv1_->zero_grad();
  bn1_->zero_grad();
  conv2_->zero_grad();
  bn2_->zero_grad();
  if (proj_conv_) {
    proj_conv_->zero_grad();
    proj_bn_->zero_grad();
  }
}

std::unique_ptr<Layer> BasicBlock::clone() const {
  // Reconstruct with matching topology, then overwrite sublayers with clones.
  auto copy = std::make_unique<BasicBlock>(conv1_->in_channels(),
                                           conv1_->out_channels(),
                                           conv1_->spec().stride);
  copy->conv1_.reset(static_cast<Conv2d*>(conv1_->clone().release()));
  copy->bn1_.reset(static_cast<BatchNorm2d*>(bn1_->clone().release()));
  copy->conv2_.reset(static_cast<Conv2d*>(conv2_->clone().release()));
  copy->bn2_.reset(static_cast<BatchNorm2d*>(bn2_->clone().release()));
  if (proj_conv_) {
    copy->proj_conv_.reset(
        static_cast<Conv2d*>(proj_conv_->clone().release()));
    copy->proj_bn_.reset(
        static_cast<BatchNorm2d*>(proj_bn_->clone().release()));
  }
  return copy;
}

}  // namespace bdlfi::nn
