#include "quant/layers.h"

#include "nn/resblock.h"
#include "util/check.h"

namespace bdlfi::quant {

namespace {

// Quantizes `rows` channel-blocks of `block` values each; one scale per
// block in per-channel mode, one global scale otherwise.
void quantize_blocks(std::span<const float> values, std::int64_t rows,
                     std::int64_t block, bool per_channel,
                     std::vector<std::int8_t>& codes,
                     std::vector<QuantParams>& params) {
  codes.resize(values.size());
  if (!per_channel) {
    params = {calibrate_symmetric(values)};
    for (std::size_t i = 0; i < values.size(); ++i) {
      codes[i] = quantize_value(values[i], params[0]);
    }
    return;
  }
  params.resize(static_cast<std::size_t>(rows));
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::span<const float> row = values.subspan(
        static_cast<std::size_t>(r * block), static_cast<std::size_t>(block));
    auto& p = params[static_cast<std::size_t>(r)];
    p = calibrate_symmetric(row);
    for (std::int64_t i = 0; i < block; ++i) {
      codes[static_cast<std::size_t>(r * block + i)] =
          quantize_value(row[static_cast<std::size_t>(i)], p);
    }
  }
}

void dequantize_blocks(std::span<const std::int8_t> codes, std::int64_t rows,
                       std::int64_t block, bool per_channel,
                       const std::vector<QuantParams>& params,
                       std::span<float> out) {
  if (!per_channel) {
    dequantize_buffer(codes, params[0], out);
    return;
  }
  for (std::int64_t r = 0; r < rows; ++r) {
    const auto& p = params[static_cast<std::size_t>(r)];
    for (std::int64_t i = 0; i < block; ++i) {
      const auto idx = static_cast<std::size_t>(r * block + i);
      out[idx] = dequantize_value(codes[idx], p);
    }
  }
}

}  // namespace

// --- QuantDense ----------------------------------------------------------------

QuantDense::QuantDense(const Tensor& weight, const Tensor& bias,
                       bool per_channel)
    : in_(weight.shape()[1]),
      out_(weight.shape()[0]),
      per_channel_(per_channel),
      bias_(bias) {
  BDLFI_CHECK(weight.shape().rank() == 2);
  quantize_blocks(weight.flat(), out_, in_, per_channel_, weight_codes_,
                  channel_params_);
}

Tensor QuantDense::dequantized_weight() const {
  Tensor w{Shape{out_, in_}};
  dequantize_blocks(weight_codes_, out_, in_, per_channel_, channel_params_,
                    w.flat());
  return w;
}

Shape QuantDense::output_shape(const Shape& in) const {
  BDLFI_CHECK(in.rank() == 2 && in[1] == in_);
  return Shape{in[0], out_};
}

void QuantDense::forward_into(const Tensor& in, Tensor& out,
                              nn::Workspace& /*ws*/) {
  BDLFI_CHECK(out.shape() == output_shape(in.shape()));
  BDLFI_CHECK(out.data() != in.data());
  const std::int64_t n = in.shape()[0];
  const Tensor w = dequantized_weight();
  tensor::gemm(false, true, n, out_, in_, 1.0f, in.data(), in_, w.data(), in_,
               0.0f, out.data(), out_);
  if (!bias_.empty()) tensor::bias_add_rows(out, bias_);
}

Tensor QuantDense::backward(const Tensor& /*grad_output*/) {
  BDLFI_CHECK_MSG(false, "quantized layers are inference-only");
  return {};
}

std::unique_ptr<Layer> QuantDense::clone() const {
  auto copy =
      std::make_unique<QuantDense>(dequantized_weight(), bias_, per_channel_);
  // Copy codes verbatim so corrupted replicas stay bit-identical.
  copy->weight_codes_ = weight_codes_;
  copy->channel_params_ = channel_params_;
  return copy;
}

void QuantDense::collect_codes(const std::string& prefix,
                               std::vector<nn::CodeRef>& out) {
  out.push_back({prefix + "weight_q", weight_codes_.data(),
                 static_cast<std::int64_t>(weight_codes_.size())});
}

// --- QuantConv2d ----------------------------------------------------------------

QuantConv2d::QuantConv2d(const Tensor& weight, const Tensor& bias,
                         const tensor::Conv2dSpec& spec, bool per_channel)
    : weight_shape_(weight.shape()),
      spec_(spec),
      per_channel_(per_channel),
      bias_(bias) {
  BDLFI_CHECK(weight.shape().rank() == 4);
  const std::int64_t out_ch = weight_shape_[0];
  const std::int64_t block = weight.numel() / out_ch;
  quantize_blocks(weight.flat(), out_ch, block, per_channel_, weight_codes_,
                  channel_params_);
}

Tensor QuantConv2d::dequantized_weight() const {
  Tensor w{weight_shape_};
  const std::int64_t out_ch = weight_shape_[0];
  dequantize_blocks(weight_codes_, out_ch, w.numel() / out_ch, per_channel_,
                    channel_params_, w.flat());
  return w;
}

Shape QuantConv2d::output_shape(const Shape& in) const {
  BDLFI_CHECK(in.rank() == 4 && in[1] == weight_shape_[1]);
  return Shape{in[0], weight_shape_[0], spec_.out_h(in[2]),
               spec_.out_w(in[3])};
}

void QuantConv2d::forward_into(const Tensor& in, Tensor& out,
                               nn::Workspace& /*ws*/) {
  tensor::conv2d_forward_into(in, dequantized_weight(), bias_, spec_,
                              tensor::abft::OpContext{}, out);
}

Tensor QuantConv2d::backward(const Tensor& /*grad_output*/) {
  BDLFI_CHECK_MSG(false, "quantized layers are inference-only");
  return {};
}

std::unique_ptr<Layer> QuantConv2d::clone() const {
  auto copy = std::make_unique<QuantConv2d>(dequantized_weight(), bias_,
                                            spec_, per_channel_);
  copy->weight_codes_ = weight_codes_;
  copy->channel_params_ = channel_params_;
  return copy;
}

void QuantConv2d::collect_codes(const std::string& prefix,
                                std::vector<nn::CodeRef>& out) {
  out.push_back({prefix + "weight_q", weight_codes_.data(),
                 static_cast<std::int64_t>(weight_codes_.size())});
}

// --- QuantBasicBlock -------------------------------------------------------------

QuantBasicBlock::QuantBasicBlock(std::unique_ptr<QuantConv2d> conv1,
                                 std::unique_ptr<Layer> bn1,
                                 std::unique_ptr<QuantConv2d> conv2,
                                 std::unique_ptr<Layer> bn2,
                                 std::unique_ptr<QuantConv2d> proj_conv,
                                 std::unique_ptr<Layer> proj_bn)
    : conv1_(std::move(conv1)),
      conv2_(std::move(conv2)),
      proj_conv_(std::move(proj_conv)),
      bn1_(std::move(bn1)),
      bn2_(std::move(bn2)),
      proj_bn_(std::move(proj_bn)) {
  BDLFI_CHECK(conv1_ && bn1_ && conv2_ && bn2_);
  BDLFI_CHECK((proj_conv_ == nullptr) == (proj_bn_ == nullptr));
}

Shape QuantBasicBlock::output_shape(const Shape& in) const {
  return conv2_->output_shape(conv1_->output_shape(in));
}

void QuantBasicBlock::forward_into(const Tensor& in, Tensor& out,
                                   nn::Workspace& ws) {
  nn::basic_block_forward_into(*conv1_, *bn1_, *conv2_, *bn2_,
                               proj_conv_.get(), proj_bn_.get(), in, out, ws);
}

Tensor QuantBasicBlock::backward(const Tensor& /*grad_output*/) {
  BDLFI_CHECK_MSG(false, "quantized layers are inference-only");
  return {};
}

std::unique_ptr<Layer> QuantBasicBlock::clone() const {
  auto clone_qconv = [](const QuantConv2d* conv) {
    return conv ? std::unique_ptr<QuantConv2d>(
                      static_cast<QuantConv2d*>(conv->clone().release()))
                : nullptr;
  };
  return std::make_unique<QuantBasicBlock>(
      clone_qconv(conv1_.get()), bn1_->clone(), clone_qconv(conv2_.get()),
      bn2_->clone(), clone_qconv(proj_conv_.get()),
      proj_bn_ ? proj_bn_->clone() : nullptr);
}

void QuantBasicBlock::collect_codes(const std::string& prefix,
                                    std::vector<nn::CodeRef>& out) {
  conv1_->collect_codes(prefix + "conv1.", out);
  conv2_->collect_codes(prefix + "conv2.", out);
  if (proj_conv_) proj_conv_->collect_codes(prefix + "proj.", out);
}

}  // namespace bdlfi::quant
