// Quantized layers: drop-in nn::Layer implementations whose weights live as
// int8 codes (the accelerator's fault surface) and are dequantized on the fly
// for the float compute path. Biases stay float (they typically live in
// wider accumulator registers on real accelerators).
//
// Because these are ordinary nn::Layer subclasses, the whole existing stack —
// Network, cloning, checkpoints of float params, activation hooks, campaign
// plumbing — works unchanged. The int8 codes are reported by collect_codes,
// so fault::InjectionSpace addresses them as kCode sites (8 live bits per
// word) and bayes::BayesianFaultNetwork runs every campaign kind on them.
#pragma once

#include "nn/layer.h"
#include "quant/quantize.h"
#include "tensor/ops.h"

namespace bdlfi::quant {

using nn::Layer;
using nn::ParamRef;
using tensor::Shape;
using tensor::Tensor;

/// Dense layer with int8 weights: y = x · dequant(Wq)^T + b.
class QuantDense : public Layer {
 public:
  /// Quantizes the given float weights. Per-tensor symmetric calibration by
  /// default; per_channel = true calibrates one scale per output row, which
  /// markedly tightens the round-trip error when rows differ in magnitude.
  QuantDense(const Tensor& weight, const Tensor& bias,
             bool per_channel = false);

  std::string kind() const override { return "qdense"; }
  Shape output_shape(const Shape& in) const override;
  void forward_into(const Tensor& in, Tensor& out,
                    nn::Workspace& ws) override;
  Tensor backward(const Tensor& grad_output) override;
  std::unique_ptr<Layer> clone() const override;

  void collect_codes(const std::string& prefix,
                     std::vector<nn::CodeRef>& out) override;

  /// Scale of output channel `c` (channel 0 in per-tensor mode).
  const QuantParams& weight_params(std::int64_t c = 0) const {
    return channel_params_.at(
        static_cast<std::size_t>(per_channel_ ? c : 0));
  }
  bool per_channel() const { return per_channel_; }
  /// Current (possibly fault-corrupted) dequantized weights.
  Tensor dequantized_weight() const;

 private:
  std::int64_t in_, out_;
  bool per_channel_;
  std::vector<std::int8_t> weight_codes_;  // [out, in] row-major
  std::vector<QuantParams> channel_params_;  // 1 entry per-tensor mode
  Tensor bias_;  // float, may be empty
};

/// Conv2d with int8 weights (OIHW codes); per_channel scales per output
/// channel (the OIHW 'O' axis).
class QuantConv2d : public Layer {
 public:
  QuantConv2d(const Tensor& weight, const Tensor& bias,
              const tensor::Conv2dSpec& spec, bool per_channel = false);

  std::string kind() const override { return "qconv"; }
  Shape output_shape(const Shape& in) const override;
  void forward_into(const Tensor& in, Tensor& out,
                    nn::Workspace& ws) override;
  Tensor backward(const Tensor& grad_output) override;
  std::unique_ptr<Layer> clone() const override;

  void collect_codes(const std::string& prefix,
                     std::vector<nn::CodeRef>& out) override;

  const QuantParams& weight_params(std::int64_t c = 0) const {
    return channel_params_.at(
        static_cast<std::size_t>(per_channel_ ? c : 0));
  }
  bool per_channel() const { return per_channel_; }
  Tensor dequantized_weight() const;

 private:
  Shape weight_shape_;
  tensor::Conv2dSpec spec_;
  bool per_channel_;
  std::vector<std::int8_t> weight_codes_;
  std::vector<QuantParams> channel_params_;
  Tensor bias_;
};

/// Inference-only quantized ResNet basic block: the float BasicBlock's
/// topology with QuantConv2d convolutions and cloned (float) BatchNorms.
class QuantBasicBlock : public Layer {
 public:
  QuantBasicBlock(std::unique_ptr<QuantConv2d> conv1,
                  std::unique_ptr<Layer> bn1,
                  std::unique_ptr<QuantConv2d> conv2,
                  std::unique_ptr<Layer> bn2,
                  std::unique_ptr<QuantConv2d> proj_conv,  // nullable
                  std::unique_ptr<Layer> proj_bn);         // nullable

  std::string kind() const override { return "qblock"; }
  Shape output_shape(const Shape& in) const override;
  /// nn::basic_block_forward_into over the quantized convs and float BNs.
  void forward_into(const Tensor& in, Tensor& out,
                    nn::Workspace& ws) override;
  Tensor backward(const Tensor& grad_output) override;
  std::unique_ptr<Layer> clone() const override;

  void collect_codes(const std::string& prefix,
                     std::vector<nn::CodeRef>& out) override;

 private:
  std::unique_ptr<QuantConv2d> conv1_, conv2_, proj_conv_;
  std::unique_ptr<Layer> bn1_, bn2_, proj_bn_;
};

}  // namespace bdlfi::quant
