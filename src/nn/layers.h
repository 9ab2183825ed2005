// Stateless and dense layers: Dense (fully connected), ReLU, Flatten,
// MaxPool2d, GlobalAvgPool. Conv2d and BatchNorm2d live in their own files.
#pragma once

#include "nn/layer.h"

namespace bdlfi::nn {

/// Fully connected layer: y = x W^T + b, weight stored [out, in] so each
/// output neuron's fan-in is one contiguous row (the Fig-1 "W" of the paper).
class Dense : public Layer {
 public:
  Dense(std::int64_t in_features, std::int64_t out_features, bool bias = true);

  std::string kind() const override { return "dense"; }
  Shape output_shape(const Shape& in) const override;
  void forward_into(const Tensor& in, Tensor& out, Workspace& ws) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(const std::string& prefix,
                      std::vector<ParamRef>& out) override;
  void zero_grad() override;
  std::unique_ptr<Layer> clone() const override;

  /// He-normal initialization (appropriate for the ReLU nets in the paper).
  void init_he(util::Rng& rng);

  std::int64_t in_features() const { return in_; }
  std::int64_t out_features() const { return out_; }
  Tensor& weight() { return weight_; }
  Tensor& bias() { return bias_; }

 protected:
  Tensor forward_train(const Tensor& x) override;

 private:
  std::int64_t in_, out_;
  bool has_bias_;
  Tensor weight_, bias_;
  Tensor grad_weight_, grad_bias_;
  Tensor cached_input_;
};

/// Elementwise max(0, x).
class ReLU : public Layer {
 public:
  std::string kind() const override { return "relu"; }
  Shape output_shape(const Shape& in) const override { return in; }
  void forward_into(const Tensor& in, Tensor& out, Workspace& ws) override;
  bool inplace_capable() const override { return true; }
  Tensor backward(const Tensor& grad_output) override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<ReLU>();
  }

 protected:
  Tensor forward_train(const Tensor& x) override;

 private:
  Tensor cached_pre_;
};

/// [N, C, H, W] → [N, C*H*W].
class Flatten : public Layer {
 public:
  std::string kind() const override { return "flatten"; }
  Shape output_shape(const Shape& in) const override;
  void forward_into(const Tensor& in, Tensor& out, Workspace& ws) override;
  bool inplace_capable() const override { return true; }
  Tensor backward(const Tensor& grad_output) override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Flatten>();
  }

 protected:
  Tensor forward_train(const Tensor& x) override;

 private:
  Shape cached_shape_;
};

/// k×k max pooling with stride k.
class MaxPool2d : public Layer {
 public:
  explicit MaxPool2d(std::int64_t kernel) : kernel_(kernel) {}
  std::string kind() const override { return "maxpool"; }
  std::int64_t kernel() const { return kernel_; }
  Shape output_shape(const Shape& in) const override;
  void forward_into(const Tensor& in, Tensor& out, Workspace& ws) override;
  Tensor backward(const Tensor& grad_output) override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<MaxPool2d>(kernel_);
  }

 protected:
  Tensor forward_train(const Tensor& x) override;

 private:
  std::int64_t kernel_;
  Shape cached_shape_;
  std::vector<std::int64_t> argmax_;
};

/// [N, C, H, W] → [N, C] spatial mean (ResNet head).
class GlobalAvgPool : public Layer {
 public:
  std::string kind() const override { return "avgpool"; }
  Shape output_shape(const Shape& in) const override;
  void forward_into(const Tensor& in, Tensor& out, Workspace& ws) override;
  Tensor backward(const Tensor& grad_output) override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<GlobalAvgPool>();
  }

 protected:
  Tensor forward_train(const Tensor& x) override;

 private:
  Shape cached_shape_;
};

}  // namespace bdlfi::nn
