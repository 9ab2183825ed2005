// Batch normalization over the channel axis of NCHW tensors.
//
// Training mode normalizes with batch statistics and maintains running
// moments; eval mode (the mode all fault-injection forward passes use)
// normalizes with the frozen running moments, making the layer a per-channel
// affine map — exactly the behaviour of a deployed ResNet whose BN has been
// folded at inference time.
#pragma once

#include "nn/layer.h"

namespace bdlfi::nn {

class BatchNorm2d : public Layer {
 public:
  explicit BatchNorm2d(std::int64_t channels, float eps = 1e-5f,
                       float momentum = 0.1f);

  std::string kind() const override { return "bn"; }
  Shape output_shape(const Shape& in) const override { return in; }
  void forward_into(const Tensor& in, Tensor& out, Workspace& ws) override;
  bool inplace_capable() const override { return true; }
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(const std::string& prefix,
                      std::vector<ParamRef>& out) override;
  void collect_buffers(const std::string& prefix,
                       std::vector<ParamRef>& out) override;
  void zero_grad() override;
  std::unique_ptr<Layer> clone() const override;

  std::int64_t channels() const { return channels_; }
  Tensor& running_mean() { return running_mean_; }
  Tensor& running_var() { return running_var_; }

 protected:
  /// Batch statistics: normalizes with them and updates the running moments.
  Tensor forward_train(const Tensor& x) override;

 private:
  std::int64_t channels_;
  float eps_, momentum_;
  Tensor gamma_, beta_;
  Tensor grad_gamma_, grad_beta_;
  Tensor running_mean_, running_var_;
  // Backward caches (training mode only).
  Tensor cached_xhat_;
  Tensor cached_inv_std_;  // [C]
};

}  // namespace bdlfi::nn
