// Dropout layer with Monte-Carlo inference support.
//
// The paper grounds BDLFI in Bayesian Deep Learning via Gal's work (ref [2]),
// whose flagship practical construction is MC-Dropout: dropout kept active at
// inference time approximates sampling from the posterior over weights, so
// the spread of repeated stochastic forward passes measures *epistemic*
// (model) uncertainty. BDLFI measures *fault-induced* uncertainty with the
// same predictive machinery; having both in one library lets campaigns
// separate "the model was unsure" from "the hardware broke it"
// (examples/uncertainty.cpp).
#pragma once

#include "nn/layer.h"
#include "nn/network.h"

namespace bdlfi::nn {

class Dropout : public Layer {
 public:
  /// `rate` is the drop probability in [0, 1). Inverted-dropout scaling keeps
  /// activation magnitudes unchanged in expectation.
  explicit Dropout(double rate, std::uint64_t seed = 0x5eed);

  std::string kind() const override { return "dropout"; }

  Shape output_shape(const Shape& in) const override { return in; }
  /// Eval mode: identity — unless mc_mode(true) was set, in which case the
  /// layer keeps sampling (MC-Dropout predictive sampling), drawing from its
  /// RNG once per element per call.
  void forward_into(const Tensor& in, Tensor& out, Workspace& ws) override;
  bool inplace_capable() const override { return true; }
  Tensor backward(const Tensor& grad_output) override;
  std::unique_ptr<Layer> clone() const override;

  /// Enables/disables sampling during eval-mode forwards (MC-Dropout).
  void set_mc_mode(bool enabled) { mc_mode_ = enabled; }
  bool mc_mode() const { return mc_mode_; }
  double rate() const { return rate_; }

  /// Reseeds the layer's private RNG stream (per-replica decorrelation).
  void reseed(std::uint64_t seed) { rng_.reseed(seed); }

 protected:
  /// Training mode: stochastic mask + 1/(1-rate) scaling.
  Tensor forward_train(const Tensor& x) override;

 private:
  double rate_;
  bool mc_mode_ = false;
  util::Rng rng_;
  Tensor cached_mask_;  // scaled keep mask used by backward
};

/// Walks a network and toggles MC mode on every Dropout layer; returns the
/// number of dropout layers found.
std::size_t set_mc_dropout(Network& net, bool enabled);

/// MC-Dropout predictive: runs `passes` stochastic forwards and returns the
/// per-sample class-vote entropy (nats) — the epistemic-uncertainty score —
/// together with the majority-vote predictions.
struct McDropoutResult {
  std::vector<std::int64_t> predictions;  // majority vote per sample
  std::vector<double> vote_entropy;       // 0 = all passes agree
};
McDropoutResult mc_dropout_predict(Network& net, const Tensor& inputs,
                                   std::size_t passes);

}  // namespace bdlfi::nn
