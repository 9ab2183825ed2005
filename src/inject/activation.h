// Activation-fault campaigns.
//
// §II's fault model covers "memory units for storing NN parameters, inputs,
// intermediate activations and outputs". Parameter faults persist across an
// inference; activation faults are transient values corrupted in flight.
// This campaign injects Bernoulli bit flips into the network input and then
// into the output activation of one layer at a time, and measures the effect
// at the network output. Each target is the input or activation fault site
// of a bayes::BayesianFaultNetwork: masks are drawn from that site's
// injection space and evaluated by evaluate_mask, which replays the network
// from the golden activation cache — no ptrace-style system support required
// (§I challenge 2), and no hook of the campaign's own.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/avf.h"
#include "fault/space.h"
#include "nn/network.h"

namespace bdlfi::inject {

struct ActivationCampaignConfig {
  fault::AvfProfile profile = fault::AvfProfile::uniform();
  /// Per-bit flip probability applied to the targeted activation tensor.
  double p = 1e-4;
  /// Concrete injections (forward passes) per layer.
  std::size_t injections = 100;
  std::uint64_t seed = 1;
  /// Also corrupt the network *input* tensor as pseudo-layer -1.
  bool include_input = true;
};

struct ActivationLayerPoint {
  /// -1 denotes the network input; otherwise the index of the layer whose
  /// output activation was corrupted.
  std::int64_t layer_index = 0;
  std::string layer_name;
  std::string layer_kind;
  std::int64_t activation_numel = 0;  // per forward pass (batch included)
  // Means over injections of the per-injection MaskOutcome rates.
  double mean_error = 0.0;            // %
  double mean_deviation = 0.0;        // % vs golden predictions
  double mean_detected = 0.0;         // % NaN/Inf at the output
  double mean_flips = 0.0;            // flipped bits per injection
};

/// Runs the per-layer activation campaign on clones of `golden` (one fault
/// network per target, built in turn: input first, then layers 0..n-1).
std::vector<ActivationLayerPoint> run_activation_campaign(
    const nn::Network& golden, const tensor::Tensor& eval_inputs,
    const std::vector<std::int64_t>& eval_labels,
    const ActivationCampaignConfig& config);

}  // namespace bdlfi::inject
