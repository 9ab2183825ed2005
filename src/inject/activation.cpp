#include "inject/activation.h"

#include "bayes/fault_network.h"
#include "util/check.h"
#include "util/rng.h"

namespace bdlfi::inject {

std::vector<ActivationLayerPoint> run_activation_campaign(
    const nn::Network& golden, const tensor::Tensor& eval_inputs,
    const std::vector<std::int64_t>& eval_labels,
    const ActivationCampaignConfig& config) {
  BDLFI_CHECK(config.injections > 0);
  util::Rng rng{config.seed};
  std::vector<ActivationLayerPoint> points;

  // One fault network per site, alive only while its injections run: each
  // mask is drawn from and evaluated on the site's own injection space.
  const auto run_site = [&](const fault::TargetSpec& spec,
                            ActivationLayerPoint point) {
    bayes::BayesianFaultNetwork bfn(golden, spec, config.profile, eval_inputs,
                                    eval_labels);
    point.activation_numel = bfn.space().total_elements();
    for (std::size_t i = 0; i < config.injections; ++i) {
      const bayes::MaskOutcome outcome =
          bfn.evaluate_mask(bfn.sample_prior_mask(config.p, rng));
      point.mean_error += outcome.classification_error;
      point.mean_deviation += outcome.deviation;
      point.mean_detected += outcome.detected;
      point.mean_flips += static_cast<double>(outcome.flipped_bits);
    }
    const auto m = static_cast<double>(config.injections);
    point.mean_error /= m;
    point.mean_deviation /= m;
    point.mean_detected /= m;
    point.mean_flips /= m;
    points.push_back(std::move(point));
  };

  if (config.include_input) {
    ActivationLayerPoint point;
    point.layer_index = -1;
    point.layer_name = "(input)";
    point.layer_kind = "input";
    run_site(fault::TargetSpec::input_only(), std::move(point));
  }
  for (std::size_t layer = 0; layer < golden.num_layers(); ++layer) {
    ActivationLayerPoint point;
    point.layer_index = static_cast<std::int64_t>(layer);
    point.layer_name = golden.layer_name(layer);
    point.layer_kind = golden.layer_kind(layer);
    fault::TargetSpec spec = fault::TargetSpec::activations_only();
    spec.layer_names = {point.layer_name};
    run_site(spec, std::move(point));
  }
  return points;
}

}  // namespace bdlfi::inject
