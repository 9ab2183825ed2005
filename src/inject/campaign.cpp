#include "inject/campaign.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/log.h"

namespace bdlfi::inject {

void PointStats::from_campaign(const mcmc::CampaignResult& result) {
  acceptance_rate = result.mean_acceptance;
  rhat = result.diagnostics.rhat;
  ess = result.diagnostics.ess;
  samples = result.total_samples;
  network_evals = result.total_network_evals;
  full_evals = result.total_full_evals;
  truncated_evals = result.total_truncated_evals;
  layers_saved_pct = result.layers_saved_pct();
  outcome_masked = result.total_outcome_masked;
  outcome_sdc = result.total_outcome_sdc;
  outcome_detected = result.total_outcome_detected;
  outcome_corrected = result.total_outcome_corrected;
  detection_coverage = result.detection_coverage();
  sdc_rate = result.sdc_rate();
  chains_quarantined = result.chains_quarantined;
  degraded = result.degraded;
}

std::vector<double> log_space(double lo, double hi, std::size_t count) {
  BDLFI_CHECK_MSG(lo > 0.0 && hi >= lo,
                  "log_space requires 0 < lo <= hi");
  if (count == 0) return {};
  // A single point (or a collapsed range) has no spacing to compute; the
  // old count-1 division would emit NaN grid points here.
  if (count == 1 || lo == hi) return std::vector<double>(count, lo);
  std::vector<double> out;
  out.reserve(count);
  const double llo = std::log10(lo), lhi = std::log10(hi);
  for (std::size_t i = 0; i < count; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(count - 1);
    out.push_back(std::pow(10.0, llo + t * (lhi - llo)));
  }
  return out;
}

SweepResult run_bdlfi_sweep(const BayesianFaultNetwork& golden,
                            const std::vector<double>& ps,
                            const mcmc::RunnerConfig& runner) {
  SweepResult result;
  result.golden_error = golden.golden_error();
  for (double p : ps) {
    mcmc::TargetFactory factory = [p](BayesianFaultNetwork& net) {
      return std::make_unique<bayes::PriorTarget>(net, p);
    };
    const mcmc::CampaignResult campaign =
        mcmc::run_chains(golden, factory, p, runner);
    if (campaign.interrupted) {
      // The point pools partial chains: stop at the clean prefix of finished
      // points rather than report it, or sample the remaining grid with a
      // doomed budget.
      result.interrupted = true;
      break;
    }
    SweepPoint point;
    point.p = p;
    point.mean_error = campaign.mean_error;
    point.stddev_error = campaign.stddev_error;
    point.q05 = campaign.q05;
    point.q50 = campaign.q50;
    point.q95 = campaign.q95;
    point.mean_deviation = campaign.mean_deviation;
    point.mean_flips = campaign.mean_flips;
    point.stats.from_campaign(campaign);
    result.points.push_back(point);
    if (campaign.degraded) {
      BDLFI_LOG_WARN("sweep p=%.2e degraded: %zu chain(s) quarantined", p,
                     campaign.chains_quarantined);
    }
    BDLFI_LOG_DEBUG("sweep p=%.2e: error=%.2f%% (golden %.2f%%), rhat=%.3f",
                    p, point.mean_error, result.golden_error,
                    point.stats.rhat);
  }
  return result;
}

std::vector<LayerPoint> run_layer_campaign(
    const nn::Network& golden, const tensor::Tensor& eval_inputs,
    const std::vector<std::int64_t>& eval_labels, const AvfProfile& profile,
    double p, const mcmc::RunnerConfig& runner, double expected_flips) {
  // A mutable copy to enumerate parameterized layers; the per-layer
  // BayesianFaultNetwork instances clone again internally.
  nn::Network net = golden.clone();
  std::vector<LayerPoint> points;
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    std::vector<nn::ParamRef> refs;
    net.layer(i).collect_params(net.layer_name(i) + ".", refs);
    if (refs.empty()) continue;  // relu/pool/flatten: nothing to corrupt

    std::int64_t layer_params = 0;
    for (const auto& r : refs) layer_params += r.value->numel();

    // Fixed-dose mode: rescale p so E[#flips] is layer-size independent
    // (expected flips per word × #words = expected_flips).
    double layer_p = p;
    if (expected_flips > 0.0) {
      const double bits_factor =
          profile.expected_flips_per_word(1.0) * static_cast<double>(layer_params);
      layer_p = std::min(0.4, expected_flips / std::max(1.0, bits_factor));
    }

    BayesianFaultNetwork bfn(net, TargetSpec::single_layer(net.layer_name(i)),
                             profile, eval_inputs, eval_labels);
    mcmc::TargetFactory factory = [layer_p](BayesianFaultNetwork& chain_net) {
      return std::make_unique<bayes::PriorTarget>(chain_net, layer_p);
    };
    const mcmc::CampaignResult campaign =
        mcmc::run_chains(bfn, factory, layer_p, runner);
    if (campaign.interrupted) break;  // partial chains: not a finished point

    LayerPoint point;
    point.layer_index = i;
    point.layer_name = net.layer_name(i);
    point.layer_kind = net.layer_kind(i);
    point.layer_params = layer_params;
    point.mean_error = campaign.mean_error;
    point.q05 = campaign.q05;
    point.q95 = campaign.q95;
    point.mean_deviation = campaign.mean_deviation;
    point.stats.from_campaign(campaign);
    // Layer executions skipped, expressed in whole-network forward passes:
    // the currency the Fig. 3 benches budget in.
    const double depth = static_cast<double>(net.num_layers());
    point.evals_saved =
        depth == 0.0
            ? 0.0
            : static_cast<double>(campaign.total_layers_total -
                                  campaign.total_layers_run) /
                  depth;
    points.push_back(point);
    if (campaign.degraded) {
      BDLFI_LOG_WARN("layer %zu (%s) degraded: %zu chain(s) quarantined", i,
                     point.layer_name.c_str(), campaign.chains_quarantined);
    }
    BDLFI_LOG_DEBUG("layer %zu (%s): error=%.2f%%", i,
                    point.layer_name.c_str(), point.mean_error);
    BDLFI_LOG_INFO(
        "layer %zu (%s) stats: %zu evals (%zu truncated, %zu full), "
        "%.1f%% layer executions skipped, ~%.1f network evals saved",
        i, point.layer_name.c_str(), point.stats.network_evals,
        point.stats.truncated_evals, point.stats.full_evals,
        point.stats.layers_saved_pct, point.evals_saved);
  }
  return points;
}

}  // namespace bdlfi::inject
