// Campaign orchestration: the experiment-level API the benches and examples
// drive. A campaign binds a trained golden network + evaluation set to a
// fault model and produces the series the paper plots.
#pragma once

#include <string>
#include <vector>

#include "bayes/fault_network.h"
#include "mcmc/runner.h"

namespace bdlfi::inject {

using bayes::AvfProfile;
using bayes::BayesianFaultNetwork;
using bayes::TargetSpec;

/// Mixing/eval statistics shared by every campaign point kind. Extracted
/// from the previously duplicated SweepPoint/LayerPoint fields so the fig
/// printers and check_json see one schema.
struct PointStats {
  /// Mean MH acceptance rate across the point's chains — the mixing health
  /// the paper's completeness argument rests on.
  double acceptance_rate = 0.0;
  double rhat = 0.0;
  double ess = 0.0;
  std::size_t samples = 0;
  std::size_t network_evals = 0;
  // Truncated-replay observability: evals resumed from the activation cache
  // vs full forwards, and the % of layer executions that cache skipped.
  std::size_t full_evals = 0;
  std::size_t truncated_evals = 0;
  double layers_saved_pct = 0.0;
  // Fault-outcome taxonomy pooled over the point's retained samples
  // (see bayes::FaultOutcome): how often the fault was masked, silently
  // corrupted the output, was flagged as an unrecoverable DUE, or was
  // repaired by ABFT recovery — plus the two derived headline rates.
  std::size_t outcome_masked = 0;
  std::size_t outcome_sdc = 0;
  std::size_t outcome_detected = 0;
  std::size_t outcome_corrected = 0;
  double detection_coverage = 0.0;
  double sdc_rate = 0.0;
  /// Graceful degradation: chains the supervisor quarantined at this point;
  /// the point's statistics cover the survivors only.
  std::size_t chains_quarantined = 0;
  bool degraded = false;

  /// Fills every field from the pooled campaign result.
  void from_campaign(const mcmc::CampaignResult& result);
};

/// One point of a Fig. 2 / Fig. 4 style sweep.
struct SweepPoint {
  double p = 0.0;
  double mean_error = 0.0;    // %
  double stddev_error = 0.0;
  double q05 = 0.0, q50 = 0.0, q95 = 0.0;
  double mean_deviation = 0.0;
  double mean_flips = 0.0;
  PointStats stats;
};

struct SweepResult {
  double golden_error = 0.0;  // the figure's "Golden Run" reference line
  std::vector<SweepPoint> points;
  /// An interrupt stopped the sweep: `points` is a valid prefix of the grid.
  bool interrupted = false;
};

/// Log-spaced grid of `count` probabilities in [lo, hi]. Degenerate requests
/// get graceful answers instead of NaN grid points: count == 0 -> empty,
/// count == 1 or lo == hi -> {lo}. Non-positive or inverted bounds are a
/// programming error and still fail hard.
std::vector<double> log_space(double lo, double hi, std::size_t count);

/// BDLFI sweep over flip probabilities using prior-target MCMC chains.
SweepResult run_bdlfi_sweep(const BayesianFaultNetwork& golden,
                            const std::vector<double>& ps,
                            const mcmc::RunnerConfig& runner);

/// One entry of a Fig. 3 style layer-sensitivity campaign.
struct LayerPoint {
  std::size_t layer_index = 0;
  std::string layer_name;
  std::string layer_kind;
  std::int64_t layer_params = 0;
  double mean_error = 0.0;
  double q05 = 0.0, q95 = 0.0;
  double mean_deviation = 0.0;
  /// Shared mixing/eval statistics; layers_saved_pct here is ≈ the depth
  /// fraction above the injected layer that truncated replay skipped.
  PointStats stats;
  /// Equivalent full-network evaluations saved by the activation cache.
  double evals_saved = 0.0;
};

/// Injects faults into exactly one layer's parameters at a time and measures
/// the output error — the paper's depth-vs-error experiment (Fig. 3).
/// Layers with no parameters are skipped. An interrupt
/// (util::interrupt_requested) stops the campaign after the last finished
/// layer: the result is a valid prefix.
///
/// Two fault-dosage modes:
///  * expected_flips <= 0 — fixed per-bit rate: every layer's bits flip at
///    rate p, so large layers receive proportionally more faults (the raw
///    memory-fault model of §II).
///  * expected_flips > 0 — fixed dose: each layer's p is rescaled so the
///    expected number of flipped bits per injection equals expected_flips
///    regardless of layer size. expected_flips = 1 reproduces the
///    single-bit-flip protocol of the traditional per-layer FI studies
///    (Li et al. [1], TensorFI [4]) whose depth claim Fig. 3 challenges.
std::vector<LayerPoint> run_layer_campaign(
    const nn::Network& golden, const tensor::Tensor& eval_inputs,
    const std::vector<std::int64_t>& eval_labels, const AvfProfile& profile,
    double p, const mcmc::RunnerConfig& runner, double expected_flips = 0.0);

}  // namespace bdlfi::inject
