#include "mcmc/gibbs.h"

#include <cmath>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/interrupt.h"

namespace bdlfi::mcmc {

namespace {

struct GibbsMetrics {
  obs::Counter& sweeps =
      obs::MetricsRegistry::global().counter("mcmc.gibbs_sweeps");
  obs::Counter& toggles =
      obs::MetricsRegistry::global().counter("mcmc.gibbs_toggles");
  static GibbsMetrics& get() {
    static GibbsMetrics m;
    return m;
  }
};

}  // namespace

GibbsSampler::GibbsSampler(bayes::BayesianFaultNetwork& net,
                           bayes::MaskTarget& target, double p,
                           const GibbsConfig& config)
    : net_(net), target_(target), p_(p), config_(config) {
  BDLFI_CHECK(p > 0.0 && p < 1.0);
  BDLFI_CHECK(config.samples > 0 && config.coordinates_per_sweep > 0);
}

void GibbsSampler::sweep(FaultMask& current, double& current_logd,
                         util::Rng& rng) {
  const std::int64_t total_bits = net_.space().total_bits();
  const bool watchdog = config_.round_timeout_ms > 0.0;
  for (std::size_t i = 0; i < config_.coordinates_per_sweep; ++i) {
    if (watchdog && watch_.millis() > config_.round_timeout_ms) {
      timed_out_ = true;
      return;
    }
    const auto flat = static_cast<std::int64_t>(
        rng.below(static_cast<std::uint64_t>(total_bits)));
    const auto analytic = target_.analytic_toggle_delta(current, flat);
    double toggle_delta;
    if (analytic.has_value()) {
      toggle_delta = *analytic;
    } else {
      FaultMask toggled = current;
      toggled.toggle(flat);
      const double other = target_.log_density(toggled);
      ++network_evals_;
      toggle_delta = other - current_logd;
    }
    if (std::isnan(toggle_delta)) diverged_ = true;
    // Conditional probability of the *toggled* state:
    //   P(toggled) = exp(Δ) / (1 + exp(Δ)) — a logistic draw.
    const double prob_toggle = 1.0 / (1.0 + std::exp(-toggle_delta));
    if (rng.bernoulli(prob_toggle)) {
      current.toggle(flat);
      current_logd += toggle_delta;
      if (obs::enabled()) GibbsMetrics::get().toggles.add();
    }
  }
  if (obs::enabled()) GibbsMetrics::get().sweeps.add();
}

ChainResult GibbsSampler::run() {
  const bayes::EvalStats stats_base = net_.eval_stats();
  watch_.reset();
  util::Rng rng{config_.seed};
  FaultMask current;
  if (config_.resume) {
    BDLFI_CHECK_MSG(rng.state_load(config_.resume_rng),
                    "invalid resume RNG state");
    current = config_.resume_mask;
  } else {
    current = net_.sample_prior_mask(p_, rng);
  }
  double current_logd = target_.log_density(current);
  if (target_.requires_network_eval()) ++network_evals_;
  if (std::isnan(current_logd) ||
      (std::isinf(current_logd) && current_logd > 0.0)) {
    diverged_ = true;
  }

  ChainResult result;
  const auto record = [&](const FaultMask& mask) {
    const bayes::MaskOutcome outcome = net_.evaluate_mask(mask);
    ++network_evals_;
    result.error_samples.push_back(outcome.classification_error);
    result.deviation_samples.push_back(outcome.deviation);
    result.flips_samples.push_back(static_cast<double>(outcome.flipped_bits));
    switch (outcome.outcome) {
      case bayes::FaultOutcome::kMasked: ++result.outcome_masked; break;
      case bayes::FaultOutcome::kSdc: ++result.outcome_sdc; break;
      case bayes::FaultOutcome::kDetected: ++result.outcome_detected; break;
      case bayes::FaultOutcome::kCorrected: ++result.outcome_corrected; break;
    }
  };
  if (!config_.resume) {
    for (std::size_t i = 0; !timed_out_ && i < config_.burn_in; ++i) {
      sweep(current, current_logd, rng);
    }
  }
  for (std::size_t s = 0; !timed_out_ && s < config_.samples; ++s) {
    if (util::interrupt_requested()) {
      result.interrupted = true;
      break;
    }
    sweep(current, current_logd, rng);
    if (timed_out_) break;
    record(current);
    if (config_.record_masks) result.mask_samples.push_back(current);
  }
  result.acceptance_rate = 1.0;  // Gibbs always moves per-coordinate
  result.network_evals = network_evals_;
  result.timed_out = timed_out_;
  result.diverged = diverged_;
  result.rng_state = rng.state_save();
  result.final_mask = current;
  const bayes::EvalStats& stats = net_.eval_stats();
  result.full_evals = stats.full_evals - stats_base.full_evals;
  result.truncated_evals = stats.truncated_evals - stats_base.truncated_evals;
  result.layers_run = stats.layers_run - stats_base.layers_run;
  result.layers_total = stats.layers_total - stats_base.layers_total;
  return result;
}

}  // namespace bdlfi::mcmc
