#include "mcmc/gibbs.h"

#include <cmath>

#include "obs/metrics.h"
#include "util/check.h"

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
                         util::Rng& rng, ChainResult& result) {
  const std::int64_t total_bits = net_.space().total_bits();
  for (std::size_t i = 0; i < config_.coordinates_per_sweep; ++i) {
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
      ++result.network_evals;
      toggle_delta = other - current_logd;
    }
    if (std::isnan(toggle_delta)) result.diverged = true;
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
  ChainResult result = run_chain(
      net_, target_, p_, config_, /*thin=*/1,
      [this](FaultMask& current, double& logd, util::Rng& rng,
             ChainResult& r) { sweep(current, logd, rng, r); });
  result.acceptance_rate = 1.0;  // Gibbs always moves per-coordinate
  return result;
}

}  // namespace bdlfi::mcmc
