#include "mcmc/gibbs.h"

#include <cmath>
#include <limits>
#include <optional>

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

bool GibbsSampler::sweep(FaultMask& current, double& current_logd,
                         util::Rng& rng, ChainResult& result) {
  const std::int64_t total_bits = net_.space().total_bits();
  bool moved = false;
  for (std::size_t i = 0; i < config_.coordinates_per_sweep; ++i) {
    const auto flat = static_cast<std::int64_t>(
        rng.below(static_cast<std::uint64_t>(total_bits)));
    const auto analytic = target_.analytic_toggle_delta(current, flat);
    double toggle_delta;
    // The coordinate's one uniform; bernoulli(q) is uniform() < q, and a
    // forward draws nothing, so it may be drawn before the forward.
    std::optional<double> u;
    if (analytic.has_value()) {
      toggle_delta = *analytic;
    } else {
      FaultMask toggled = current;
      toggled.toggle(flat);
      // A target without a bound (+inf) takes the plain path below.
      const double bound = net_.eval_is_pure()
                               ? target_.log_density_bound(toggled)
                               : std::numeric_limits<double>::infinity();
      if (bound < std::numeric_limits<double>::infinity()) {
        // Early rejection: the bound caps Δ, hence the toggle probability.
        // exp is not guaranteed monotone to the last ulp, so a draw must
        // clear the capped probability by a relative margin to skip the
        // forward; a closer draw runs it and decides as before.
        const double delta_bound = bound - current_logd;
        const double prob_bound = 1.0 / (1.0 + std::exp(-delta_bound));
        u = rng.uniform();
        if (*u >= prob_bound * (1.0 + 0x1p-40)) {
          ++result.forwards_skipped;
          continue;
        }
      }
      const double other = target_.log_density(toggled);
      ++result.network_evals;
      toggle_delta = other - current_logd;
    }
    if (std::isnan(toggle_delta)) result.diverged = true;
    // Conditional probability of the *toggled* state:
    //   P(toggled) = exp(Δ) / (1 + exp(Δ)) — a logistic draw.
    const double prob_toggle = 1.0 / (1.0 + std::exp(-toggle_delta));
    if (u ? *u < prob_toggle : rng.bernoulli(prob_toggle)) {
      current.toggle(flat);
      current_logd += toggle_delta;
      moved = true;
      if (obs::enabled()) GibbsMetrics::get().toggles.add();
    }
  }
  if (obs::enabled()) GibbsMetrics::get().sweeps.add();
  return moved;
}

ChainResult GibbsSampler::run() {
  ChainResult result = run_chain(
      net_, target_, p_, config_, /*thin=*/1,
      [this](FaultMask& current, double& logd, util::Rng& rng,
             ChainResult& r) { return sweep(current, logd, rng, r); });
  result.acceptance_rate = 1.0;  // Gibbs always moves per-coordinate
  return result;
}

}  // namespace bdlfi::mcmc
