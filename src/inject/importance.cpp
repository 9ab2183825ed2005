#include "inject/importance.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "util/check.h"
#include "util/rng.h"

namespace bdlfi::inject {

ImportanceFiResult run_importance_fi(const bayes::BayesianFaultNetwork& golden,
                                     double p,
                                     const ImportanceFiConfig& config) {
  BDLFI_CHECK(config.injections > 0);
  BDLFI_CHECK(config.beta >= 1.0);
  const double q_rate = config.beta * p;
  BDLFI_CHECK_MSG(q_rate < 1.0, "beta * p must stay below 1");

  auto replica = golden.replicate();
  const fault::AvfProfile& profile = replica->profile();
  util::Rng rng{config.seed};

  // Per-bit-position log weight contribution of one flipped bit:
  //   log[p_b/(1-p_b)] − log[q_b/(1-q_b)].
  // The all-clean constant is shared by every mask and cancels under
  // self-normalization.
  std::array<double, fault::kBitsPerWord> flip_log_weight{};
  for (int b = 0; b < fault::kBitsPerWord; ++b) {
    const double pb = profile.bit_prob(b, p);
    const double qb = profile.bit_prob(b, q_rate);
    if (pb <= 0.0 || qb <= 0.0) {
      flip_log_weight[static_cast<std::size_t>(b)] = 0.0;  // never sampled
      continue;
    }
    flip_log_weight[static_cast<std::size_t>(b)] =
        (std::log(pb) - std::log1p(-pb)) - (std::log(qb) - std::log1p(-qb));
  }

  std::vector<double> log_weights, errors, deviations;
  log_weights.reserve(config.injections);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < config.injections; ++i) {
    const fault::FaultMask mask = replica->sample_prior_mask(q_rate, rng);
    double lw = 0.0;
    for (std::int64_t flat : mask.bits()) {
      lw += flip_log_weight[static_cast<std::size_t>(flat %
                                                     fault::kBitsPerWord)];
    }
    log_weights.push_back(lw);
    const bayes::MaskOutcome outcome = replica->evaluate_mask(mask);
    errors.push_back(outcome.classification_error);
    deviations.push_back(outcome.deviation);
    if (outcome.deviation > 0.0) ++hits;
  }

  // Self-normalized estimate with max-shifted exponentials for stability.
  const double max_lw =
      *std::max_element(log_weights.begin(), log_weights.end());
  double sum_w = 0.0, sum_w2 = 0.0, sum_we = 0.0, sum_wd = 0.0;
  for (std::size_t i = 0; i < log_weights.size(); ++i) {
    const double w = std::exp(log_weights[i] - max_lw);
    sum_w += w;
    sum_w2 += w * w;
    sum_we += w * errors[i];
    sum_wd += w * deviations[i];
  }

  ImportanceFiResult result;
  result.injections = config.injections;
  result.mean_error = sum_we / sum_w;
  result.mean_deviation = sum_wd / sum_w;
  result.weight_ess = sum_w * sum_w / std::max(1e-300, sum_w2);
  result.hit_rate =
      static_cast<double>(hits) / static_cast<double>(config.injections);
  return result;
}

}  // namespace bdlfi::inject
