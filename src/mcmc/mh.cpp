#include "mcmc/mh.h"

#include <cmath>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/interrupt.h"
#include "util/stopwatch.h"

namespace bdlfi::mcmc {

namespace {

// -Inf log density is a legitimate hard rejection (zero-probability state);
// NaN and +Inf can only come from a pathological target and poison the walk.
inline bool pathological_logd(double logd) {
  return std::isnan(logd) || (std::isinf(logd) && logd > 0.0);
}

// Sampler-level counters shared by all chains; registered once.
struct MhMetrics {
  obs::Counter& proposals =
      obs::MetricsRegistry::global().counter("mcmc.proposals");
  obs::Counter& accepts = obs::MetricsRegistry::global().counter("mcmc.accepts");
  obs::Counter& samples = obs::MetricsRegistry::global().counter("mcmc.samples");
  obs::Counter& evals =
      obs::MetricsRegistry::global().counter("mcmc.network_evals");
  static MhMetrics& get() {
    static MhMetrics m;
    return m;
  }
};

}  // namespace

MhSampler::MhSampler(bayes::BayesianFaultNetwork& net,
                     bayes::MaskTarget& target, double p,
                     const MhConfig& config)
    : net_(net),
      target_(target),
      p_(p),
      config_(config),
      block_(config.block_size) {
  BDLFI_CHECK(p > 0.0 && p < 1.0);
  BDLFI_CHECK(config.samples > 0 && config.thin > 0);
}

ProposalKernel& MhSampler::pick_kernel(util::Rng& rng) {
  const double total = config_.w_single_toggle + config_.w_block_resample +
                       config_.w_independence;
  double u = rng.uniform() * total;
  if ((u -= config_.w_single_toggle) < 0.0) return single_;
  if ((u -= config_.w_block_resample) < 0.0) return block_;
  return indep_;
}

bool MhSampler::step(FaultMask& current, double& current_logd,
                     util::Rng& rng) {
  ProposalKernel& kernel = pick_kernel(rng);
  Proposal proposal = kernel.propose(current, net_, p_, rng);
  ++proposed_;

  // Fast path: a single-bit move with an analytic density delta needs no
  // density evaluation at all.
  double log_alpha;
  double next_logd;
  const auto delta_bits =
      FaultMask::symmetric_difference(current, proposal.next);
  if (delta_bits.empty()) {
    ++accepted_;  // proposal == current: trivially accepted, nothing to do
    if (obs::enabled()) {
      MhMetrics& m = MhMetrics::get();
      m.proposals.add();
      m.accepts.add();
    }
    return true;
  }
  std::optional<double> analytic;
  if (delta_bits.size() == 1) {
    analytic = target_.analytic_toggle_delta(current, delta_bits[0]);
  }
  if (analytic.has_value()) {
    log_alpha = *analytic + proposal.log_q_ratio;
    next_logd = current_logd + *analytic;
  } else if (!target_.requires_network_eval()) {
    next_logd = target_.log_density(proposal.next);
    log_alpha = next_logd - current_logd + proposal.log_q_ratio;
  } else {
    next_logd = target_.log_density(proposal.next);
    ++network_evals_;
    log_alpha = next_logd - current_logd + proposal.log_q_ratio;
  }

  if (pathological_logd(next_logd)) diverged_ = true;

  const bool accepted =
      log_alpha >= 0.0 || std::log(rng.uniform() + 1e-300) < log_alpha;
  if (accepted) {
    current = std::move(proposal.next);
    current_logd = next_logd;
    ++accepted_;
  }
  if (obs::enabled()) {
    MhMetrics& m = MhMetrics::get();
    m.proposals.add();
    if (accepted) m.accepts.add();
  }
  return accepted;
}

ChainResult MhSampler::run() {
  const bayes::EvalStats stats_base = net_.eval_stats();
  util::Rng rng{config_.seed};

  ChainResult result;
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
  if (pathological_logd(current_logd)) diverged_ = true;

  result.error_samples.reserve(config_.samples);
  result.deviation_samples.reserve(config_.samples);
  result.flips_samples.reserve(config_.samples);

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

  // Clock reads only happen when the watchdog is armed, so the default
  // configuration costs nothing on the hot path.
  const bool watchdog = config_.round_timeout_ms > 0.0;
  util::Stopwatch watch;
  bool aborted = false;
  if (!config_.resume) {
    for (std::size_t i = 0; i < config_.burn_in; ++i) {
      step(current, current_logd, rng);
      if (watchdog && watch.millis() > config_.round_timeout_ms) {
        result.timed_out = true;
        aborted = true;
        break;
      }
    }
  }
  for (std::size_t s = 0; !aborted && s < config_.samples; ++s) {
    if (util::interrupt_requested()) {
      result.interrupted = true;
      break;
    }
    for (std::size_t t = 0; t < config_.thin; ++t) {
      step(current, current_logd, rng);
      if (watchdog && watch.millis() > config_.round_timeout_ms) {
        result.timed_out = true;
        aborted = true;
        break;
      }
    }
    if (aborted) break;
    record(current);
    if (config_.record_masks) result.mask_samples.push_back(current);
  }
  if (obs::enabled()) {
    MhMetrics& m = MhMetrics::get();
    m.samples.add(result.error_samples.size());
    m.evals.add(network_evals_);
  }
  result.acceptance_rate =
      proposed_ ? static_cast<double>(accepted_) / static_cast<double>(proposed_)
                : 0.0;
  result.network_evals = network_evals_;
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
