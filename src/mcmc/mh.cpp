#include "mcmc/mh.h"

#include <cmath>
#include <optional>

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

// Chain-loop counters shared by every chain of either sampler.
struct ChainMetrics {
  obs::Counter& samples = obs::MetricsRegistry::global().counter("mcmc.samples");
  obs::Counter& evals =
      obs::MetricsRegistry::global().counter("mcmc.network_evals");
  obs::Counter& memo_hits =
      obs::MetricsRegistry::global().counter("mcmc.memo_hits");
  obs::Counter& early_rejections =
      obs::MetricsRegistry::global().counter("mcmc.early_rejections");
  static ChainMetrics& get() {
    static ChainMetrics m;
    return m;
  }
};

// MH proposal counters shared by all MH chains; registered once.
struct MhMetrics {
  obs::Counter& proposals =
      obs::MetricsRegistry::global().counter("mcmc.proposals");
  obs::Counter& accepts = obs::MetricsRegistry::global().counter("mcmc.accepts");
  static MhMetrics& get() {
    static MhMetrics m;
    return m;
  }
};

}  // namespace

ChainResult run_chain(bayes::BayesianFaultNetwork& net,
                      bayes::MaskTarget& target, double p,
                      const ChainConfig& config, std::size_t thin,
                      const Transition& transition) {
  const bayes::EvalStats stats_base = net.eval_stats();
  util::Rng rng{config.seed};

  ChainResult result;
  FaultMask current;
  if (config.resume) {
    BDLFI_CHECK_MSG(rng.state_load(config.resume_rng),
                    "invalid resume RNG state");
    current = config.resume_mask;
  } else {
    current = net.sample_prior_mask(p, rng);
  }
  double current_logd = target.log_density(current);
  if (target.requires_network_eval()) ++result.network_evals;
  if (pathological_logd(current_logd)) result.diverged = true;

  // Outcome memo: the outcome of `current` while it is known. A retained
  // eval makes it known; so does a transition that ends on the state the
  // target just evaluated, which the network remembers as its last
  // evaluate_mask. Empty whenever the eval forward is not pure.
  std::optional<bayes::MaskOutcome> known;
  const auto recall = [&] {
    const bayes::MaskOutcome* last = net.last_outcome(current);
    known = last != nullptr ? std::optional(*last) : std::nullopt;
  };
  recall();
  std::size_t memo_hits = 0;

  result.error_samples.reserve(config.samples);
  result.deviation_samples.reserve(config.samples);
  result.flips_samples.reserve(config.samples);

  // Clock reads only happen when the watchdog is armed, so the default
  // configuration costs nothing on the hot path.
  const bool watchdog = config.round_timeout_ms > 0.0;
  util::Stopwatch watch;
  // One transition; false once the watchdog has fired.
  const auto advance = [&] {
    if (transition(current, current_logd, rng, result)) recall();
    if (watchdog && watch.millis() > config.round_timeout_ms) {
      result.timed_out = true;
    }
    return !result.timed_out;
  };
  if (!config.resume) {
    for (std::size_t i = 0; i < config.burn_in; ++i) {
      if (!advance()) break;
    }
  }
  for (std::size_t s = 0; !result.timed_out && s < config.samples; ++s) {
    if (util::interrupt_requested()) {
      result.interrupted = true;
      break;
    }
    for (std::size_t t = 0; t < thin; ++t) {
      if (!advance()) break;
    }
    if (result.timed_out) break;
    bayes::MaskOutcome outcome;
    if (known.has_value()) {
      outcome = *known;
      ++memo_hits;
    } else {
      outcome = net.evaluate_mask(current);
      ++result.network_evals;
      if (net.eval_is_pure()) known = outcome;
    }
    result.error_samples.push_back(outcome.classification_error);
    result.deviation_samples.push_back(outcome.deviation);
    result.flips_samples.push_back(static_cast<double>(outcome.flipped_bits));
    switch (outcome.outcome) {
      case bayes::FaultOutcome::kMasked: ++result.outcome_masked; break;
      case bayes::FaultOutcome::kSdc: ++result.outcome_sdc; break;
      case bayes::FaultOutcome::kDetected: ++result.outcome_detected; break;
      case bayes::FaultOutcome::kCorrected: ++result.outcome_corrected; break;
    }
    if (config.record_masks) result.mask_samples.push_back(current);
  }
  // The transitions counted their early rejections into forwards_skipped.
  if (obs::enabled()) {
    ChainMetrics& m = ChainMetrics::get();
    m.samples.add(result.error_samples.size());
    m.evals.add(result.network_evals);
    m.memo_hits.add(memo_hits);
    m.early_rejections.add(result.forwards_skipped);
  }
  result.forwards_skipped += memo_hits;
  result.rng_state = rng.state_save();
  result.final_mask = std::move(current);
  const bayes::EvalStats& stats = net.eval_stats();
  result.full_evals = stats.full_evals - stats_base.full_evals;
  result.truncated_evals = stats.truncated_evals - stats_base.truncated_evals;
  result.layers_run = stats.layers_run - stats_base.layers_run;
  result.layers_total = stats.layers_total - stats_base.layers_total;
  return result;
}

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
                     util::Rng& rng, ChainResult& result) {
  ProposalKernel& kernel = pick_kernel(rng);
  Proposal proposal = kernel.propose(current, net_, p_, rng);
  ++proposed_;
  const auto settle = [this](bool accepted) {
    if (accepted) ++accepted_;
    if (obs::enabled()) {
      MhMetrics& m = MhMetrics::get();
      m.proposals.add();
      if (accepted) m.accepts.add();
    }
  };

  // Fast path: a single-bit move with an analytic density delta needs no
  // density evaluation at all.
  double log_alpha;
  double next_logd;
  const auto delta_bits =
      FaultMask::symmetric_difference(current, proposal.next);
  if (delta_bits.empty()) {
    settle(true);  // proposal == current: trivially accepted, nothing to do
    return false;
  }
  // The step draws one uniform exactly when log α < 0, and a forward draws
  // none, so drawing it before the forward consumes the same stream.
  const auto draw_log_u = [&rng] { return std::log(rng.uniform() + 1e-300); };
  std::optional<double> log_u;
  std::optional<double> analytic;
  if (delta_bits.size() == 1) {
    analytic = target_.analytic_toggle_delta(current, delta_bits[0]);
  }
  if (analytic.has_value()) {
    log_alpha = *analytic + proposal.log_q_ratio;
    next_logd = current_logd + *analytic;
  } else {
    if (net_.eval_is_pure()) {
      // Early rejection: the bound, in log_alpha's expression order below,
      // caps the rounded log α. When even the cap is below 0 the uniform
      // is drawn now, and a draw at or above the cap rejects the proposal
      // whatever its forward would say.
      const double log_alpha_bound = target_.log_density_bound(proposal.next) -
                                     current_logd + proposal.log_q_ratio;
      if (log_alpha_bound < 0.0) {
        log_u = draw_log_u();
        if (*log_u >= log_alpha_bound) {
          if (target_.requires_network_eval()) ++result.forwards_skipped;
          settle(false);
          return false;
        }
      }
    }
    next_logd = target_.log_density(proposal.next);
    if (target_.requires_network_eval()) ++result.network_evals;
    log_alpha = next_logd - current_logd + proposal.log_q_ratio;
  }

  if (pathological_logd(next_logd)) result.diverged = true;

  const bool accepted =
      log_alpha >= 0.0 || (log_u ? *log_u : draw_log_u()) < log_alpha;
  settle(accepted);
  if (accepted) {
    current = std::move(proposal.next);
    current_logd = next_logd;
  }
  return accepted;
}

ChainResult MhSampler::run() {
  ChainResult result = run_chain(
      net_, target_, p_, config_, config_.thin,
      [this](FaultMask& current, double& logd, util::Rng& rng,
             ChainResult& r) { return step(current, logd, rng, r); });
  result.acceptance_rate =
      proposed_ ? static_cast<double>(accepted_) / static_cast<double>(proposed_)
                : 0.0;
  return result;
}

}  // namespace bdlfi::mcmc
