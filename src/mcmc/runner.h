// Multi-chain campaign runner with convergence diagnostics.
//
// Runs m independent chains (each on its own replica of the Bayesian fault
// network) in parallel, pools their retained samples, and computes the
// Gelman–Rubin R-hat / effective-sample-size diagnostics from which the
// paper's "completeness of an injection campaign" criterion is derived: the
// campaign is complete when the chains agree (R-hat below threshold) and the
// running estimate has stabilized (further injections do not change the
// measured hypothesis).
#pragma once

#include <functional>
#include <memory>

#include "bayes/targets.h"
#include "mcmc/gibbs.h"
#include "mcmc/mh.h"
#include "mcmc/supervisor.h"
#include "obs/reporter.h"
#include "util/stats.h"

namespace bdlfi::mcmc {

/// Builds the per-chain target distribution bound to that chain's replica.
using TargetFactory = std::function<std::unique_ptr<bayes::MaskTarget>(
    bayes::BayesianFaultNetwork&)>;

/// Chain-aware variant: also receives the chain index. Enables per-chain
/// target variation (tempering ladders, supervision fault-injection tests).
using ChainTargetFactory = std::function<std::unique_ptr<bayes::MaskTarget>(
    bayes::BayesianFaultNetwork&, std::size_t chain)>;

struct RunnerConfig {
  std::size_t num_chains = 4;
  MhConfig mh;  // per-chain sampler configuration (seed is re-derived)
  std::uint64_t seed = 1;
  bool use_gibbs = false;
  GibbsConfig gibbs;
  /// Invoked after every pooled round with the campaign health of that round
  /// (live observability). Wire an obs::CampaignReporter via reporter.hook(),
  /// or any custom subscriber. Called from the orchestrating thread.
  obs::RoundCallback round_hook;
  /// Chain supervision policy (watchdog/retry/quarantine). The divergence
  /// detector is always armed; everything else is opt-in, so the default
  /// config costs nothing on the hot path.
  SupervisorConfig supervisor;
  /// Directory receiving the atomic per-round campaign checkpoint ("" = off).
  /// Created if missing. Only run_until_complete checkpoints; single-round
  /// run_chains campaigns are cheap enough to re-run.
  std::string checkpoint_dir;
  /// Restore from checkpoint_dir's checkpoint before running. A missing file
  /// is a fresh start; a config/seed fingerprint mismatch rejects the run.
  bool resume = false;
  /// Invoked on every supervision incident (retry, quarantine). Called from
  /// the orchestrating thread between rounds.
  obs::ChainHealthCallback health_hook;
  /// Invoked after each successful checkpoint write with (round, path).
  std::function<void(std::size_t, const std::string&)> checkpoint_hook;
};

struct CampaignDiagnostics {
  double rhat = 0.0;
  double ess = 0.0;       // pooled effective sample size
  double geweke_max = 0.0;  // worst |z| across chains
};

struct CampaignResult {
  std::vector<ChainResult> chains;
  // Pooled statistics of the classification-error samples.
  double mean_error = 0.0;
  double stddev_error = 0.0;
  double q05 = 0.0, q50 = 0.0, q95 = 0.0;
  double mean_deviation = 0.0;
  double mean_flips = 0.0;
  /// Mean MH acceptance rate across chains (latest round's rate per chain).
  double mean_acceptance = 0.0;
  CampaignDiagnostics diagnostics;
  std::size_t total_samples = 0;
  std::size_t total_network_evals = 0;   // forward passes run
  std::size_t total_forwards_skipped = 0;  // see ChainResult::forwards_skipped
  // Fault-outcome taxonomy pooled over surviving chains' retained samples.
  std::size_t total_outcome_masked = 0;
  std::size_t total_outcome_sdc = 0;
  std::size_t total_outcome_detected = 0;
  std::size_t total_outcome_corrected = 0;
  /// Detection coverage: of the samples where the fault mattered (detected,
  /// corrected, or silently corrupting), the fraction the deployment caught.
  /// 0 when no sample mattered (nothing to cover).
  double detection_coverage() const {
    const std::size_t caught = total_outcome_detected + total_outcome_corrected;
    const std::size_t mattered = caught + total_outcome_sdc;
    return mattered == 0
               ? 0.0
               : static_cast<double>(caught) / static_cast<double>(mattered);
  }
  /// Fraction of all retained samples that ended in silent data corruption.
  double sdc_rate() const {
    const std::size_t total = total_outcome_masked + total_outcome_sdc +
                              total_outcome_detected + total_outcome_corrected;
    return total == 0 ? 0.0
                      : static_cast<double>(total_outcome_sdc) /
                            static_cast<double>(total);
  }
  // Truncated-replay observability pooled across chains.
  std::size_t total_full_evals = 0;
  std::size_t total_truncated_evals = 0;
  std::size_t total_layers_run = 0;
  std::size_t total_layers_total = 0;
  /// % of layer executions skipped thanks to the golden activation cache —
  /// i.e. equivalent full-network evaluations saved, as a fraction of the
  /// work a cache-less campaign would have spent.
  double layers_saved_pct() const {
    return total_layers_total == 0
               ? 0.0
               : 100.0 *
                     static_cast<double>(total_layers_total -
                                         total_layers_run) /
                     static_cast<double>(total_layers_total);
  }
  // Graceful-degradation surface. Pooled statistics and diagnostics above
  // cover surviving chains only; quarantined chains keep their (partial)
  // entries in `chains` for post-mortem but contribute nothing.
  std::size_t chains_quarantined = 0;
  bool degraded = false;  // chains_quarantined > 0
  /// Fewer than two chains survived a multi-chain campaign: cross-chain
  /// diagnostics are meaningless and the result must not be trusted.
  bool failed = false;
  std::string fail_reason;
  /// The global interrupt flag fired mid-campaign (partial round discarded).
  bool interrupted = false;
  std::vector<ChainHealth> health;  // one record per chain
};

/// Runs `config.num_chains` chains at flip probability `p` against targets
/// made by `make_target`. `golden` itself is never mutated.
CampaignResult run_chains(const bayes::BayesianFaultNetwork& golden,
                          const TargetFactory& make_target, double p,
                          const RunnerConfig& config);
CampaignResult run_chains(const bayes::BayesianFaultNetwork& golden,
                          const ChainTargetFactory& make_target, double p,
                          const RunnerConfig& config);

/// The paper's completeness criterion (§I advantage 1).
struct CompletenessCriterion {
  double rhat_threshold = 1.05;
  /// Relative change of the pooled mean between consecutive rounds below
  /// which the estimate counts as stable.
  double mean_rel_tol = 0.05;
  std::size_t max_rounds = 8;
};

struct CompletenessResult {
  CampaignResult final_result;
  std::size_t rounds = 0;
  bool converged = false;
  /// Estimate trajectory after each round (mean error, rhat, samples).
  struct RoundStats {
    std::size_t cumulative_samples;
    double mean_error;
    double rhat;
    double ess;
  };
  std::vector<RoundStats> trajectory;
  /// SIGINT/SIGTERM observed: stopped after the last complete round, whose
  /// checkpoint (if enabled) supports a bit-exact --resume.
  bool interrupted = false;
  /// RunnerConfig::resume found a checkpoint whose fingerprint does not match
  /// this campaign's config/seed/network; nothing was run.
  bool resume_rejected = false;
  /// The rejection was specifically a kernel-backend mismatch (the checkpoint
  /// was produced under different arithmetic). Subset of resume_rejected;
  /// callers can map it to a distinct exit code.
  bool backend_mismatch = false;
  /// Another live process holds the checkpoint directory's lock; nothing was
  /// run. Concurrent campaigns on one directory would silently corrupt the
  /// checkpoint lineage, so the second process refuses to start.
  bool lock_rejected = false;
  /// Rounds restored from the checkpoint (0 for a fresh start).
  std::size_t resumed_from_round = 0;
};

/// Repeatedly extends the campaign in rounds of `config.mh.samples` per chain
/// until the completeness criterion is met (mixing achieved and the running
/// hypothesis stable) or `criterion.max_rounds` is exhausted. Rounds after
/// the first continue each chain's walk from its saved cursor (RNG engine
/// state + current mask) — no re-burn-in — which is also what makes
/// checkpoint resume bit-exact.
CompletenessResult run_until_complete(
    const bayes::BayesianFaultNetwork& golden,
    const TargetFactory& make_target, double p, const RunnerConfig& config,
    const CompletenessCriterion& criterion);
CompletenessResult run_until_complete(
    const bayes::BayesianFaultNetwork& golden,
    const ChainTargetFactory& make_target, double p, const RunnerConfig& config,
    const CompletenessCriterion& criterion);

}  // namespace bdlfi::mcmc
