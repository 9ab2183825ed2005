// Metropolis–Hastings sampler over fault masks (one chain), and the chain
// loop every sampler runs on.
//
// The chain state is a FaultMask; retained samples record the classification
// error / golden-deviation of the corrupted network under the current mask —
// the statistic whose distribution the paper's Fig. 1-③ histogram shows and
// whose mean the Fig. 2/4 sweeps plot. run_chain owns everything a chain
// does besides moving: seeding or resuming, burn-in, the retained loop with
// its interrupt and watchdog checks, and evaluating and tallying each
// retained state. A sampler is a transition kernel handed to it: an MH step
// (MhSampler) or a Gibbs sweep (GibbsSampler).
//
// A chain runs a forward only where its target needs one, without changing
// a single random draw or accept/reject decision (DESIGN.md §10): a retained
// state whose outcome the chain already has (it has not moved, or it is the
// proposal the target just evaluated) reuses it, and a proposal the
// target's log_density_bound already rejects is rejected before its forward.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "bayes/targets.h"
#include "mcmc/proposals.h"

namespace bdlfi::mcmc {

/// The chain-loop settings every sampler shares.
struct ChainConfig {
  std::size_t samples = 200;     // retained samples
  std::size_t burn_in = 50;      // discarded leading transitions
  std::uint64_t seed = 1;
  /// Cooperative wall-clock watchdog: when > 0, the run abandons (result
  /// flagged timed_out) once this many milliseconds elapse. Checked after
  /// each transition (an MH step, a Gibbs sweep); a single wedged forward
  /// pass cannot be preempted.
  double round_timeout_ms = 0.0;
  /// Cross-round continuation (set by the campaign runner / checkpoint
  /// resume): restore the RNG engine from `resume_rng` and continue from
  /// `resume_mask` instead of seeding fresh and drawing from the prior.
  /// Burn-in is skipped — the restored state is already warmed up.
  bool resume = false;
  std::vector<std::uint64_t> resume_rng;
  FaultMask resume_mask;
  /// Record every retained mask into ChainResult::mask_samples (same order as
  /// the sample vectors) — the input of bayes::PosteriorProfile. Off by
  /// default: masks are heavier than the scalar samples, and checkpoints do
  /// not persist them (a profile-bound campaign runs within one process;
  /// cross-round accumulation in-process works normally).
  bool record_masks = false;
};

struct MhConfig : ChainConfig {
  std::size_t thin = 1;          // steps between retained samples
  /// Relative selection weights of the three kernels.
  double w_single_toggle = 0.5;
  double w_block_resample = 0.3;
  double w_independence = 0.2;
  std::size_t block_size = 8;
  /// Ignored: retained samples are evaluated inline, one mask at a time.
  /// Kept so existing callers that set it still compile.
  std::size_t mask_batch = 8;
};

struct ChainResult {
  std::vector<double> error_samples;      // classification error, %
  std::vector<double> deviation_samples;  // deviation from golden, %
  std::vector<double> flips_samples;      // #flipped bits per retained sample
  double acceptance_rate = 0.0;
  /// Forward passes actually run: target evaluations plus retained evals.
  std::size_t network_evals = 0;
  /// Forward passes the chain did not need: retained samples served from
  /// the outcome memo and proposals rejected before their forward. Without
  /// either shortcut the chain would have run network_evals +
  /// forwards_skipped forwards.
  std::size_t forwards_skipped = 0;
  // Fault-outcome taxonomy tallies over the retained samples (masked / SDC /
  // detected-DUE / corrected; see bayes::FaultOutcome). The four counters sum
  // to error_samples.size().
  std::size_t outcome_masked = 0;
  std::size_t outcome_sdc = 0;
  std::size_t outcome_detected = 0;
  std::size_t outcome_corrected = 0;
  // Truncated-replay observability (from the replica's EvalStats): how many
  // of the network evals resumed from the golden activation cache, and the
  // layer executions actually run vs what a full-forward policy would cost.
  std::size_t full_evals = 0;
  std::size_t truncated_evals = 0;
  std::size_t layers_run = 0;
  std::size_t layers_total = 0;
  // Supervision verdicts, inspected by mcmc::ChainSupervisor.
  bool timed_out = false;     // watchdog fired; samples are partial
  bool diverged = false;      // NaN/+Inf posterior density observed
  bool interrupted = false;   // global interrupt flag seen; samples partial
  // Continuation cursor: engine state and chain position after the last
  // retained sample, so the next round resumes the same stream.
  std::vector<std::uint64_t> rng_state;
  FaultMask final_mask;
  /// Retained masks, parallel to the sample vectors; populated only when
  /// ChainConfig::record_masks is set. Not checkpointed.
  std::vector<FaultMask> mask_samples;
};

/// One transition of a chain: moves `current` (whose log density is `logd`)
/// in place, drawing from `rng`, and counts its own forward passes (run and
/// skipped) and any divergence into the result. Returns false when
/// `current` is certainly unchanged, so the chain keeps its outcome memo.
using Transition = std::function<bool(FaultMask& current, double& logd,
                                      util::Rng& rng, ChainResult& result)>;

/// Runs one chain: seeds (or restores the cursor), evaluates the initial
/// density, burns in (fresh chains only), then takes `thin` transitions per
/// retained sample and tallies each retained state, evaluating it unless its
/// outcome is already known. `net` is mutated during sampling but golden
/// again on return.
ChainResult run_chain(bayes::BayesianFaultNetwork& net,
                      bayes::MaskTarget& target, double p,
                      const ChainConfig& config, std::size_t thin,
                      const Transition& transition);

class MhSampler {
 public:
  /// `net` is mutated during sampling (masks applied/reverted) but is
  /// restored to golden state when run() returns.
  MhSampler(bayes::BayesianFaultNetwork& net, bayes::MaskTarget& target,
            double p, const MhConfig& config);

  ChainResult run();

 private:
  bool step(FaultMask& current, double& current_logd, util::Rng& rng,
            ChainResult& result);
  ProposalKernel& pick_kernel(util::Rng& rng);

  bayes::BayesianFaultNetwork& net_;
  bayes::MaskTarget& target_;
  double p_;
  MhConfig config_;
  SingleToggleKernel single_;
  BlockResampleKernel block_;
  IndependenceKernel indep_;
  std::size_t accepted_ = 0;
  std::size_t proposed_ = 0;
};

}  // namespace bdlfi::mcmc
