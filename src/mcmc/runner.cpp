#include "mcmc/runner.h"

#include <cmath>
#include <filesystem>
#include <limits>

#include "mcmc/checkpoint.h"
#include "obs/trace.h"
#include "tensor/backend/backend.h"
#include "util/check.h"
#include "util/interrupt.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace bdlfi::mcmc {

namespace {

std::uint64_t chain_seed(std::uint64_t base, std::uint64_t round,
                         std::uint64_t chain, std::uint64_t attempt = 0) {
  std::uint64_t s = base ^ (0x9e3779b97f4a7c15ULL * (round * 8191 + chain + 1));
  // Retries re-derive a fresh stream; attempt 0 matches the historical
  // derivation exactly so default campaigns stay bit-identical.
  if (attempt != 0) s ^= 0xda3e39cb94b95bdbULL * attempt;
  return util::splitmix64(s);
}

ChainTargetFactory adapt(const TargetFactory& make_target) {
  return [&make_target](bayes::BayesianFaultNetwork& net, std::size_t) {
    return make_target(net);
  };
}

/// Pooled statistics of `chains`; result.chains is left empty. The only
/// samples copied are the error samples the quantiles sort, and that copy
/// is gone before the per-stream diagnostics run.
CampaignResult pool_stats(const std::vector<ChainResult>& chains,
                          const std::vector<ChainHealth>& health) {
  CampaignResult result;
  util::RunningStats dev, flips;
  std::vector<const std::vector<double>*> error_streams;
  double acceptance = 0.0;
  std::size_t surviving = 0;
  for (std::size_t i = 0; i < chains.size(); ++i) {
    if (i < health.size() && health[i].status == ChainStatus::quarantined) {
      ++result.chains_quarantined;
      continue;  // quarantined: no contribution to pooled statistics
    }
    const ChainResult& c = chains[i];
    ++surviving;
    for (double d : c.deviation_samples) dev.add(d);
    for (double f : c.flips_samples) flips.add(f);
    acceptance += c.acceptance_rate;
    result.total_network_evals += c.network_evals;
    result.total_forwards_skipped += c.forwards_skipped;
    result.total_outcome_masked += c.outcome_masked;
    result.total_outcome_sdc += c.outcome_sdc;
    result.total_outcome_detected += c.outcome_detected;
    result.total_outcome_corrected += c.outcome_corrected;
    result.total_full_evals += c.full_evals;
    result.total_truncated_evals += c.truncated_evals;
    result.total_layers_run += c.layers_run;
    result.total_layers_total += c.layers_total;
    error_streams.push_back(&c.error_samples);
    result.total_samples += c.error_samples.size();
  }
  if (result.total_samples > 0) {
    util::SampleSet errors;
    errors.reserve(result.total_samples);
    for (const auto* stream : error_streams) {
      for (double e : *stream) errors.add(e);
    }
    result.mean_error = errors.mean();
    result.stddev_error = errors.stddev();
    result.q05 = errors.quantile(0.05);
    result.q50 = errors.quantile(0.50);
    result.q95 = errors.quantile(0.95);
  }
  result.mean_deviation = dev.mean();
  result.mean_flips = flips.mean();
  result.mean_acceptance =
      surviving == 0 ? 0.0 : acceptance / static_cast<double>(surviving);

  if (error_streams.size() >= 2 && error_streams[0]->size() >= 2) {
    result.diagnostics.rhat = util::gelman_rubin(error_streams);
  } else {
    result.diagnostics.rhat = 1.0;
  }
  double ess = 0.0, geweke = 0.0;
  for (const auto* stream : error_streams) {
    ess += util::effective_sample_size(*stream);
    geweke = std::max(geweke, std::abs(util::geweke_z(*stream)));
  }
  result.diagnostics.ess = ess;
  result.diagnostics.geweke_max = geweke;
  result.degraded = result.chains_quarantined > 0;
  // A single-chain campaign is a legitimate (if diagnostics-poor) request;
  // losing chains until fewer than two survive is not.
  if (result.degraded && surviving < 2) {
    result.failed = true;
    result.fail_reason =
        std::to_string(result.chains_quarantined) +
        " chain(s) quarantined, fewer than 2 survivors: pooled diagnostics "
        "are not trustworthy";
  }
  result.health = health;
  return result;
}

/// Runs one round of every non-quarantined chain under supervision. On a
/// clean finish the chain's cursor is advanced; on a detected failure the
/// chain restarts fresh (re-derived seed, prior draw + burn-in) up to the
/// retry budget, then is quarantined. Cursors/health entries are per-chain,
/// so the parallel workers never touch shared state.
std::vector<ChainResult> run_round(const bayes::BayesianFaultNetwork& golden,
                                   const ChainTargetFactory& make_target,
                                   double p, const RunnerConfig& config,
                                   std::uint64_t round, ChainSupervisor& sup,
                                   std::vector<ChainCursor>& cursors) {
  BDLFI_CHECK(config.num_chains >= 1);
  obs::TraceSpan round_span("mcmc.round");
  std::vector<ChainResult> chains(config.num_chains);
  util::parallel_for(0, config.num_chains, [&](std::size_t c) {
    if (sup.quarantined(c)) return;
    obs::TraceSpan chain_span("mcmc.chain");
    for (std::size_t attempt = 0;; ++attempt) {
      if (util::interrupt_requested()) {
        chains[c].interrupted = true;
        return;
      }
      auto replica = golden.replicate();
      auto target = make_target(*replica, c);
      MhConfig mc = config.mh;
      GibbsConfig gc = config.gibbs;
      ChainConfig& chain = config.use_gibbs ? static_cast<ChainConfig&>(gc)
                                            : static_cast<ChainConfig&>(mc);
      chain.seed = chain_seed(config.seed, round, c, attempt);
      chain.round_timeout_ms = config.supervisor.round_timeout_ms;
      if (attempt == 0 && cursors[c].valid) {
        chain.resume = true;
        chain.resume_rng = cursors[c].rng_state;
        chain.resume_mask = cursors[c].mask;
      }
      ChainResult r = config.use_gibbs
                          ? GibbsSampler(*replica, *target, p, gc).run()
                          : MhSampler(*replica, *target, p, mc).run();
      if (r.interrupted) {
        chains[c] = std::move(r);
        return;
      }
      const std::string reason = sup.inspect(r);
      if (reason.empty()) {
        cursors[c].valid = true;
        cursors[c].rng_state = r.rng_state;
        cursors[c].mask = r.final_mask;
        chains[c] = std::move(r);
        return;
      }
      // Failed attempt: the cursor is poisoned — any retry (and, if the
      // chain is quarantined, any later inspection) starts from scratch.
      cursors[c].valid = false;
      if (!sup.record_failure(c, round, reason, attempt)) {
        chains[c] = std::move(r);  // keep the failed partial for post-mortem
        return;
      }
      sup.backoff(attempt);
    }
  });
  return chains;
}

/// Campaign health of the round just pooled, for the runner's round hook.
/// `round_acceptance` is this round's per-chain mean, `round_evals` /
/// `round_seconds` this round's work; everything else is cumulative.
obs::RoundEvent make_round_event(const CampaignResult& pooled,
                                 std::size_t round, double p,
                                 double round_acceptance,
                                 std::size_t round_evals,
                                 double round_seconds) {
  obs::RoundEvent event;
  event.round = round;
  event.p = p;
  event.cumulative_samples = pooled.total_samples;
  event.mean_error = pooled.mean_error;
  event.rhat = pooled.diagnostics.rhat;
  event.ess = pooled.diagnostics.ess;
  event.acceptance_rate = round_acceptance;
  event.network_evals = pooled.total_network_evals;
  event.evals_per_sec = round_seconds > 0.0
                            ? static_cast<double>(round_evals) / round_seconds
                            : 0.0;
  const std::size_t cached = pooled.total_truncated_evals;
  const std::size_t total_evals = cached + pooled.total_full_evals;
  event.cache_hit_rate =
      total_evals == 0
          ? 0.0
          : static_cast<double>(cached) / static_cast<double>(total_evals);
  event.round_seconds = round_seconds;
  event.detection_coverage = pooled.detection_coverage();
  event.sdc_rate = pooled.sdc_rate();
  event.outcome_masked = pooled.total_outcome_masked;
  event.outcome_sdc = pooled.total_outcome_sdc;
  event.outcome_detected = pooled.total_outcome_detected;
  event.outcome_corrected = pooled.total_outcome_corrected;
  event.chains_quarantined = pooled.chains_quarantined;
  event.degraded = pooled.degraded;
  return event;
}

/// Fires the health hook for chains quarantined since the last call.
void report_new_quarantines(const RunnerConfig& config,
                            const ChainSupervisor& sup,
                            std::vector<bool>& reported, std::size_t round) {
  if (!config.health_hook) return;
  for (const ChainHealth& h : sup.health()) {
    if (h.status != ChainStatus::quarantined || reported[h.chain]) continue;
    reported[h.chain] = true;
    obs::ChainHealthEvent event;
    event.round = round + 1;
    event.chain = h.chain;
    event.status = "quarantined";
    event.reason = h.last_failure;
    event.retries = h.retries;
    config.health_hook(event);
  }
}

CampaignResult run_chains_impl(const bayes::BayesianFaultNetwork& golden,
                               const ChainTargetFactory& make_target, double p,
                               const RunnerConfig& config) {
  util::Stopwatch timer;
  ChainSupervisor sup(config.supervisor, config.num_chains);
  std::vector<ChainCursor> cursors(config.num_chains);
  std::vector<ChainResult> chains =
      run_round(golden, make_target, p, config, 0, sup, cursors);
  CampaignResult pooled = pool_stats(chains, sup.health());
  for (const ChainResult& c : chains) pooled.interrupted |= c.interrupted;
  pooled.chains = std::move(chains);
  std::vector<bool> reported(config.num_chains, false);
  report_new_quarantines(config, sup, reported, 0);
  if (pooled.failed) {
    BDLFI_LOG_ERROR("campaign failed: %s", pooled.fail_reason.c_str());
  }
  if (config.round_hook) {
    config.round_hook(make_round_event(pooled, 1, p, pooled.mean_acceptance,
                                       pooled.total_network_evals,
                                       timer.seconds()));
  }
  return pooled;
}

CompletenessResult run_until_complete_impl(
    const bayes::BayesianFaultNetwork& golden,
    const ChainTargetFactory& make_target, double p,
    const RunnerConfig& config, const CompletenessCriterion& criterion) {
  CompletenessResult result;
  ChainSupervisor sup(config.supervisor, config.num_chains);
  std::vector<ChainCursor> cursors(config.num_chains);
  // Cumulative per-chain sample streams. Each round continues the chain's
  // walk from its cursor (same RNG stream, same mask), so the streams are
  // single long chains and the pooled diagnostics sharpen monotonically.
  // They are the campaign's one copy of its samples: pooling only reads
  // them, the checkpoint borrows them, and once pooled they move into
  // result.final_result.chains on return.
  std::vector<ChainResult> cumulative(config.num_chains);
  bool pooled_once = false;
  const auto hand_over_streams = [&] {
    if (pooled_once) result.final_result.chains = std::move(cumulative);
  };

  double prev_mean = std::numeric_limits<double>::quiet_NaN();
  std::size_t prev_evals = 0;
  std::size_t start_round = 0;

  const std::uint64_t fingerprint = campaign_fingerprint(golden, config, p);
  const std::string ckpt_path = config.checkpoint_dir.empty()
                                    ? std::string{}
                                    : checkpoint_path(config.checkpoint_dir);

  // Exclusive ownership of the checkpoint dir for the whole campaign: two
  // processes checkpointing into one directory would interleave writes from
  // diverging walks. Held by RAII until the campaign returns.
  CheckpointDirLock dir_lock;
  if (!ckpt_path.empty()) {
    std::string lock_error;
    dir_lock = CheckpointDirLock::acquire(config.checkpoint_dir, &lock_error);
    if (!dir_lock.held()) {
      result.lock_rejected = true;
      result.final_result.failed = true;
      result.final_result.fail_reason = lock_error;
      BDLFI_LOG_ERROR("campaign rejected: %s", lock_error.c_str());
      return result;
    }
  }

  bool restored_converged = false;
  if (config.resume && !ckpt_path.empty() &&
      std::filesystem::exists(ckpt_path)) {
    std::string error;
    auto ck = load_checkpoint(ckpt_path, &error);
    if (!ck.has_value()) {
      // An existing but unreadable checkpoint is rejected rather than
      // silently restarted over: the operator asked to continue that run.
      result.resume_rejected = true;
      result.final_result.failed = true;
      result.final_result.fail_reason = "checkpoint unreadable: " + error;
      BDLFI_LOG_ERROR("resume rejected: %s", error.c_str());
      return result;
    }
    // Backend first: it is the one mismatch with an actionable fix (rerun
    // with --backend=<checkpoint's>), so it gets its own flag and message
    // rather than drowning in the generic fingerprint rejection.
    const std::string active_backend = tensor::backend::active_name();
    if (ck->backend != active_backend) {
      result.resume_rejected = true;
      result.backend_mismatch = true;
      result.final_result.failed = true;
      result.final_result.fail_reason =
          "checkpoint backend mismatch: checkpoint was produced with '" +
          ck->backend + "', this run uses '" + active_backend +
          "' (rerun with --backend=" + ck->backend +
          " to continue bit-exactly)";
      BDLFI_LOG_ERROR("resume rejected: backend mismatch (%s vs %s)",
                      ck->backend.c_str(), active_backend.c_str());
      return result;
    }
    if (ck->fingerprint != fingerprint ||
        ck->chains.size() != config.num_chains) {
      result.resume_rejected = true;
      result.final_result.failed = true;
      result.final_result.fail_reason =
          "checkpoint fingerprint mismatch: different config/seed/network";
      BDLFI_LOG_ERROR("resume rejected: fingerprint mismatch (%s)",
                      ckpt_path.c_str());
      return result;
    }
    // A matching fingerprint pins the space size, so a cursor bit outside
    // the space can only come from an edited file.
    const std::int64_t total_bits = golden.space().total_bits();
    for (std::size_t c = 0; c < ck->cursors.size(); ++c) {
      const auto& bits = ck->cursors[c].mask.bits();
      if (bits.empty() || bits.back() < total_bits) continue;
      result.resume_rejected = true;
      result.final_result.failed = true;
      result.final_result.fail_reason =
          "checkpoint chain " + std::to_string(c) + " cursor holds bit " +
          std::to_string(bits.back()) + ", outside the " +
          std::to_string(total_bits) + "-bit fault space";
      BDLFI_LOG_ERROR("resume rejected: %s",
                      result.final_result.fail_reason.c_str());
      return result;
    }
    cumulative = std::move(ck->chains);
    cursors = std::move(ck->cursors);
    sup.restore(std::move(ck->health));
    prev_mean = ck->prev_mean;
    prev_evals = ck->prev_evals;
    result.trajectory = std::move(ck->trajectory);
    start_round = ck->rounds_completed;
    result.rounds = start_round;
    result.resumed_from_round = start_round;
    restored_converged = ck->converged;
    result.final_result = pool_stats(cumulative, sup.health());
    pooled_once = true;
    BDLFI_LOG_INFO("resumed campaign from %s (%zu round(s) done)",
                   ckpt_path.c_str(), start_round);
  }
  if (restored_converged) {
    result.converged = true;
    hand_over_streams();
    return result;
  }

  std::vector<bool> reported(config.num_chains, false);
  for (const ChainHealth& h : sup.health()) {
    if (h.status == ChainStatus::quarantined) reported[h.chain] = true;
  }

  const auto save = [&](std::size_t rounds_done, bool converged) {
    if (ckpt_path.empty()) return;
    CampaignCheckpoint ck;
    ck.fingerprint = fingerprint;
    ck.backend = tensor::backend::active_name();
    ck.p = p;
    ck.rounds_completed = rounds_done;
    ck.converged = converged;
    ck.prev_mean = prev_mean;
    ck.prev_evals = prev_evals;
    ck.trajectory = result.trajectory;
    ck.chains = std::move(cumulative);  // lent, not copied
    ck.cursors = cursors;
    ck.health = sup.health();
    const bool saved = save_checkpoint(ckpt_path, ck);
    cumulative = std::move(ck.chains);
    if (saved && config.checkpoint_hook) {
      config.checkpoint_hook(rounds_done, ckpt_path);
    }
  };

  for (std::size_t round = start_round; round < criterion.max_rounds; ++round) {
    if (util::interrupt_requested()) {
      result.interrupted = true;
      result.final_result.interrupted = true;
      break;
    }
    util::Stopwatch round_timer;
    auto fresh = run_round(golden, make_target, p, config, round, sup, cursors);
    bool interrupted = util::interrupt_requested();
    for (const auto& c : fresh) interrupted |= c.interrupted;
    if (interrupted) {
      // The partial round is discarded; the previous round's checkpoint is
      // the resume point, which keeps resumed streams bit-exact.
      result.interrupted = true;
      result.final_result.interrupted = true;
      break;
    }

    double round_acceptance = 0.0;
    std::size_t healthy = 0;
    for (std::size_t c = 0; c < config.num_chains; ++c) {
      if (sup.quarantined(c)) continue;
      auto& dst = cumulative[c];
      const auto& src = fresh[c];
      dst.error_samples.insert(dst.error_samples.end(),
                               src.error_samples.begin(),
                               src.error_samples.end());
      dst.deviation_samples.insert(dst.deviation_samples.end(),
                                   src.deviation_samples.begin(),
                                   src.deviation_samples.end());
      dst.flips_samples.insert(dst.flips_samples.end(),
                               src.flips_samples.begin(),
                               src.flips_samples.end());
      dst.mask_samples.insert(dst.mask_samples.end(),
                              src.mask_samples.begin(),
                              src.mask_samples.end());
      dst.network_evals += src.network_evals;
      dst.forwards_skipped += src.forwards_skipped;
      dst.outcome_masked += src.outcome_masked;
      dst.outcome_sdc += src.outcome_sdc;
      dst.outcome_detected += src.outcome_detected;
      dst.outcome_corrected += src.outcome_corrected;
      dst.full_evals += src.full_evals;
      dst.truncated_evals += src.truncated_evals;
      dst.layers_run += src.layers_run;
      dst.layers_total += src.layers_total;
      dst.acceptance_rate = src.acceptance_rate;  // latest round's rate
      round_acceptance += src.acceptance_rate;
      ++healthy;
    }
    round_acceptance /=
        healthy > 0 ? static_cast<double>(healthy) : 1.0;

    CampaignResult pooled = pool_stats(cumulative, sup.health());
    pooled_once = true;
    report_new_quarantines(config, sup, reported, round);
    result.rounds = round + 1;
    result.trajectory.push_back({pooled.total_samples, pooled.mean_error,
                                 pooled.diagnostics.rhat,
                                 pooled.diagnostics.ess});
    if (config.round_hook) {
      obs::RoundEvent event = make_round_event(
          pooled, round + 1, p, round_acceptance,
          pooled.total_network_evals - prev_evals, round_timer.seconds());
      event.rounds_budget = criterion.max_rounds;
      config.round_hook(event);
    }
    prev_evals = pooled.total_network_evals;

    const bool mixed = pooled.diagnostics.rhat <= criterion.rhat_threshold;
    bool stable = false;
    if (!std::isnan(prev_mean)) {
      const double scale = std::max(1.0, std::abs(pooled.mean_error));
      stable = std::abs(pooled.mean_error - prev_mean) / scale <=
               criterion.mean_rel_tol;
    }
    prev_mean = pooled.mean_error;
    const bool converged_now = mixed && stable && !pooled.failed;
    const bool failed_now = pooled.failed;
    const std::string fail_reason = pooled.fail_reason;
    result.final_result = std::move(pooled);
    save(round + 1, converged_now);
    if (converged_now) {
      result.converged = true;
      break;
    }
    if (failed_now) {
      BDLFI_LOG_ERROR("campaign failed at round %zu: %s", round + 1,
                      fail_reason.c_str());
      break;
    }
  }
  hand_over_streams();
  return result;
}

}  // namespace

CampaignResult run_chains(const bayes::BayesianFaultNetwork& golden,
                          const TargetFactory& make_target, double p,
                          const RunnerConfig& config) {
  return run_chains_impl(golden, adapt(make_target), p, config);
}

CampaignResult run_chains(const bayes::BayesianFaultNetwork& golden,
                          const ChainTargetFactory& make_target, double p,
                          const RunnerConfig& config) {
  return run_chains_impl(golden, make_target, p, config);
}

CompletenessResult run_until_complete(
    const bayes::BayesianFaultNetwork& golden,
    const TargetFactory& make_target, double p, const RunnerConfig& config,
    const CompletenessCriterion& criterion) {
  return run_until_complete_impl(golden, adapt(make_target), p, config,
                                 criterion);
}

CompletenessResult run_until_complete(
    const bayes::BayesianFaultNetwork& golden,
    const ChainTargetFactory& make_target, double p, const RunnerConfig& config,
    const CompletenessCriterion& criterion) {
  return run_until_complete_impl(golden, make_target, p, config, criterion);
}

}  // namespace bdlfi::mcmc
