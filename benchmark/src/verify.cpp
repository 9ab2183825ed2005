#include "verify.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>

#include "mcmc/checkpoint.h"

namespace bdlfi::campaign_bench {

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bayes::MaskOutcome reference_outcome(bayes::BayesianFaultNetwork& reference,
                                     const fault::FaultMask& mask) {
  return reference.evaluate({std::span<const fault::FaultMask>(&mask, 1), 1})
      .outcomes.front();
}

}  // namespace

void OpLedger::op(bool ok) {
  ++attempted;
  if (!ok) ++failed;
}

void OpLedger::check(bool ok) {
  op(ok);
  ++checks;
  if (!ok) ++mismatches;
}

std::unique_ptr<bayes::BayesianFaultNetwork> make_reference(
    const Subject& subject) {
  bayes::EvalCacheConfig cache;
  cache.enable_truncated_replay = false;
  return make_bfn(subject, cache);
}

bool same_outcome(const bayes::MaskOutcome& a, const bayes::MaskOutcome& b) {
  return same_bits(a.classification_error, b.classification_error) &&
         same_bits(a.deviation, b.deviation) &&
         same_bits(a.detected, b.detected) && same_bits(a.sdc, b.sdc) &&
         a.flipped_bits == b.flipped_bits && a.outcome == b.outcome;
}

void check_outcomes(bayes::BayesianFaultNetwork& reference,
                    std::span<const fault::FaultMask> masks,
                    std::span<const bayes::MaskOutcome> observed,
                    OpLedger& ledger) {
  for (std::size_t i = 0; i < masks.size(); ++i) {
    const bool ok = i < observed.size() &&
                    same_outcome(reference_outcome(reference, masks[i]),
                                 observed[i]);
    if (!ok) {
      std::fprintf(stderr, "verify: replayed outcome %zu differs from the "
                           "reference path\n", i);
    }
    ledger.check(ok);
  }
}

void check_recorded(std::span<const bayes::MaskOutcome> replayed,
                    std::span<const double> errors,
                    std::span<const double> deviations, OpLedger& ledger) {
  for (std::size_t i = 0; i < replayed.size(); ++i) {
    const bool ok = i < errors.size() && i < deviations.size() &&
                    same_bits(replayed[i].classification_error, errors[i]) &&
                    same_bits(replayed[i].deviation, deviations[i]);
    if (!ok) {
      std::fprintf(stderr, "verify: replayed mask %zu differs from the "
                           "sample its campaign recorded\n", i);
    }
    ledger.check(ok);
  }
}

void verify_campaign(const mcmc::CompletenessResult& result,
                     std::size_t expected_rounds,
                     const std::string& checkpoint_path,
                     bayes::BayesianFaultNetwork& reference, OpLedger& ledger) {
  const mcmc::CampaignResult& pooled = result.final_result;
  const std::size_t chains = pooled.chains.size();

  for (std::size_t c = 0; c < chains; ++c) {
    std::size_t failed_rounds = 0;
    if (c < pooled.health.size()) {
      const mcmc::ChainHealth& h = pooled.health[c];
      failed_rounds = h.retries;
      if (h.status == mcmc::ChainStatus::quarantined) {
        failed_rounds += expected_rounds + 1 - h.quarantined_round;
      }
    }
    failed_rounds = std::min(failed_rounds, expected_rounds);
    for (std::size_t r = 0; r < expected_rounds; ++r) {
      ledger.op(r >= failed_rounds);
    }
  }

  bool invariants = result.rounds == expected_rounds && !pooled.failed &&
                    !result.interrupted && pooled.chains_quarantined == 0;
  for (const mcmc::ChainResult& chain : pooled.chains) {
    const std::size_t outcomes = chain.outcome_masked + chain.outcome_sdc +
                                 chain.outcome_detected +
                                 chain.outcome_corrected;
    invariants = invariants && outcomes == chain.error_samples.size();
  }
  if (!invariants) {
    std::fprintf(stderr,
                 "verify: campaign invariants broken (rounds %zu of %zu, "
                 "failed=%d, interrupted=%d, quarantined=%zu)\n",
                 result.rounds, expected_rounds, pooled.failed ? 1 : 0,
                 result.interrupted ? 1 : 0, pooled.chains_quarantined);
  }
  ledger.check(invariants);

  std::string error;
  const auto ck = mcmc::load_checkpoint(checkpoint_path, &error);
  if (!ck.has_value()) {
    std::fprintf(stderr, "verify: cannot read checkpoint %s: %s\n",
                 checkpoint_path.c_str(), error.c_str());
  }
  for (std::size_t c = 0; c < chains; ++c) {
    const auto& samples = pooled.chains[c].error_samples;
    bool ok = ck.has_value() && c < ck->cursors.size() &&
              ck->cursors[c].valid && !samples.empty();
    if (ok) {
      const double replayed =
          reference_outcome(reference, ck->cursors[c].mask)
              .classification_error;
      ok = same_bits(replayed, samples.back());
    }
    if (!ok) {
      std::fprintf(stderr, "verify: chain %zu final mask does not reproduce "
                           "its last retained sample\n", c);
    }
    ledger.check(ok);
  }
}

}  // namespace bdlfi::campaign_bench
