// Output verification against the slow reference path: a fresh
// BayesianFaultNetwork with truncated replay off, evaluating one mask per
// call. Every check is one op; a check whose outcome disagrees with the
// reference is a failed op.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>

#include "bayes/fault_network.h"
#include "mcmc/runner.h"
#include "workload.h"

namespace bdlfi::campaign_bench {

/// Attempted and failed ops of one run.
struct OpLedger {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t checks = 0;      // verification checks among the ops
  std::size_t mismatches = 0;  // failed verification checks

  void op(bool ok);
  void check(bool ok);
};

/// The reference network the checks compare against.
std::unique_ptr<bayes::BayesianFaultNetwork> make_reference(
    const Subject& subject);

/// Bit-for-bit equality of the fields a campaign records.
bool same_outcome(const bayes::MaskOutcome& a, const bayes::MaskOutcome& b);

/// Checks each `observed[i]` against the reference evaluation of
/// `masks[i]`, one check per mask.
void check_outcomes(bayes::BayesianFaultNetwork& reference,
                    std::span<const fault::FaultMask> masks,
                    std::span<const bayes::MaskOutcome> observed,
                    OpLedger& ledger);

/// Checks each replayed outcome against the error and deviation samples its
/// campaign recorded for the same mask, one check per outcome.
void check_recorded(std::span<const bayes::MaskOutcome> replayed,
                    std::span<const double> errors,
                    std::span<const double> deviations, OpLedger& ledger);

/// Campaign-level checks of one finished campaign:
///  - one op per chain-round, failed when the chain was retried or
///    quarantined;
///  - one check of the invariants (round count, outcome counts summing to
///    the sample count, no failure, no interrupt);
///  - one check per chain that its final mask, read back from the campaign
///    checkpoint, re-evaluates on the reference path to exactly the last
///    retained error sample.
/// Failures are described on stderr.
void verify_campaign(const mcmc::CompletenessResult& result,
                     std::size_t expected_rounds,
                     const std::string& checkpoint_path,
                     bayes::BayesianFaultNetwork& reference, OpLedger& ledger);

}  // namespace bdlfi::campaign_bench
