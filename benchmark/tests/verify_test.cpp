// The verifier counts one altered outcome as exactly one failed op, both for
// replayed outcomes and for a campaign's last retained sample.
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "campaign.h"
#include "verify.h"
#include "workload.h"

using namespace bdlfi;
using namespace bdlfi::campaign_bench;

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

}  // namespace

int main() {
  const auto workload = find_workload("mlp-checkpointed", /*smoke=*/true);
  Setup setup = set_up(*workload, nullptr);
  const auto reference = make_reference(setup.subject);

  // Replayed outcomes from the production (truncated, batched) path.
  util::Rng rng{5};
  std::vector<fault::FaultMask> masks;
  for (int i = 0; i < 16; ++i) {
    masks.push_back(setup.bfn->sample_prior_mask(1e-2, rng));
  }
  std::vector<bayes::MaskOutcome> outcomes =
      setup.bfn->evaluate({masks, 8}).outcomes;

  OpLedger clean;
  check_outcomes(*reference, masks, outcomes, clean);
  expect(clean.attempted == masks.size(), "one op per replayed mask");
  expect(clean.failed == 0, "unaltered outcomes all match the reference");

  outcomes[3].classification_error =
      std::nextafter(outcomes[3].classification_error, 1e9);
  OpLedger altered;
  check_outcomes(*reference, masks, outcomes, altered);
  expect(altered.failed == 1 && altered.mismatches == 1,
         "one altered outcome is one failed op");

  // A finished campaign whose last retained sample is altered.
  Watchdog watchdog(60.0, [] {});
  CampaignOptions options;
  options.seed = 3;
  options.checkpoint_dir = "verify_test_ckpt";
  CampaignRun run = run_campaign(*workload, *setup.bfn, options, watchdog);

  OpLedger campaign;
  verify_campaign(run.result, workload->rounds, run.checkpoint_path,
                  *reference, campaign);
  expect(campaign.attempted > 0 && campaign.failed == 0,
         "an unaltered campaign verifies");

  auto& samples = run.result.final_result.chains.front().error_samples;
  samples.back() = std::nextafter(samples.back(), 1e9);
  OpLedger broken;
  verify_campaign(run.result, workload->rounds, run.checkpoint_path,
                  *reference, broken);
  expect(broken.failed == 1 && broken.attempted == campaign.attempted,
         "an altered last sample is one failed op");
  std::filesystem::remove_all(options.checkpoint_dir);

  if (failures == 0) std::printf("verify_test: ok\n");
  return failures == 0 ? 0 : 1;
}
