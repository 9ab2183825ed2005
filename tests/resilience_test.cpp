// Crash-safe campaigns: checkpoint roundtrip fidelity, kill-and-resume
// bit-exactness, and the supervisor's retry/quarantine/graceful-degradation
// policy (NaN-poisoned targets, wall-clock timeouts, fingerprint-mismatch
// resume rejection).
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <regex>
#include <sstream>
#include <thread>

#include "bayes/targets.h"
#include "data/toy2d.h"
#include "mcmc/checkpoint.h"
#include "mcmc/runner.h"
#include "mcmc/supervisor.h"
#include "nn/builders.h"
#include "tensor/backend/backend.h"
#include "train/trainer.h"
#include "util/atomic_file.h"
#include "util/interrupt.h"
#include "util/rng.h"

namespace bdlfi::mcmc {
namespace {

// ---------------------------------------------------------------------------
// Shared trained subject (same pattern as inject_test).

class ResilienceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    util::Rng rng{1};
    data_ = new data::Dataset(data::make_two_moons(200, 0.08, rng));
    util::Rng init{2};
    net_ = new nn::Network(nn::make_mlp({2, 16, 2}, init));
    train::TrainConfig config;
    config.epochs = 30;
    config.lr = 0.05;
    config.seed = 3;
    train::fit(*net_, *data_, *data_, config);
    bfn_ = new bayes::BayesianFaultNetwork(
        *net_, bayes::TargetSpec::all_parameters(),
        bayes::AvfProfile::uniform(), data_->inputs, data_->labels);
  }
  static void TearDownTestSuite() {
    delete bfn_;
    delete net_;
    delete data_;
  }
  void SetUp() override { util::set_interrupt_requested(false); }
  void TearDown() override { util::set_interrupt_requested(false); }

  /// Runs `base` uninterrupted and again interrupted after round 2 and
  /// resumed; the two campaigns must agree bit for bit. With
  /// `strip_skip_counter` the checkpoint first loses its forwards_skipped
  /// fields, like a document written before the counter existed.
  static void expect_resume_is_bit_exact(const RunnerConfig& base,
                                         const std::string& name,
                                         bool strip_skip_counter = false);

  static std::string fresh_dir(const std::string& name) {
    const std::string dir = ::testing::TempDir() + "bdlfi_resilience_" + name;
    std::filesystem::remove_all(dir);
    return dir;
  }

  static nn::Network* net_;
  static data::Dataset* data_;
  static bayes::BayesianFaultNetwork* bfn_;
};

nn::Network* ResilienceTest::net_ = nullptr;
data::Dataset* ResilienceTest::data_ = nullptr;
bayes::BayesianFaultNetwork* ResilienceTest::bfn_ = nullptr;

/// A target whose density is NaN everywhere: models a chain whose posterior
/// evaluation is poisoned (wedged numerics, corrupted replica).
class NanTarget : public bayes::MaskTarget {
 public:
  double log_density(const FaultMask&) override {
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::optional<double> analytic_toggle_delta(const FaultMask&,
                                              std::int64_t) override {
    return std::nullopt;
  }
  bool requires_network_eval() const override { return false; }
};

/// A healthy prior target that overruns a round timeout by construction, to
/// trip the cooperative watchdog: it sleeps for `sleep_ms` in the first
/// density evaluation the watchdog times. (The chain's start-up evaluation
/// comes before the watch starts, so that is the second call.)
class SlowTarget : public bayes::MaskTarget {
 public:
  SlowTarget(bayes::BayesianFaultNetwork& net, double p, double sleep_ms)
      : prior_(net, p), sleep_ms_(sleep_ms) {}
  double log_density(const FaultMask& mask) override {
    if (++calls_ == 2) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(sleep_ms_));
    }
    return prior_.log_density(mask);
  }
  std::optional<double> analytic_toggle_delta(const FaultMask&,
                                              std::int64_t) override {
    return std::nullopt;  // force every move through log_density
  }
  bool requires_network_eval() const override { return false; }

 private:
  bayes::PriorTarget prior_;
  double sleep_ms_;
  int calls_ = 0;
};

RunnerConfig small_runner() {
  RunnerConfig config;
  config.num_chains = 2;
  config.mh.samples = 25;
  config.mh.burn_in = 10;
  config.mh.thin = 2;
  config.seed = 9;
  return config;
}

CompletenessCriterion never_converge(std::size_t max_rounds) {
  CompletenessCriterion criterion;
  criterion.rhat_threshold = 0.0;  // unattainable: run every round
  criterion.mean_rel_tol = 0.0;
  criterion.max_rounds = max_rounds;
  return criterion;
}

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i])) {
      EXPECT_TRUE(std::isnan(b[i])) << "index " << i;
    } else {
      EXPECT_EQ(std::memcmp(&a[i], &b[i], sizeof(double)), 0)
          << "index " << i << ": " << a[i] << " vs " << b[i];
    }
  }
}

// ---------------------------------------------------------------------------
// Checkpoint serialization.

TEST(Checkpoint, RoundtripPreservesEveryFieldBitExactly) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  CampaignCheckpoint ck;
  ck.fingerprint = 0xdeadbeefcafef00dULL;
  ck.backend = "avx2";
  ck.p = 1e-3;
  ck.rounds_completed = 3;
  ck.converged = true;
  ck.prev_mean = 12.345678901234567;
  ck.prev_evals = 4242;
  ck.trajectory = {{100, 5e-324, 1.0000000000000002, 37.5},
                   {200, -0.0, 1e308, nan}};

  ChainResult healthy;
  healthy.error_samples = {5e-324, -0.0, 1e308, 0.1, nan};
  healthy.deviation_samples = {1.0, 2.0, 3.0, 4.0, 5.0};
  healthy.flips_samples = {0.0, 1.0, 2.0, 3.0, 4.0};
  healthy.acceptance_rate = 0.12345678901234567;
  healthy.network_evals = 77;
  healthy.full_evals = 7;
  healthy.truncated_evals = 70;
  healthy.layers_run = 123;
  healthy.layers_total = 456;
  ChainResult sick;
  sick.error_samples = {nan};
  sick.deviation_samples = {nan};
  sick.flips_samples = {1.0};
  ck.chains = {healthy, sick};

  util::Rng rng{7};
  rng.normal();  // leave a cached Box–Muller variate in the engine
  for (int i = 0; i < 100; ++i) rng();
  ChainCursor cursor;
  cursor.valid = true;
  cursor.rng_state = rng.state_save();
  cursor.mask = FaultMask({1, 99, 163});
  ck.cursors = {cursor, ChainCursor{}};

  ChainHealth h0, h1;
  h0.chain = 0;
  h1.chain = 1;
  h1.status = ChainStatus::quarantined;
  h1.retries = 3;
  h1.last_failure = "nan_divergence";
  h1.quarantined_round = 2;
  ck.health = {h0, h1};

  const std::string path =
      ::testing::TempDir() + "bdlfi_ckpt_roundtrip/campaign.ckpt.json";
  std::filesystem::remove_all(::testing::TempDir() + "bdlfi_ckpt_roundtrip");
  ASSERT_TRUE(save_checkpoint(path, ck));

  std::string error;
  const auto back = load_checkpoint(path, &error);
  ASSERT_TRUE(back.has_value()) << error;

  EXPECT_EQ(back->fingerprint, ck.fingerprint);
  EXPECT_EQ(back->backend, "avx2");
  EXPECT_EQ(std::memcmp(&back->p, &ck.p, sizeof(double)), 0);
  EXPECT_EQ(back->rounds_completed, 3u);
  EXPECT_TRUE(back->converged);
  EXPECT_EQ(std::memcmp(&back->prev_mean, &ck.prev_mean, sizeof(double)), 0);
  EXPECT_EQ(back->prev_evals, 4242u);

  ASSERT_EQ(back->trajectory.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(back->trajectory[i].cumulative_samples,
              ck.trajectory[i].cumulative_samples);
    expect_bitwise_equal(
        {back->trajectory[i].mean_error, back->trajectory[i].rhat,
         back->trajectory[i].ess},
        {ck.trajectory[i].mean_error, ck.trajectory[i].rhat,
         ck.trajectory[i].ess});
  }
  // The serialized -0.0 must come back with its sign.
  EXPECT_TRUE(std::signbit(back->trajectory[1].mean_error));

  ASSERT_EQ(back->chains.size(), 2u);
  expect_bitwise_equal(back->chains[0].error_samples, healthy.error_samples);
  expect_bitwise_equal(back->chains[0].deviation_samples,
                       healthy.deviation_samples);
  expect_bitwise_equal(back->chains[0].flips_samples, healthy.flips_samples);
  EXPECT_TRUE(std::signbit(back->chains[0].error_samples[1]));
  EXPECT_EQ(std::memcmp(&back->chains[0].acceptance_rate,
                        &healthy.acceptance_rate, sizeof(double)),
            0);
  EXPECT_EQ(back->chains[0].network_evals, 77u);
  EXPECT_EQ(back->chains[0].full_evals, 7u);
  EXPECT_EQ(back->chains[0].truncated_evals, 70u);
  EXPECT_EQ(back->chains[0].layers_run, 123u);
  EXPECT_EQ(back->chains[0].layers_total, 456u);
  EXPECT_TRUE(std::isnan(back->chains[1].error_samples[0]));

  ASSERT_EQ(back->cursors.size(), 2u);
  ASSERT_TRUE(back->cursors[0].valid);
  EXPECT_EQ(back->cursors[0].rng_state, cursor.rng_state);
  EXPECT_EQ(back->cursors[0].mask, cursor.mask);
  EXPECT_FALSE(back->cursors[1].valid);
  // The restored engine must continue the identical stream, cached normal
  // included.
  util::Rng restored{0};
  ASSERT_TRUE(restored.state_load(back->cursors[0].rng_state));
  for (int i = 0; i < 50; ++i) EXPECT_EQ(restored(), rng());

  ASSERT_EQ(back->health.size(), 2u);
  EXPECT_EQ(back->health[0].status, ChainStatus::healthy);
  EXPECT_EQ(back->health[1].status, ChainStatus::quarantined);
  EXPECT_EQ(back->health[1].retries, 3u);
  EXPECT_EQ(back->health[1].last_failure, "nan_divergence");
  EXPECT_EQ(back->health[1].quarantined_round, 2u);
}

TEST(Checkpoint, SkipCounterRoundTripsAndDefaultsToZero) {
  CampaignCheckpoint ck;
  ck.fingerprint = 0x0123456789abcdefULL;
  ck.p = 1e-3;
  ck.rounds_completed = 1;
  ChainResult chain;
  chain.error_samples = {1.0, 2.0};
  chain.deviation_samples = {0.0, 1.0};
  chain.flips_samples = {4.0, 5.0};
  chain.network_evals = 77;
  chain.forwards_skipped = 55;
  ck.chains = {chain};
  ck.cursors = {ChainCursor{}};
  ck.health = {ChainHealth{}};
  const std::string dir = ::testing::TempDir() + "bdlfi_ckpt_skip_counter";
  std::filesystem::remove_all(dir);
  const std::string path = dir + "/campaign.ckpt.json";
  ASSERT_TRUE(save_checkpoint(path, ck));
  std::string error;
  const auto back = load_checkpoint(path, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->chains[0].forwards_skipped, 55u);
  EXPECT_EQ(back->chains[0].network_evals, 77u);

  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  in.close();
  const std::string body = text.str();
  const std::string field = "\"forwards_skipped\":55,";
  const std::size_t at = body.find(field);
  ASSERT_NE(at, std::string::npos);
  const auto load_edited = [&](const std::string& replacement) {
    std::string edited = body;
    edited.replace(at, field.size(), replacement);
    std::ofstream(path) << edited;
    error.clear();
    return load_checkpoint(path, &error);
  };
  // A document from before the counter: loads, with the counter at 0.
  const auto old_doc = load_edited("");
  ASSERT_TRUE(old_doc.has_value()) << error;
  EXPECT_EQ(old_doc->chains[0].forwards_skipped, 0u);
  EXPECT_EQ(old_doc->chains[0].network_evals, 77u);
  // A present counter must still be a count.
  for (const char* bad : {"\"forwards_skipped\":-1,",
                          "\"forwards_skipped\":2.5,",
                          "\"forwards_skipped\":\"7\","}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(load_edited(bad).has_value());
    EXPECT_FALSE(error.empty());
  }
  std::filesystem::remove_all(dir);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(AtomicTextWriter, PiecesWriteTheSameFileAsOneText) {
  const std::string dir = ::testing::TempDir() + "bdlfi_atomic_pieces";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string whole = dir + "/whole.json", split = dir + "/split.json";
  ASSERT_TRUE(util::write_text_atomic(whole, "{\"a\":[1,2],\"b\":3}"));
  util::AtomicTextWriter file(split);
  for (const char* piece : {"{\"a\":[1,", "2],", "", "\"b\":3}"}) {
    ASSERT_TRUE(file.append(piece));
  }
  EXPECT_FALSE(std::filesystem::exists(split));  // not before the commit
  ASSERT_TRUE(file.commit());
  EXPECT_EQ(read_file(split), "{\"a\":[1,2],\"b\":3}\n");
  EXPECT_EQ(read_file(split), read_file(whole));
  EXPECT_FALSE(std::filesystem::exists(split + ".tmp"));
  std::filesystem::remove_all(dir);
}

TEST(AtomicTextWriter, UncommittedOrFailedWritesLeaveThePreviousFile) {
  const std::string dir = ::testing::TempDir() + "bdlfi_atomic_abandon";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/campaign.ckpt.json";
  ASSERT_TRUE(util::write_text_atomic(path, "old"));
  {
    util::AtomicTextWriter file(path);
    ASSERT_TRUE(file.append("new, but never committed"));
  }
  EXPECT_EQ(read_file(path), "old\n");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  // No directory to write into: every step fails and nothing appears.
  util::AtomicTextWriter lost(dir + "/missing/file.json");
  EXPECT_FALSE(lost.append("x"));
  EXPECT_FALSE(lost.commit());
  EXPECT_FALSE(std::filesystem::exists(dir + "/missing"));
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, LoadRejectsMissingAndMalformedFiles) {
  std::string error;
  EXPECT_FALSE(load_checkpoint("/nonexistent/campaign.ckpt.json", &error)
                   .has_value());
  EXPECT_FALSE(error.empty());

  const std::string dir = ::testing::TempDir() + "bdlfi_ckpt_malformed";
  std::filesystem::create_directories(dir);
  const auto write = [&](const std::string& name, const std::string& body) {
    const std::string path = dir + "/" + name;
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    return path;
  };
  EXPECT_FALSE(load_checkpoint(write("garbage.json", "{oops"), &error)
                   .has_value());
  EXPECT_FALSE(
      load_checkpoint(write("wrong_schema.json",
                            "{\"schema\":\"other\",\"version\":1}"),
                      &error)
          .has_value());
  EXPECT_FALSE(load_checkpoint(
                   write("wrong_version.json",
                         "{\"schema\":\"bdlfi_campaign_checkpoint\","
                         "\"version\":99}"),
                   &error)
                   .has_value());
  EXPECT_EQ(error, "unsupported checkpoint version");

  // Well-formed JSON with values a resume cannot run on. Each case starts
  // from a checkpoint that loads, changes one thing (in the struct, or in
  // the written text), and must be rejected with a diagnostic.
  CampaignCheckpoint good;
  good.fingerprint = 0x0123456789abcdefULL;
  good.p = 1e-3;
  good.rounds_completed = 1;
  good.trajectory = {{6, 2.5, 1.01, 5.0}};
  ChainResult chain;
  chain.error_samples = {1.0, 2.0, 3.0};
  chain.deviation_samples = {0.0, 1.0, 2.0};
  chain.flips_samples = {4.0, 5.0, 6.0};
  chain.network_evals = 77;
  good.chains = {chain, chain};
  ChainCursor cursor;
  cursor.valid = true;
  cursor.rng_state = util::Rng{3}.state_save();
  cursor.mask = FaultMask({1, 99, 163});
  good.cursors = {cursor, cursor};
  ChainHealth h0, h1;
  h0.chain = 0;
  h1.chain = 1;
  good.health = {h0, h1};
  const std::string path = dir + "/campaign.ckpt.json";
  ASSERT_TRUE(save_checkpoint(path, good));
  ASSERT_TRUE(load_checkpoint(path, &error).has_value()) << error;

  const auto rejects = [&](const std::string& what,
                           const CampaignCheckpoint& ck,
                           const std::string& from = "",
                           const std::string& to = "") {
    SCOPED_TRACE(what);
    ASSERT_TRUE(save_checkpoint(path, ck));
    if (!from.empty()) {
      std::ifstream in(path);
      std::stringstream text;
      text << in.rdbuf();
      std::string body = text.str();
      const std::size_t at = body.find(from);
      ASSERT_NE(at, std::string::npos) << from;
      body.replace(at, from.size(), to);
      write("campaign.ckpt.json", body);
    }
    error.clear();
    EXPECT_FALSE(load_checkpoint(path, &error).has_value());
    EXPECT_FALSE(error.empty());
  };
  rejects("chain index differs from its position", good,
          "\"chain\":1,\"status\":\"healthy\"",
          "\"chain\":100000000,\"status\":\"quarantined\"");
  rejects("negative cursor bit", good, "\"mask\":[1,", "\"mask\":[-5,");
  rejects("cursor bit beyond 2^53", good, "\"mask\":[1,",
          "\"mask\":[1e300,");
  rejects("fractional cursor bit", good, "\"mask\":[1,",
          "\"mask\":[1.5,");
  rejects("negative count", good, "\"network_evals\":77",
          "\"network_evals\":-1");
  rejects("fractional count", good, "\"network_evals\":77",
          "\"network_evals\":7.5");
  rejects("negative version", good, "\"version\":2", "\"version\":-1");
  CampaignCheckpoint ck = good;
  ck.cursors[0].rng_state.resize(2);
  rejects("cursor rng the engine refuses", ck);
  ck = good;
  ck.chains[1].error_samples.resize(1);
  ck.chains[1].deviation_samples.resize(1);
  ck.chains[1].flips_samples.resize(1);
  rejects("healthy chains of different lengths", ck);
  ck = good;
  ck.chains[0].deviation_samples.pop_back();
  rejects("sample arrays of different lengths", ck);
  ck = good;
  ck.backend.clear();
  rejects("empty backend", ck);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Supervisor policy.

TEST(Supervisor, InspectClassifiesFailures) {
  SupervisorConfig config;
  config.min_acceptance = 0.01;
  config.max_evals_per_round = 1000;
  ChainSupervisor sup(config, 1);

  ChainResult ok;
  ok.error_samples = {1.0, 2.0};
  ok.acceptance_rate = 0.4;
  EXPECT_EQ(sup.inspect(ok), "");

  ChainResult diverged = ok;
  diverged.diverged = true;
  EXPECT_EQ(sup.inspect(diverged), "nan_divergence");

  ChainResult nan_sample = ok;
  nan_sample.error_samples.push_back(
      std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(sup.inspect(nan_sample), "nan_divergence");

  ChainResult timed_out = ok;
  timed_out.timed_out = true;
  EXPECT_EQ(sup.inspect(timed_out), "timeout");

  ChainResult collapsed = ok;
  collapsed.acceptance_rate = 0.0;
  EXPECT_EQ(sup.inspect(collapsed), "acceptance_collapse");

  ChainResult blown = ok;
  blown.network_evals = 5000;
  EXPECT_EQ(sup.inspect(blown), "eval_budget");

  // Detectors with their knob unset stay disarmed.
  ChainSupervisor lax(SupervisorConfig{}, 1);
  EXPECT_EQ(lax.inspect(collapsed), "");
  EXPECT_EQ(lax.inspect(blown), "");
  EXPECT_EQ(lax.inspect(diverged), "nan_divergence");  // always armed
}

TEST(Supervisor, RetriesThenQuarantines) {
  SupervisorConfig config;
  config.max_retries = 2;
  ChainSupervisor sup(config, 3);
  EXPECT_EQ(sup.num_surviving(), 3u);

  EXPECT_TRUE(sup.record_failure(1, 0, "timeout", 0));   // retry allowed
  EXPECT_TRUE(sup.record_failure(1, 0, "timeout", 1));   // retry allowed
  EXPECT_FALSE(sup.record_failure(1, 0, "nan_divergence", 2));  // quarantine
  EXPECT_TRUE(sup.quarantined(1));
  EXPECT_EQ(sup.num_quarantined(), 1u);
  EXPECT_EQ(sup.num_surviving(), 2u);
  EXPECT_EQ(sup.health()[1].retries, 3u);
  EXPECT_EQ(sup.health()[1].last_failure, "nan_divergence");
  EXPECT_EQ(sup.health()[1].quarantined_round, 1u);
  EXPECT_FALSE(sup.quarantined(0));
  EXPECT_FALSE(sup.quarantined(2));
}

TEST(Supervisor, StatusStringsRoundtrip) {
  ChainStatus status = ChainStatus::quarantined;
  EXPECT_TRUE(chain_status_from_string("healthy", &status));
  EXPECT_EQ(status, ChainStatus::healthy);
  EXPECT_TRUE(chain_status_from_string(to_string(ChainStatus::quarantined),
                                       &status));
  EXPECT_EQ(status, ChainStatus::quarantined);
  EXPECT_FALSE(chain_status_from_string("zombie", &status));
}

// ---------------------------------------------------------------------------
// Graceful degradation.

TEST_F(ResilienceTest, NanChainIsQuarantinedAndSurvivorsPooled) {
  RunnerConfig config = small_runner();
  config.num_chains = 4;
  std::vector<obs::ChainHealthEvent> incidents;
  config.health_hook = [&incidents](const obs::ChainHealthEvent& e) {
    incidents.push_back(e);
  };
  const double p = 1e-3;
  ChainTargetFactory factory = [p](bayes::BayesianFaultNetwork& net,
                                   std::size_t chain)
      -> std::unique_ptr<bayes::MaskTarget> {
    if (chain == 0) return std::make_unique<NanTarget>();
    return std::make_unique<bayes::PriorTarget>(net, p);
  };

  const CampaignResult result = run_chains(*bfn_, factory, p, config);

  EXPECT_EQ(result.chains_quarantined, 1u);
  EXPECT_TRUE(result.degraded);
  EXPECT_FALSE(result.failed);  // 3 survivors: campaign is still sound
  ASSERT_EQ(result.health.size(), 4u);
  EXPECT_EQ(result.health[0].status, ChainStatus::quarantined);
  EXPECT_EQ(result.health[0].last_failure, "nan_divergence");
  // Default budget: attempt 0 + max_retries retries, all recorded.
  EXPECT_EQ(result.health[0].retries, 1u + config.supervisor.max_retries);
  for (std::size_t c = 1; c < 4; ++c) {
    EXPECT_EQ(result.health[c].status, ChainStatus::healthy);
  }
  // Pooled statistics come from the survivors and are finite.
  EXPECT_GT(result.total_samples, 0u);
  EXPECT_TRUE(std::isfinite(result.mean_error));
  EXPECT_TRUE(std::isfinite(result.diagnostics.rhat));
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_EQ(incidents[0].chain, 0u);
  EXPECT_EQ(incidents[0].status, "quarantined");
  EXPECT_EQ(incidents[0].reason, "nan_divergence");
}

TEST_F(ResilienceTest, FewerThanTwoSurvivorsFailsLoudlyWithoutAborting) {
  RunnerConfig config = small_runner();
  config.supervisor.max_retries = 0;  // quarantine on first failure
  ChainTargetFactory factory = [](bayes::BayesianFaultNetwork&, std::size_t)
      -> std::unique_ptr<bayes::MaskTarget> {
    return std::make_unique<NanTarget>();
  };

  const CampaignResult result = run_chains(*bfn_, factory, 1e-3, config);

  EXPECT_EQ(result.chains_quarantined, 2u);
  EXPECT_TRUE(result.degraded);
  EXPECT_TRUE(result.failed);
  EXPECT_FALSE(result.fail_reason.empty());
  EXPECT_EQ(result.total_samples, 0u);
}

TEST_F(ResilienceTest, TimedOutChainIsQuarantined) {
  // The slow chain sleeps twice the timeout in one call, so it times out
  // whatever the host load. A healthy chain's whole round takes a few ms,
  // even under ASan: the timeout leaves it far more than 20x headroom.
  constexpr double kTimeoutMs = 1000.0;
  RunnerConfig config = small_runner();
  config.num_chains = 3;
  config.supervisor.round_timeout_ms = kTimeoutMs;
  config.supervisor.max_retries = 0;
  const double p = 1e-3;
  ChainTargetFactory factory = [p](bayes::BayesianFaultNetwork& net,
                                   std::size_t chain)
      -> std::unique_ptr<bayes::MaskTarget> {
    if (chain == 1) return std::make_unique<SlowTarget>(net, p, 2 * kTimeoutMs);
    return std::make_unique<bayes::PriorTarget>(net, p);
  };

  const CampaignResult result = run_chains(*bfn_, factory, p, config);

  EXPECT_EQ(result.chains_quarantined, 1u);
  EXPECT_TRUE(result.degraded);
  EXPECT_FALSE(result.failed);
  EXPECT_EQ(result.health[1].status, ChainStatus::quarantined);
  EXPECT_EQ(result.health[1].last_failure, "timeout");
  EXPECT_TRUE(std::isfinite(result.mean_error));
  EXPECT_GT(result.total_samples, 0u);
}

// ---------------------------------------------------------------------------
// Kill-and-resume.

void ResilienceTest::expect_resume_is_bit_exact(const RunnerConfig& base,
                                                const std::string& name,
                                                bool strip_skip_counter) {
  const CompletenessCriterion criterion = never_converge(4);
  const double p = 1e-3;
  TargetFactory factory = [p](bayes::BayesianFaultNetwork& net) {
    return std::make_unique<bayes::PriorTarget>(net, p);
  };

  // Reference: the uninterrupted campaign.
  const CompletenessResult reference =
      run_until_complete(*bfn_, factory, p, base, criterion);
  ASSERT_EQ(reference.rounds, 4u);

  // Same campaign, checkpointed, "killed" after round 2 via the interrupt
  // flag — exactly what the SIGINT handler sets.
  const std::string dir = fresh_dir(name);
  RunnerConfig interrupted = base;
  interrupted.checkpoint_dir = dir;
  interrupted.round_hook = [](const obs::RoundEvent& e) {
    if (e.round == 2) util::set_interrupt_requested(true);
  };
  const CompletenessResult partial =
      run_until_complete(*bfn_, factory, p, interrupted, criterion);
  EXPECT_TRUE(partial.interrupted);
  EXPECT_EQ(partial.rounds, 2u);
  ASSERT_TRUE(std::filesystem::exists(checkpoint_path(dir)));
  if (strip_skip_counter) {
    std::ifstream in(checkpoint_path(dir));
    std::stringstream text;
    text << in.rdbuf();
    in.close();
    const std::string stripped = std::regex_replace(
        text.str(), std::regex("\"forwards_skipped\":[0-9]+,"), "");
    ASSERT_NE(stripped, text.str());
    std::ofstream(checkpoint_path(dir)) << stripped;
  }

  // Relaunch with --resume semantics.
  util::set_interrupt_requested(false);
  RunnerConfig resumed_config = base;
  resumed_config.checkpoint_dir = dir;
  resumed_config.resume = true;
  const CompletenessResult resumed =
      run_until_complete(*bfn_, factory, p, resumed_config, criterion);

  EXPECT_FALSE(resumed.interrupted);
  EXPECT_FALSE(resumed.resume_rejected);
  EXPECT_EQ(resumed.resumed_from_round, 2u);
  EXPECT_EQ(resumed.rounds, 4u);

  // Bit-exact: the resumed campaign is indistinguishable from the
  // uninterrupted one — trajectory, pooled diagnostics, and every per-chain
  // sample stream.
  ASSERT_EQ(resumed.trajectory.size(), reference.trajectory.size());
  for (std::size_t i = 0; i < reference.trajectory.size(); ++i) {
    EXPECT_EQ(resumed.trajectory[i].cumulative_samples,
              reference.trajectory[i].cumulative_samples);
    expect_bitwise_equal(
        {resumed.trajectory[i].mean_error, resumed.trajectory[i].rhat,
         resumed.trajectory[i].ess},
        {reference.trajectory[i].mean_error, reference.trajectory[i].rhat,
         reference.trajectory[i].ess});
  }
  const CampaignResult& a = resumed.final_result;
  const CampaignResult& b = reference.final_result;
  ASSERT_EQ(a.chains.size(), b.chains.size());
  for (std::size_t c = 0; c < a.chains.size(); ++c) {
    expect_bitwise_equal(a.chains[c].error_samples, b.chains[c].error_samples);
    expect_bitwise_equal(a.chains[c].deviation_samples,
                         b.chains[c].deviation_samples);
    expect_bitwise_equal(a.chains[c].flips_samples, b.chains[c].flips_samples);
    EXPECT_EQ(a.chains[c].network_evals, b.chains[c].network_evals);
    // A stripped document resumes its skip count from 0.
    EXPECT_EQ(a.chains[c].forwards_skipped,
              b.chains[c].forwards_skipped -
                  (strip_skip_counter
                       ? partial.final_result.chains[c].forwards_skipped
                       : 0));
  }
  expect_bitwise_equal({a.mean_error, a.diagnostics.rhat, a.diagnostics.ess},
                       {b.mean_error, b.diagnostics.rhat, b.diagnostics.ess});
  std::filesystem::remove_all(dir);
}

TEST_F(ResilienceTest, ResumeAfterInterruptIsBitExact) {
  // Both samplers continue their cursors through the one chain loop.
  for (const bool gibbs : {false, true}) {
    SCOPED_TRACE(gibbs ? "gibbs" : "mh");
    util::set_interrupt_requested(false);
    RunnerConfig base = small_runner();
    base.use_gibbs = gibbs;
    base.gibbs.samples = base.mh.samples;
    expect_resume_is_bit_exact(base, gibbs ? "resume_gibbs" : "resume");
  }
}

// Checkpoints written before forwards_skipped existed carry no such field:
// they load with the counter at 0 and resume to the same samples.
TEST_F(ResilienceTest, ResumeFromDocumentWithoutSkipCounterIsBitExact) {
  RunnerConfig base = small_runner();
  expect_resume_is_bit_exact(base, "resume_old_document",
                             /*strip_skip_counter=*/true);
}

// The runner keeps one copy of its cumulative streams, lends it to each
// checkpoint and hands it to final_result on return: the returned streams
// are the last checkpoint's, whether the campaign ran out or was
// interrupted, and a campaign stopped before its first round pools nothing.
TEST_F(ResilienceTest, FinalStreamsAreTheLastCheckpointsStreams) {
  const double p = 1e-3;
  TargetFactory factory = [p](bayes::BayesianFaultNetwork& net) {
    return std::make_unique<bayes::PriorTarget>(net, p);
  };
  const auto expect_same_streams = [](const CompletenessResult& result,
                                      const std::string& dir) {
    std::string error;
    const auto ck = load_checkpoint(checkpoint_path(dir), &error);
    ASSERT_TRUE(ck.has_value()) << error;
    EXPECT_EQ(ck->rounds_completed, result.rounds);
    const std::vector<ChainResult>& chains = result.final_result.chains;
    ASSERT_EQ(chains.size(), ck->chains.size());
    std::size_t samples = 0;
    for (std::size_t c = 0; c < chains.size(); ++c) {
      expect_bitwise_equal(chains[c].error_samples,
                           ck->chains[c].error_samples);
      expect_bitwise_equal(chains[c].deviation_samples,
                           ck->chains[c].deviation_samples);
      expect_bitwise_equal(chains[c].flips_samples,
                           ck->chains[c].flips_samples);
      EXPECT_EQ(chains[c].network_evals, ck->chains[c].network_evals);
      EXPECT_EQ(chains[c].forwards_skipped, ck->chains[c].forwards_skipped);
      samples += chains[c].error_samples.size();
    }
    EXPECT_EQ(samples, result.final_result.total_samples);
    EXPECT_EQ(samples, result.rounds * chains.size() * 25);
  };

  const std::string dir = fresh_dir("final_streams");
  RunnerConfig config = small_runner();
  config.checkpoint_dir = dir;
  const CompletenessResult full =
      run_until_complete(*bfn_, factory, p, config, never_converge(3));
  ASSERT_EQ(full.rounds, 3u);
  expect_same_streams(full, dir);

  std::filesystem::remove_all(dir);
  config.round_hook = [](const obs::RoundEvent& e) {
    if (e.round == 2) util::set_interrupt_requested(true);
  };
  const CompletenessResult partial =
      run_until_complete(*bfn_, factory, p, config, never_converge(3));
  EXPECT_TRUE(partial.interrupted);
  ASSERT_EQ(partial.rounds, 2u);
  expect_same_streams(partial, dir);

  std::filesystem::remove_all(dir);
  util::set_interrupt_requested(true);
  const CompletenessResult none =
      run_until_complete(*bfn_, factory, p, config, never_converge(3));
  util::set_interrupt_requested(false);
  EXPECT_TRUE(none.interrupted);
  EXPECT_EQ(none.rounds, 0u);
  EXPECT_TRUE(none.final_result.chains.empty());
  EXPECT_FALSE(std::filesystem::exists(checkpoint_path(dir)));
  std::filesystem::remove_all(dir);
}

TEST_F(ResilienceTest, ResumeRejectsCursorOutsideTheSpace) {
  const double p = 1e-3;
  TargetFactory factory = [p](bayes::BayesianFaultNetwork& net) {
    return std::make_unique<bayes::PriorTarget>(net, p);
  };
  const std::string dir = fresh_dir("cursor_outside");
  RunnerConfig config = small_runner();
  config.checkpoint_dir = dir;
  ASSERT_EQ(run_until_complete(*bfn_, factory, p, config, never_converge(2))
                .rounds,
            2u);

  // The loader accepts the bit (a count below 2^53); only the campaign
  // knows its space ends there.
  std::string error;
  auto ck = load_checkpoint(checkpoint_path(dir), &error);
  ASSERT_TRUE(ck.has_value()) << error;
  ck->cursors[1].mask = FaultMask({3, bfn_->space().total_bits()});
  ASSERT_TRUE(save_checkpoint(checkpoint_path(dir), *ck));

  config.resume = true;
  const CompletenessResult rejected =
      run_until_complete(*bfn_, factory, p, config, never_converge(4));
  EXPECT_TRUE(rejected.resume_rejected);
  EXPECT_FALSE(rejected.backend_mismatch);
  EXPECT_TRUE(rejected.final_result.failed);
  EXPECT_NE(rejected.final_result.fail_reason.find("chain 1"),
            std::string::npos)
      << rejected.final_result.fail_reason;
  EXPECT_EQ(rejected.rounds, 0u);
  std::filesystem::remove_all(dir);
}

TEST_F(ResilienceTest, ResumeRejectsFingerprintMismatch) {
  const double p = 1e-3;
  TargetFactory factory = [p](bayes::BayesianFaultNetwork& net) {
    return std::make_unique<bayes::PriorTarget>(net, p);
  };
  const std::string dir = fresh_dir("mismatch");
  RunnerConfig config = small_runner();
  config.checkpoint_dir = dir;
  const CompletenessResult first =
      run_until_complete(*bfn_, factory, p, config, never_converge(2));
  ASSERT_EQ(first.rounds, 2u);
  ASSERT_TRUE(std::filesystem::exists(checkpoint_path(dir)));

  // Different seed → different fingerprint → rejected, nothing run.
  RunnerConfig other_seed = config;
  other_seed.resume = true;
  other_seed.seed = config.seed + 1;
  const CompletenessResult rejected =
      run_until_complete(*bfn_, factory, p, other_seed, never_converge(4));
  EXPECT_TRUE(rejected.resume_rejected);
  EXPECT_TRUE(rejected.final_result.failed);
  EXPECT_EQ(rejected.rounds, 0u);

  // Different flip probability → rejected too.
  RunnerConfig same = config;
  same.resume = true;
  const CompletenessResult wrong_p =
      run_until_complete(*bfn_, factory, 2e-3, same, never_converge(4));
  EXPECT_TRUE(wrong_p.resume_rejected);

  // Matching config extends the run past the original budget.
  const CompletenessResult extended =
      run_until_complete(*bfn_, factory, p, same, never_converge(3));
  EXPECT_FALSE(extended.resume_rejected);
  EXPECT_EQ(extended.resumed_from_round, 2u);
  EXPECT_EQ(extended.rounds, 3u);
  std::filesystem::remove_all(dir);
}

TEST_F(ResilienceTest, ResumeRejectsKernelBackendMismatch) {
  const double p = 1e-3;
  TargetFactory factory = [p](bayes::BayesianFaultNetwork& net) {
    return std::make_unique<bayes::PriorTarget>(net, p);
  };
  const std::string dir = fresh_dir("backend_mismatch");
  RunnerConfig config = small_runner();
  config.checkpoint_dir = dir;
  const CompletenessResult first =
      run_until_complete(*bfn_, factory, p, config, never_converge(2));
  ASSERT_EQ(first.rounds, 2u);

  // The checkpoint records the backend it ran on (scalar in the test
  // environment: BDLFI_BACKEND is unset).
  std::string error;
  auto ck = load_checkpoint(checkpoint_path(dir), &error);
  ASSERT_TRUE(ck.has_value()) << error;
  EXPECT_EQ(ck->backend, tensor::backend::active_name());

  // Rewrite it as if a vectorized backend had produced it; resuming under
  // the current (different) backend must be rejected with the dedicated
  // backend_mismatch flag, before the fingerprint even gets compared.
  ck->backend = "avx2-imaginary";
  ASSERT_TRUE(save_checkpoint(checkpoint_path(dir), *ck));
  RunnerConfig resume_config = config;
  resume_config.resume = true;
  const CompletenessResult rejected =
      run_until_complete(*bfn_, factory, p, resume_config, never_converge(4));
  EXPECT_TRUE(rejected.resume_rejected);
  EXPECT_TRUE(rejected.backend_mismatch);
  EXPECT_TRUE(rejected.final_result.failed);
  EXPECT_NE(rejected.final_result.fail_reason.find("backend"),
            std::string::npos);
  EXPECT_EQ(rejected.rounds, 0u);

  // A fingerprint mismatch alone is NOT flagged as a backend mismatch.
  RunnerConfig other_seed = resume_config;
  other_seed.seed = config.seed + 1;
  ck->backend = tensor::backend::active_name();
  ASSERT_TRUE(save_checkpoint(checkpoint_path(dir), *ck));
  const CompletenessResult fp_only =
      run_until_complete(*bfn_, factory, p, other_seed, never_converge(4));
  EXPECT_TRUE(fp_only.resume_rejected);
  EXPECT_FALSE(fp_only.backend_mismatch);
  std::filesystem::remove_all(dir);
}

TEST_F(ResilienceTest, ResumeWithoutCheckpointIsAFreshStart) {
  const double p = 1e-3;
  TargetFactory factory = [p](bayes::BayesianFaultNetwork& net) {
    return std::make_unique<bayes::PriorTarget>(net, p);
  };
  const std::string dir = fresh_dir("fresh");
  RunnerConfig config = small_runner();
  config.checkpoint_dir = dir;
  config.resume = true;  // nothing there yet: must not reject
  const CompletenessResult result =
      run_until_complete(*bfn_, factory, p, config, never_converge(2));
  EXPECT_FALSE(result.resume_rejected);
  EXPECT_EQ(result.resumed_from_round, 0u);
  EXPECT_EQ(result.rounds, 2u);
  EXPECT_TRUE(std::filesystem::exists(checkpoint_path(dir)));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace bdlfi::mcmc
