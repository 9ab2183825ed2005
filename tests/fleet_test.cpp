// Fleet orchestration: spec parsing/expansion determinism, checkpoint-dir
// locking, the worker's deterministic result document, and the crash-tolerant
// multiprocess runner — SIGKILL mid-round resumes to a byte-identical pooled
// result, retry exhaustion quarantines the campaign without failing the rest,
// a stale stream in a reused output dir counts no rounds, and a held lock
// rejects a second campaign on the same checkpoint dir.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "bayes/targets.h"
#include "data/toy2d.h"
#include "fleet/runner.h"
#include "fleet/spec.h"
#include "fleet/worker.h"
#include "mcmc/checkpoint.h"
#include "mcmc/runner.h"
#include "nn/builders.h"
#include "nn/checkpoint.h"
#include "obs/json.h"
#include "train/trainer.h"
#include "util/interrupt.h"
#include "util/rng.h"

namespace bdlfi::fleet {
namespace {

// ctest runs every test case in its own process, several at once; a
// per-process prefix keeps one case's set-up and teardown from deleting files
// a sibling process is still using.
std::string temp_path(const std::string& name) {
#if defined(__unix__) || defined(__APPLE__)
  const std::string pid = std::to_string(::getpid());
#else
  const std::string pid = "0";
#endif
  return ::testing::TempDir() + "bdlfi_fleet_" + pid + "_" + name;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = temp_path(name);
  std::filesystem::remove_all(dir);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& body) {
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::ofstream out(path, std::ios::binary);
  out << body;
}

/// Every line of a JSONL file must be a strict JSON object.
void expect_valid_jsonl(const std::string& path) {
  const std::string text = read_file(path);
  ASSERT_FALSE(text.empty()) << path;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    std::string error;
    const auto doc = obs::json_parse(line, &error);
    ASSERT_TRUE(doc.has_value()) << path << ": " << error << ": " << line;
    EXPECT_TRUE(doc->is_object());
  }
}

// ---------------------------------------------------------------------------
// Spec parsing and expansion.

TEST(FleetSpec, ExpandsAxisCrossProductDeterministically) {
  const std::string text = R"({
    "schema": "bdlfi_fleet_spec", "version": 1,
    "defaults": {"ckpt": "golden.ckpt", "chains": 2, "seed": 5},
    "campaigns": [
      {"name": "c", "p": [1e-3, 2e-3], "abft": ["off", "detect"]}
    ]})";
  std::string error;
  const auto fleet = parse_fleet_spec(text, &error);
  ASSERT_TRUE(fleet.has_value()) << error;
  ASSERT_EQ(fleet->campaigns.size(), 4u);

  // Expansion order is the fixed axis order (p before abft), first axis
  // fastest — independent of JSON member ordering.
  EXPECT_EQ(fleet->campaigns[0].name, "c-p=0.001-abft=off");
  EXPECT_EQ(fleet->campaigns[1].name, "c-p=0.002-abft=off");
  EXPECT_EQ(fleet->campaigns[2].name, "c-p=0.001-abft=detect");
  EXPECT_EQ(fleet->campaigns[3].name, "c-p=0.002-abft=detect");
  EXPECT_DOUBLE_EQ(fleet->campaigns[1].p, 2e-3);
  EXPECT_EQ(fleet->campaigns[2].abft, "detect");

  // Defaults flow into every expanded campaign.
  for (const CampaignSpec& c : fleet->campaigns) {
    EXPECT_EQ(c.ckpt, "golden.ckpt");
    EXPECT_EQ(c.chains, 2u);
    EXPECT_EQ(c.seed, 5u);
    ASSERT_EQ(c.id.size(), 16u) << c.name;
  }
  // Ids are distinct per campaign and stable across parses.
  const auto again = parse_fleet_spec(text, &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(fleet->id, again->id);
  EXPECT_EQ(fleet->id.size(), 16u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(fleet->campaigns[i].id, again->campaigns[i].id);
    for (std::size_t j = i + 1; j < 4; ++j) {
      EXPECT_NE(fleet->campaigns[i].id, fleet->campaigns[j].id);
    }
  }
}

TEST(FleetSpec, SingleValuedAxisGetsNoSuffixAndEmptyLayerNamesNone) {
  const std::string text = R"({
    "schema": "bdlfi_fleet_spec", "version": 1,
    "campaigns": [
      {"name": "solo", "ckpt": "g.ckpt", "p": [1e-3]},
      {"name": "sweep", "ckpt": "g.ckpt", "layer": ["", "fc1"]}
    ]})";
  std::string error;
  const auto fleet = parse_fleet_spec(text, &error);
  ASSERT_TRUE(fleet.has_value()) << error;
  ASSERT_EQ(fleet->campaigns.size(), 3u);
  EXPECT_EQ(fleet->campaigns[0].name, "solo");
  EXPECT_DOUBLE_EQ(fleet->campaigns[0].p, 1e-3);
  EXPECT_EQ(fleet->campaigns[1].name, "sweep-layer=none");
  EXPECT_EQ(fleet->campaigns[1].layer, "");
  EXPECT_EQ(fleet->campaigns[2].name, "sweep-layer=fc1");
  EXPECT_EQ(fleet->campaigns[2].layer, "fc1");
}

TEST(FleetSpec, CampaignOverridesDefaults) {
  const std::string text = R"({
    "schema": "bdlfi_fleet_spec", "version": 1,
    "workers": 3, "worker_timeout_ms": 1500, "max_worker_retries": 7,
    "defaults": {"ckpt": "g.ckpt", "seed": 5, "chains": 8},
    "campaigns": [{"name": "c", "seed": 9}]})";
  std::string error;
  const auto fleet = parse_fleet_spec(text, &error);
  ASSERT_TRUE(fleet.has_value()) << error;
  EXPECT_EQ(fleet->workers, 3u);
  EXPECT_DOUBLE_EQ(fleet->worker_timeout_ms, 1500.0);
  EXPECT_EQ(fleet->max_worker_retries, 7u);
  ASSERT_EQ(fleet->campaigns.size(), 1u);
  EXPECT_EQ(fleet->campaigns[0].seed, 9u);   // campaign wins
  EXPECT_EQ(fleet->campaigns[0].chains, 8u);  // default survives
}

TEST(FleetSpec, RejectsMalformedSpecs) {
  const auto reject = [](const std::string& text,
                         const std::string& fragment) {
    std::string error;
    const auto fleet = parse_fleet_spec(text, &error);
    EXPECT_FALSE(fleet.has_value()) << text;
    EXPECT_NE(error.find(fragment), std::string::npos)
        << "error was: " << error;
  };
  const std::string head = R"({"schema": "bdlfi_fleet_spec", "version": 1,)";

  reject(R"({"version": 1, "campaigns": [{"name":"c","ckpt":"g"}]})",
         "missing required key 'schema'");
  reject(R"({"schema": "bdlfi_fleet_spec",
             "campaigns": [{"name":"c","ckpt":"g"}]})",
         "missing required key 'version'");
  reject(R"({"schema": "other", "version": 1, "campaigns": []})",
         "unexpected schema");
  reject(R"({"schema": "bdlfi_fleet_spec", "version": 99, "campaigns": []})",
         "unsupported fleet spec version");
  reject(head + R"("campaigns": []})", "non-empty");
  reject(head + R"("bogus": 1, "campaigns": [{"name":"c","ckpt":"g"}]})",
         "unknown top-level key 'bogus'");
  reject(head + R"("campaigns": [{"name":"c","ckpt":"g","bogus":1}]})",
         "unknown campaign key 'bogus'");
  reject(head + R"("defaults": {"bogus": 1},
                   "campaigns": [{"name":"c","ckpt":"g"}]})",
         "unknown campaign key 'bogus'");
  reject(head + R"("campaigns": [{"name":"c","ckpt":"g","chains":[2,4]}]})",
         "cannot be an array");
  reject(head + R"("campaigns": [{"name":"c","ckpt":"g","p":[]}]})",
         "must not be empty");
  reject(head + R"("campaigns": [{"name":"c","ckpt":"g"},
                                 {"name":"c","ckpt":"g"}]})",
         "duplicate campaign name");
  reject(head + R"("campaigns": [{"name":"c"}]})", "'ckpt' is required");
  reject(head + R"("campaigns": [{"name":"c","ckpt":"g","p":1.5}]})",
         "'p' must be in (0, 1)");
  reject(head + R"("campaigns": [{"name":"c","ckpt":"g","avf":"bogus"}]})",
         "unknown avf");
  reject(head + R"("campaigns": [{"name":"bad name","ckpt":"g"}]})",
         "name contains");
  reject(head + R"("campaigns": [{"name":"c","ckpt":"g","chains":2.5}]})",
         "non-negative integer");
  reject("{nope", "not valid JSON");
}

TEST(FleetSpec, LoadReadsFileAndReportsMissingPath) {
  const std::string dir = fresh_dir("spec_io");
  const std::string path = dir + "/fleet.json";
  write_file(path, R"({"schema": "bdlfi_fleet_spec", "version": 1,
                       "campaigns": [{"name":"c","ckpt":"g.ckpt"}]})");
  std::string error;
  const auto fleet = load_fleet_spec(path, &error);
  ASSERT_TRUE(fleet.has_value()) << error;
  EXPECT_EQ(fleet->campaigns.size(), 1u);

  EXPECT_FALSE(load_fleet_spec(dir + "/absent.json", &error).has_value());
  EXPECT_NE(error.find("cannot read"), std::string::npos);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Checkpoint-directory lock.

TEST(CheckpointDirLock, SecondAcquireFailsWhileHeldAndReleaseFrees) {
  const std::string dir = fresh_dir("lock_contention");
  std::string error;
  mcmc::CheckpointDirLock first = mcmc::CheckpointDirLock::acquire(dir, &error);
  ASSERT_TRUE(first.held()) << error;
  EXPECT_TRUE(std::filesystem::exists(mcmc::checkpoint_lock_path(dir)));

  mcmc::CheckpointDirLock second =
      mcmc::CheckpointDirLock::acquire(dir, &error);
  EXPECT_FALSE(second.held());
  EXPECT_NE(error.find("locked by pid"), std::string::npos) << error;

  first.release();
  EXPECT_FALSE(std::filesystem::exists(mcmc::checkpoint_lock_path(dir)));
  mcmc::CheckpointDirLock third = mcmc::CheckpointDirLock::acquire(dir, &error);
  EXPECT_TRUE(third.held()) << error;
  std::filesystem::remove_all(dir);
}

TEST(CheckpointDirLock, StaleAndUnparseableLocksAreBroken) {
  const std::string dir = fresh_dir("lock_stale");
  // A pid beyond any real pid table: the owner cannot exist.
  write_file(mcmc::checkpoint_lock_path(dir), "999999999\n");
  std::string error;
  {
    mcmc::CheckpointDirLock lock = mcmc::CheckpointDirLock::acquire(dir, &error);
    EXPECT_TRUE(lock.held()) << error;
  }
  // A torn/garbage lock file can only come from a dead owner.
  write_file(mcmc::checkpoint_lock_path(dir), "not-a-pid");
  mcmc::CheckpointDirLock lock = mcmc::CheckpointDirLock::acquire(dir, &error);
  EXPECT_TRUE(lock.held()) << error;
  std::filesystem::remove_all(dir);
}

TEST(CheckpointDirLock, RunUntilCompleteRejectsLockedDir) {
  util::Rng data_rng{1};
  data::Dataset data = data::make_two_moons(60, 0.08, data_rng);
  util::Rng init_rng{2};
  nn::Network net = nn::make_mlp({2, 8, 2}, init_rng);
  bayes::BayesianFaultNetwork bfn(net, bayes::TargetSpec::all_parameters(),
                                  bayes::AvfProfile::uniform(), data.inputs,
                                  data.labels);
  const double p = 1e-3;
  mcmc::TargetFactory factory = [p](bayes::BayesianFaultNetwork& n) {
    return std::make_unique<bayes::PriorTarget>(n, p);
  };
  mcmc::RunnerConfig config;
  config.num_chains = 2;
  config.mh.samples = 5;
  config.mh.burn_in = 2;
  config.mh.thin = 1;
  config.checkpoint_dir = fresh_dir("lock_reject");
  mcmc::CompletenessCriterion criterion;
  criterion.max_rounds = 1;

  std::string error;
  mcmc::CheckpointDirLock held =
      mcmc::CheckpointDirLock::acquire(config.checkpoint_dir, &error);
  ASSERT_TRUE(held.held()) << error;

  const mcmc::CompletenessResult rejected =
      mcmc::run_until_complete(bfn, factory, p, config, criterion);
  EXPECT_TRUE(rejected.lock_rejected);
  EXPECT_TRUE(rejected.final_result.failed);
  EXPECT_EQ(rejected.rounds, 0u);
  EXPECT_NE(rejected.final_result.fail_reason.find("locked by pid"),
            std::string::npos);

  // Releasing the lock lets the campaign run (and take the lock itself).
  held.release();
  const mcmc::CompletenessResult ran =
      mcmc::run_until_complete(bfn, factory, p, config, criterion);
  EXPECT_FALSE(ran.lock_rejected);
  EXPECT_EQ(ran.rounds, 1u);
  // The campaign's own lock is released on return.
  EXPECT_FALSE(std::filesystem::exists(
      mcmc::checkpoint_lock_path(config.checkpoint_dir)));
  std::filesystem::remove_all(config.checkpoint_dir);
}

// ---------------------------------------------------------------------------
// Fleet runs. A trained golden checkpoint matching the worker's mlp subject
// recipe is shared by every test below.

class FleetRunTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    util::Rng data_rng{11};
    data::Dataset all = data::make_two_moons(400, 0.08, data_rng);
    util::Rng init_rng{12};
    nn::Network net = nn::make_mlp({2, 16, 32, 2}, init_rng);
    train::TrainConfig config;
    config.epochs = 8;
    config.lr = 0.05;
    config.seed = 3;
    train::fit(net, all, all, config);
    ckpt_path_ = new std::string(temp_path("golden.ckpt"));
    ASSERT_TRUE(nn::save_checkpoint(net, *ckpt_path_));
  }
  static void TearDownTestSuite() {
    std::filesystem::remove(*ckpt_path_);
    delete ckpt_path_;
    ckpt_path_ = nullptr;
  }
  void SetUp() override { util::set_interrupt_requested(false); }
  void TearDown() override { util::set_interrupt_requested(false); }

  /// A two-campaign fleet sized so each round takes a supervisor-visible
  /// amount of wall clock (the chaos kill must land mid-campaign).
  static FleetSpec two_campaign_fleet() {
    const std::string text = R"({
      "schema": "bdlfi_fleet_spec", "version": 1,
      "workers": 2, "worker_backoff_ms": 10, "worker_backoff_cap_ms": 20,
      "defaults": {
        "ckpt": ")" + *ckpt_path_ + R"(",
        "samples": 2000, "chains": 2, "samples_per_chain": 80,
        "burn_in": 20, "thin": 2, "mask_batch": 4, "seed": 21,
        "rhat": 0.2, "tol": 0.0, "max_rounds": 3
      },
      "campaigns": [{"name": "p-lo", "p": 1e-3}, {"name": "p-hi", "p": 2e-3}]
    })";
    std::string error;
    const auto fleet = parse_fleet_spec(text, &error);
    EXPECT_TRUE(fleet.has_value()) << error;
    return *fleet;
  }

  static std::string* ckpt_path_;
};

std::string* FleetRunTest::ckpt_path_ = nullptr;

TEST_F(FleetRunTest, WorkerWritesDeterministicResultDocument) {
  const std::string spec_text = R"({
    "schema": "bdlfi_fleet_spec", "version": 1,
    "campaigns": [{
      "name": "tiny", "ckpt": ")" + *ckpt_path_ + R"(",
      "samples": 200, "chains": 2, "samples_per_chain": 10,
      "burn_in": 5, "thin": 1, "max_rounds": 1, "rhat": 0.5, "tol": 0.0
    }]})";
  std::string error;
  const auto fleet = parse_fleet_spec(spec_text, &error);
  ASSERT_TRUE(fleet.has_value()) << error;
  const CampaignSpec& spec = fleet->campaigns[0];

  const std::string out_a = fresh_dir("worker_a");
  const std::string out_b = fresh_dir("worker_b");
  const WorkerPaths paths_a = worker_paths(out_a, spec.name, 1);
  const WorkerPaths paths_b = worker_paths(out_b, spec.name, 1);
  // One round against an unattainable criterion: budget exhausted, exit 3.
  EXPECT_EQ(run_worker(spec, paths_a, false), 3);
  EXPECT_EQ(run_worker(spec, paths_b, false), 3);

  const std::string doc_a = read_file(paths_a.result_path);
  ASSERT_FALSE(doc_a.empty());
  EXPECT_EQ(doc_a, read_file(paths_b.result_path));

  const auto doc = obs::json_parse(doc_a, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->find("schema")->as_string(), kFleetResultSchema);
  EXPECT_EQ(doc->find("name")->as_string(), "tiny");
  EXPECT_EQ(doc->find("campaign_id")->as_string(), spec.id);
  EXPECT_FALSE(doc->find("converged")->as_bool());
  expect_valid_jsonl(paths_a.metrics_path);
  std::filesystem::remove_all(out_a);
  std::filesystem::remove_all(out_b);
}

#if defined(__unix__) || defined(__APPLE__)

TEST_F(FleetRunTest, SigkillMidRoundResumesToByteIdenticalResults) {
  const FleetSpec fleet = two_campaign_fleet();
  ASSERT_EQ(fleet.campaigns.size(), 2u);

  // Reference: the uninterrupted fleet.
  const std::string out_clean = fresh_dir("clean");
  FleetOptions clean_options;
  clean_options.out_dir = out_clean;
  clean_options.quiet = true;
  const FleetResult clean = run_fleet(fleet, clean_options);
  ASSERT_EQ(clean.campaigns.size(), 2u);
  for (const CampaignOutcome& c : clean.campaigns) {
    EXPECT_EQ(c.status, "not_converged") << c.spec.name;
    EXPECT_EQ(c.attempts, 1u);
    EXPECT_EQ(c.rounds, 3u);
  }
  EXPECT_EQ(clean.exit_code(), 3);

  // Chaos: SIGKILL each campaign's worker once its stream shows round 1; the
  // supervisor must restart it from the round-1 checkpoint.
  const std::string out_chaos = fresh_dir("chaos");
  FleetOptions chaos_options;
  chaos_options.out_dir = out_chaos;
  chaos_options.quiet = true;
  chaos_options.chaos_kill_round = 1;
  chaos_options.poll_interval_ms = 2.0;
  std::vector<WorkerEvent> events;
  chaos_options.event_hook = [&events](const WorkerEvent& e) {
    events.push_back(e);
  };
  const FleetResult chaos = run_fleet(fleet, chaos_options);
  ASSERT_EQ(chaos.campaigns.size(), 2u);

  std::size_t restarts = 0;
  for (const WorkerEvent& e : events) {
    if (e.type == "worker_restart") {
      ++restarts;
      EXPECT_EQ(e.outcome, "chaos_kill");
      EXPECT_GT(e.backoff_ms, 0.0);
    }
  }
  EXPECT_EQ(restarts, 2u);
  for (const CampaignOutcome& c : chaos.campaigns) {
    EXPECT_EQ(c.status, "not_converged") << c.spec.name;
    EXPECT_EQ(c.attempts, 2u) << c.spec.name;
  }

  // The killed-and-resumed fleet is indistinguishable from the uninterrupted
  // one: per-campaign result documents are byte-identical.
  for (const CampaignSpec& spec : fleet.campaigns) {
    const std::string clean_doc =
        read_file(worker_paths(out_clean, spec.name, 1).result_path);
    const std::string chaos_doc =
        read_file(worker_paths(out_chaos, spec.name, 1).result_path);
    ASSERT_FALSE(clean_doc.empty()) << spec.name;
    EXPECT_EQ(clean_doc, chaos_doc) << spec.name;
  }

  // The fleet log is strict JSONL and records the restarts.
  expect_valid_jsonl(out_chaos + "/fleet.jsonl");
  EXPECT_NE(read_file(out_chaos + "/fleet.jsonl").find("worker_restart"),
            std::string::npos);
  EXPECT_NE(read_file(out_chaos + "/summary.csv").find("p-lo"),
            std::string::npos);

  // Resuming the finished fleet is a no-op that leaves results untouched.
  FleetOptions resume_options;
  resume_options.out_dir = out_chaos;
  resume_options.quiet = true;
  resume_options.resume = true;
  const std::string before =
      read_file(worker_paths(out_chaos, "p-lo", 1).result_path);
  const FleetResult resumed = run_fleet(fleet, resume_options);
  for (const CampaignOutcome& c : resumed.campaigns) {
    EXPECT_EQ(c.status, "not_converged");
    EXPECT_EQ(c.attempts, 1u);
  }
  EXPECT_EQ(before,
            read_file(worker_paths(out_chaos, "p-lo", 1).result_path));

  std::filesystem::remove_all(out_clean);
  std::filesystem::remove_all(out_chaos);
}

TEST_F(FleetRunTest, StaleStreamInReusedOutDirCountsNoRounds) {
  const FleetSpec fleet = two_campaign_fleet();
  // The rounds the supervisor counted on each campaign's stream, as its
  // worker_exit events (fleet.jsonl) report them.
  const auto run = [&fleet](const std::string& out_dir,
                            std::map<std::string, std::size_t>* rounds) {
    FleetOptions options;
    options.out_dir = out_dir;
    options.quiet = true;
    options.poll_interval_ms = 2.0;
    options.event_hook = [rounds](const WorkerEvent& e) {
      if (e.type == "worker_exit") (*rounds)[e.campaign] += e.rounds;
    };
    return run_fleet(fleet, options);
  };

  const std::string out_clean = fresh_dir("stale_clean");
  std::map<std::string, std::size_t> clean_rounds;
  const FleetResult clean = run(out_clean, &clean_rounds);

  // A reused --out: each campaign's first-attempt stream still holds an
  // earlier run's round events. The supervisor polls a stream from the fork
  // on, before the worker's reporter truncates it.
  const std::string out_reused = fresh_dir("stale_reused");
  for (const CampaignSpec& spec : fleet.campaigns) {
    std::string stale;
    for (int round = 1; round <= 5; ++round) {
      stale += R"({"event":"round","round":)" + std::to_string(round) + "}\n";
    }
    write_file(worker_paths(out_reused, spec.name, 1).metrics_path, stale);
  }
  std::map<std::string, std::size_t> reused_rounds;
  const FleetResult reused = run(out_reused, &reused_rounds);

  ASSERT_EQ(clean.campaigns.size(), 2u);
  ASSERT_EQ(reused.campaigns.size(), 2u);
  for (std::size_t i = 0; i < clean.campaigns.size(); ++i) {
    const std::string& name = fleet.campaigns[i].name;
    EXPECT_EQ(clean_rounds[name], 3u) << name;
    EXPECT_EQ(reused_rounds[name], clean_rounds[name]) << name;
    EXPECT_EQ(reused.campaigns[i].rounds, clean.campaigns[i].rounds) << name;
    EXPECT_EQ(reused.campaigns[i].attempts, 1u) << name;
    const std::string clean_doc =
        read_file(worker_paths(out_clean, name, 1).result_path);
    ASSERT_FALSE(clean_doc.empty()) << name;
    EXPECT_EQ(read_file(worker_paths(out_reused, name, 1).result_path),
              clean_doc)
        << name;
  }
  std::filesystem::remove_all(out_clean);
  std::filesystem::remove_all(out_reused);
}

TEST_F(FleetRunTest, RetryExhaustionQuarantinesWithoutFailingTheRest) {
  const std::string text = R"({
    "schema": "bdlfi_fleet_spec", "version": 1,
    "workers": 2, "max_worker_retries": 1,
    "worker_backoff_ms": 1, "worker_backoff_cap_ms": 2,
    "defaults": {
      "samples": 200, "chains": 2, "samples_per_chain": 10,
      "burn_in": 5, "thin": 1, "max_rounds": 3, "rhat": 100.0, "tol": 100.0
    },
    "campaigns": [
      {"name": "good", "ckpt": ")" + *ckpt_path_ + R"(", "p": 1e-3},
      {"name": "bad", "ckpt": "/nonexistent/golden.ckpt", "p": 1e-3}
    ]})";
  std::string error;
  const auto fleet = parse_fleet_spec(text, &error);
  ASSERT_TRUE(fleet.has_value()) << error;

  const std::string out = fresh_dir("quarantine");
  FleetOptions options;
  options.out_dir = out;
  options.quiet = true;
  options.poll_interval_ms = 2.0;
  const FleetResult result = run_fleet(*fleet, options);

  ASSERT_EQ(result.campaigns.size(), 2u);
  const CampaignOutcome& good = result.campaigns[0];
  const CampaignOutcome& bad = result.campaigns[1];
  // A lenient criterion converges at round 2 (stability needs two rounds).
  EXPECT_EQ(good.status, "completed");
  EXPECT_EQ(good.attempts, 1u);
  EXPECT_EQ(bad.status, "quarantined");
  EXPECT_EQ(bad.attempts, 2u);  // initial launch + one retry
  EXPECT_EQ(bad.last_failure, "exit:2");
  EXPECT_EQ(result.quarantined, 1u);
  EXPECT_EQ(result.completed, 1u);
  // Degraded exit: the quarantine dominates, but the fleet finished.
  EXPECT_EQ(result.exit_code(), 4);
  // The good campaign's result document exists despite the sick sibling.
  EXPECT_FALSE(
      read_file(worker_paths(out, "good", 1).result_path).empty());
  std::filesystem::remove_all(out);
}

#endif  // unix

}  // namespace
}  // namespace bdlfi::fleet
