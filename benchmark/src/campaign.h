// One fixed-size mcmc::run_until_complete campaign, observed from outside:
// through RunnerConfig::round_hook and checkpoint_hook, and, in a traced run,
// through a MaskTarget wrapper that times target construction, destruction
// and every log_density call.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "bayes/fault_network.h"
#include "mcmc/runner.h"
#include "workload.h"

namespace bdlfi::campaign_bench {

class SpanLog;

struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricSet = std::map<std::string, Metric>;

/// Turns a campaign that stops calling its hooks into a failed run instead
/// of a hang: once armed, if beat() is not called within the deadline,
/// `on_expire` runs and the process exits with code 3.
class Watchdog {
 public:
  Watchdog(double deadline_s, std::function<void()> on_expire);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void arm();
  void beat();
  void disarm();

 private:
  void loop();

  std::chrono::duration<double> deadline_;
  std::function<void()> on_expire_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool armed_ = false;
  bool stop_ = false;
  std::chrono::steady_clock::time_point last_beat_;
  std::thread thread_;  // declared last: starts after the state it reads
};

struct CampaignRun {
  mcmc::CompletenessResult result;
  double wall_s = 0.0;  // run_until_complete
  double cpu_s = 0.0;   // process CPU time over the same interval
  std::string checkpoint_path;
  /// Traced runs only: the per-layer mcmc metrics of this campaign, the
  /// closure of its critical path, and the trace events it produced.
  MetricSet layers;
  double critical_path_s = 0.0;
  std::size_t trace_events = 0;
};

struct CampaignOptions {
  std::uint64_t seed = 1;
  std::string checkpoint_dir;  // "" = no checkpoint
  SpanLog* spans = nullptr;    // non-null = traced
  bool record_masks = false;
  std::size_t rounds = 0;             // 0 = the workload's
  std::size_t samples_per_round = 0;  // 0 = the workload's
};

/// Runs one campaign of `workload` over `golden`.
CampaignRun run_campaign(const Workload& workload,
                         const bayes::BayesianFaultNetwork& golden,
                         const CampaignOptions& options, Watchdog& watchdog);

}  // namespace bdlfi::campaign_bench
