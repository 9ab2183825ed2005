#include "fleet/runner.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "fleet/worker.h"
#include "mcmc/supervisor.h"
#include "obs/json.h"
#include "obs/stream.h"
#include "util/csv.h"
#include "util/interrupt.h"
#include "util/log.h"
#include "util/thread_pool.h"

#if defined(__unix__) || defined(__APPLE__)
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#define BDLFI_FLEET_FORK 1
#endif

namespace bdlfi::fleet {

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Appends fleet lifecycle events to <out>/fleet.jsonl with the standard
/// event envelope (campaign_id + per-file monotonic seq), so check_json and
/// the dashboard's aggregator accept the stream like any other.
class FleetLog {
 public:
  FleetLog(const std::string& path, std::string fleet_id)
      : fleet_id_(std::move(fleet_id)) {
    sink_ = std::fopen(path.c_str(), "w");
  }
  ~FleetLog() {
    if (sink_ != nullptr) std::fclose(sink_);
  }
  FleetLog(const FleetLog&) = delete;
  FleetLog& operator=(const FleetLog&) = delete;

  void fleet_begin(std::size_t campaigns, std::size_t workers) {
    obs::JsonWriter w;
    w.begin_object();
    stamp(w, "fleet_begin", fleet_id_);
    w.field("campaigns", static_cast<std::uint64_t>(campaigns));
    w.field("workers", static_cast<std::uint64_t>(workers));
    w.end_object();
    write(w);
  }

  void fleet_end(const FleetResult& r) {
    obs::JsonWriter w;
    w.begin_object();
    stamp(w, "fleet_end", fleet_id_);
    w.field("completed", static_cast<std::uint64_t>(r.completed));
    w.field("not_converged", static_cast<std::uint64_t>(r.not_converged));
    w.field("quarantined", static_cast<std::uint64_t>(r.quarantined));
    w.field("interrupted", r.interrupted);
    w.end_object();
    write(w);
  }

  void worker(const WorkerEvent& e) {
    obs::JsonWriter w;
    w.begin_object();
    stamp(w, e.type.c_str(), e.campaign_id);
    w.field("campaign", e.campaign);
    w.field("pid", static_cast<std::int64_t>(e.pid));
    w.field("attempt", static_cast<std::uint64_t>(e.attempt));
    if (e.type == "worker_exit") {
      w.field("exit_code", static_cast<std::int64_t>(e.exit_code));
      w.field("signal", static_cast<std::int64_t>(e.term_signal));
      w.field("rounds", static_cast<std::uint64_t>(e.rounds));
      w.field("outcome", e.outcome);
    } else if (e.type == "worker_restart") {
      w.field("backoff_ms", e.backoff_ms);
      w.field("reason", e.outcome);
    }
    w.end_object();
    write(w);
  }

 private:
  void stamp(obs::JsonWriter& w, const char* event, const std::string& id) {
    w.field("event", event)
        .field("label", "fleet")
        .field("campaign_id", id)
        .field("seq", static_cast<std::uint64_t>(++seq_));
  }
  void write(const obs::JsonWriter& w) {
    if (sink_ == nullptr) return;
    std::fwrite(w.str().data(), 1, w.str().size(), sink_);
    std::fputc('\n', sink_);
    std::fflush(sink_);
  }

  std::string fleet_id_;
  std::FILE* sink_ = nullptr;
  std::uint64_t seq_ = 0;
};

/// Pulls the pooled stats of a finished campaign back out of its result.json
/// for the cross-campaign summary table. Missing/partial files leave zeros.
void load_result_stats(const std::string& path, CampaignOutcome* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto doc = obs::json_parse(buffer.str());
  if (!doc.has_value() || !doc->is_object()) return;
  const auto num = [&doc](const char* key, double* value) {
    const obs::JsonValue* v = doc->find(key);
    if (v != nullptr && v->is_number()) *value = v->as_number();
  };
  num("mean_error", &out->mean_error);
  num("rhat", &out->rhat);
  num("ess", &out->ess);
  num("sdc_rate", &out->sdc_rate);
  num("detection_coverage", &out->detection_coverage);
  double samples = 0.0, rounds = 0.0;
  num("total_samples", &samples);
  num("rounds", &rounds);
  out->total_samples = static_cast<std::size_t>(samples);
  if (rounds > 0.0) out->rounds = static_cast<std::size_t>(rounds);
}

util::Table make_table(const FleetResult& result) {
  util::Table table({"campaign", "status", "attempts", "rounds", "samples",
                     "mean_error_%", "rhat", "ess", "sdc_rate", "coverage"});
  for (const CampaignOutcome& c : result.campaigns) {
    table.row()
        .col(c.spec.name)
        .col(c.status)
        .col(c.attempts)
        .col(c.rounds)
        .col(c.total_samples)
        .col(c.mean_error)
        .col(c.rhat)
        .col(c.ess)
        .col(c.sdc_rate)
        .col(c.detection_coverage);
  }
  return table;
}

/// Classifies a worker's normal exit. Returns true for a terminal outcome
/// (status/result recorded), false for a failure the caller should retry.
bool classify_exit(int exit_code, const WorkerPaths& paths, FleetResult* fleet,
                   CampaignOutcome* out, std::string* failure_reason) {
  if (exit_code == 0 || exit_code == 3) {
    out->status = exit_code == 0 ? "completed" : "not_converged";
    (exit_code == 0 ? fleet->completed : fleet->not_converged) += 1;
    load_result_stats(paths.result_path, out);
    return true;
  }
  if (exit_code == 5 && util::interrupt_requested()) {
    out->status = "interrupted";
    fleet->interrupted = true;
    return true;
  }
  *failure_reason = "exit:" + std::to_string(exit_code);
  return false;
}

}  // namespace

int FleetResult::exit_code() const {
  if (interrupted) return 5;
  if (quarantined > 0) return 4;
  if (not_converged > 0) return 3;
  return 0;
}

std::string summary_table(const FleetResult& result) {
  return make_table(result).to_text();
}

bool write_summary_csv(const FleetResult& result, const std::string& path) {
  return make_table(result).write_csv(path);
}

#if defined(BDLFI_FLEET_FORK)

FleetResult run_fleet(const FleetSpec& spec, const FleetOptions& options) {
  FleetResult result;
  result.campaigns.resize(spec.campaigns.size());
  for (std::size_t i = 0; i < spec.campaigns.size(); ++i) {
    result.campaigns[i].spec = spec.campaigns[i];
    result.campaigns[i].status = "pending";
  }
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir + "/campaigns", ec);
  if (ec) {
    BDLFI_LOG_ERROR("cannot create %s: %s", options.out_dir.c_str(),
                    ec.message().c_str());
    for (auto& c : result.campaigns) c.status = "quarantined";
    result.quarantined = result.campaigns.size();
    return result;
  }

  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::size_t workers = options.workers != 0 ? options.workers : spec.workers;
  if (workers == 0) workers = std::min(hw, spec.campaigns.size());
  workers = std::max<std::size_t>(
      1, std::min(workers, spec.campaigns.size()));
  // Workers split the machine instead of oversubscribing it: each child
  // rebuilds its global pool (reinit_after_fork) at its share of the cores.
  const std::size_t threads_per_worker = std::max<std::size_t>(1, hw / workers);

  // The retry/quarantine policy is literally the chain supervisor's, one
  // level up: campaign index = "chain", worker launch = "attempt".
  mcmc::SupervisorConfig policy_config;
  policy_config.max_retries = spec.max_worker_retries;
  policy_config.backoff_base_ms = spec.worker_backoff_ms;
  policy_config.backoff_cap_ms = spec.worker_backoff_cap_ms;
  mcmc::ChainSupervisor policy(policy_config, spec.campaigns.size());

  util::install_interrupt_handlers();
  FleetLog log(options.out_dir + "/fleet.jsonl", spec.id);
  log.fleet_begin(spec.campaigns.size(), workers);

  const auto emit = [&](const WorkerEvent& e) {
    log.worker(e);
    if (!options.quiet) {
      if (e.type == "worker_start") {
        std::printf("[fleet] %s: worker %ld started (attempt %zu)\n",
                    e.campaign.c_str(), e.pid, e.attempt);
      } else if (e.type == "worker_exit") {
        std::printf("[fleet] %s: worker %ld exited (%s)\n", e.campaign.c_str(),
                    e.pid, e.outcome.c_str());
      } else {
        std::printf("[fleet] %s: restarting after %s (attempt %zu in %.0fms)\n",
                    e.campaign.c_str(), e.outcome.c_str(), e.attempt,
                    e.backoff_ms);
      }
      std::fflush(stdout);
    }
    if (options.event_hook) options.event_hook(e);
  };

  enum class CState { pending, running, done };
  struct CampaignState {
    CState state = CState::pending;
    std::size_t attempts = 0;
    std::size_t failures = 0;
    double not_before_ms = 0.0;
    std::size_t rounds_seen = 0;
    bool chaos_done = false;
    bool killed_hung = false;
    bool killed_chaos = false;
    bool stop_sent = false;
  };
  struct RunningWorker {
    std::size_t idx = 0;
    pid_t pid = -1;
    std::unique_ptr<obs::JsonlTailReader> reader;
    double last_beat_ms = 0.0;
  };
  std::vector<CampaignState> st(spec.campaigns.size());
  std::vector<RunningWorker> running;

  const auto all_done = [&] {
    return std::all_of(st.begin(), st.end(), [](const CampaignState& s) {
      return s.state == CState::done;
    });
  };

  const auto count_rounds = [&](RunningWorker& w) {
    std::vector<obs::JsonValue> events;
    if (w.reader->poll(&events) == 0) return false;
    w.last_beat_ms = now_ms();
    for (const obs::JsonValue& ev : events) {
      const obs::JsonValue* type = ev.find("event");
      if (type != nullptr && type->is_string() &&
          type->as_string() == "round") {
        ++st[w.idx].rounds_seen;
      }
    }
    return true;
  };

  const auto launch = [&](std::size_t idx) {
    CampaignState& s = st[idx];
    const CampaignSpec& c = spec.campaigns[idx];
    ++s.attempts;
    s.killed_hung = s.killed_chaos = false;
    const WorkerPaths paths = worker_paths(options.out_dir, c.name, s.attempts);
    std::filesystem::create_directories(paths.campaign_dir);
    // The supervisor polls this attempt's stream from the fork on, before
    // the worker's reporter truncates it: a stream left by an earlier fleet
    // run into the same --out would count that run's rounds here.
    std::error_code stale_ec;
    std::filesystem::remove(paths.metrics_path, stale_ec);
    // Restart attempts always resume: the whole point of the per-round
    // checkpoint is that the replacement worker continues the lineage.
    const bool resume = options.resume || s.attempts > 1;
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    if (pid < 0) {
      BDLFI_LOG_ERROR("fork failed for campaign %s", c.name.c_str());
      s.not_before_ms = now_ms() + std::max(100.0, spec.worker_backoff_ms);
      return;
    }
    if (pid == 0) {
      // Child. The inherited forwarding registry would make this worker kill
      // its siblings on Ctrl-C; the inherited global thread pool is a map of
      // threads that do not exist after fork. Reset both before any work.
      util::interrupt_forward_clear();
      util::set_interrupt_requested(false);
      util::ThreadPool::reinit_after_fork(threads_per_worker);
      std::freopen(paths.log_path.c_str(), "w", stdout);
      std::freopen(paths.log_path.c_str(), "a", stderr);
      const int rc = run_worker(c, paths, resume);
      std::fflush(nullptr);
      ::_exit(rc);
    }
    util::interrupt_forward_add(static_cast<long>(pid));
    RunningWorker w;
    w.idx = idx;
    w.pid = pid;
    w.reader = std::make_unique<obs::JsonlTailReader>(paths.metrics_path);
    w.last_beat_ms = now_ms();
    running.push_back(std::move(w));
    s.state = CState::running;
    WorkerEvent e;
    e.type = "worker_start";
    e.campaign = c.name;
    e.campaign_id = c.id;
    e.pid = static_cast<long>(pid);
    e.attempt = s.attempts;
    emit(e);
  };

  const auto handle_exit = [&](pid_t pid, int status) {
    const auto it =
        std::find_if(running.begin(), running.end(),
                     [pid](const RunningWorker& w) { return w.pid == pid; });
    if (it == running.end()) return;  // not one of ours
    RunningWorker w = std::move(*it);
    running.erase(it);
    util::interrupt_forward_remove(static_cast<long>(pid));
    count_rounds(w);  // drain the stream's tail before judging the attempt

    CampaignState& s = st[w.idx];
    CampaignOutcome& out = result.campaigns[w.idx];
    int exit_code = -1;
    int sig = 0;
    if (WIFEXITED(status)) {
      exit_code = WEXITSTATUS(status);
    } else if (WIFSIGNALED(status)) {
      sig = WTERMSIG(status);
    }
    out.exit_code = exit_code;
    out.attempts = s.attempts;
    out.rounds = s.rounds_seen;

    WorkerEvent e;
    e.type = "worker_exit";
    e.campaign = out.spec.name;
    e.campaign_id = out.spec.id;
    e.pid = static_cast<long>(pid);
    e.attempt = s.attempts;
    e.exit_code = exit_code;
    e.term_signal = sig;
    e.rounds = s.rounds_seen;

    std::string reason;
    bool terminal = false;
    if (sig != 0) {
      reason = s.killed_hung    ? "hung"
               : s.killed_chaos ? "chaos_kill"
                                : "signal:" + std::to_string(sig);
    } else {
      const WorkerPaths paths =
          worker_paths(options.out_dir, out.spec.name, s.attempts);
      terminal = classify_exit(exit_code, paths, &result, &out, &reason);
    }
    if (terminal) {
      s.state = CState::done;
      e.outcome = out.status;
      emit(e);
      return;
    }

    // Failure path: retry with backoff, or quarantine and move on — the rest
    // of the fleet is unaffected either way.
    e.outcome = reason;
    out.last_failure = reason;
    emit(e);
    const std::size_t attempt_idx = s.failures++;
    if (util::interrupt_requested()) {
      s.state = CState::done;
      out.status = "interrupted";
      result.interrupted = true;
      return;
    }
    if (policy.record_failure(w.idx, s.rounds_seen, reason, attempt_idx)) {
      const double backoff = policy.backoff_ms(attempt_idx);
      s.state = CState::pending;
      s.not_before_ms = now_ms() + backoff;
      WorkerEvent r;
      r.type = "worker_restart";
      r.campaign = out.spec.name;
      r.campaign_id = out.spec.id;
      r.pid = static_cast<long>(pid);
      r.attempt = s.attempts + 1;
      r.backoff_ms = backoff;
      r.outcome = reason;
      emit(r);
    } else {
      s.state = CState::done;
      out.status = "quarantined";
      ++result.quarantined;
      if (!options.quiet) {
        std::printf("[fleet] %s: QUARANTINED after %zu attempt(s) (%s)\n",
                    out.spec.name.c_str(), s.attempts, reason.c_str());
      }
    }
  };

  while (!all_done()) {
    const bool stop = util::interrupt_requested();
    if (!stop) {
      for (std::size_t i = 0;
           i < st.size() && running.size() < workers; ++i) {
        if (st[i].state == CState::pending &&
            st[i].not_before_ms <= now_ms()) {
          launch(i);
        }
      }
    } else {
      result.interrupted = true;
      for (std::size_t i = 0; i < st.size(); ++i) {
        if (st[i].state == CState::pending) {
          st[i].state = CState::done;
          result.campaigns[i].status = "interrupted";
        }
      }
      // The signal handler forwarded to every registered pid, but a worker
      // forked between signal delivery and registration would miss it; a
      // second (idempotent) notice per worker closes that race.
      for (RunningWorker& w : running) {
        CampaignState& s = st[w.idx];
        if (!s.stop_sent) {
          const int sig = util::interrupt_signal();
          ::kill(w.pid, sig != 0 ? sig : SIGTERM);
          s.stop_sent = true;
        }
      }
    }

    for (RunningWorker& w : running) {
      count_rounds(w);
      CampaignState& s = st[w.idx];
      if (options.chaos_kill_round > 0 && !s.chaos_done &&
          s.rounds_seen >= options.chaos_kill_round) {
        s.chaos_done = true;
        s.killed_chaos = true;
        ::kill(w.pid, SIGKILL);
      } else if (spec.worker_timeout_ms > 0.0 && !stop &&
                 now_ms() - w.last_beat_ms > spec.worker_timeout_ms) {
        s.killed_hung = true;
        ::kill(w.pid, SIGKILL);
      }
    }

    for (;;) {
      int status = 0;
      const pid_t pid = ::waitpid(-1, &status, WNOHANG);
      if (pid <= 0) break;
      handle_exit(pid, status);
    }

    if (all_done()) break;
    std::this_thread::sleep_for(std::chrono::microseconds(
        static_cast<std::int64_t>(options.poll_interval_ms * 1000.0)));
  }

  log.fleet_end(result);
  write_summary_csv(result, options.out_dir + "/summary.csv");
  if (!options.quiet) {
    std::printf("%s", summary_table(result).c_str());
  }
  return result;
}

#else  // no fork/waitpid: sequential in-process fallback

FleetResult run_fleet(const FleetSpec& spec, const FleetOptions& options) {
  FleetResult result;
  std::filesystem::create_directories(options.out_dir + "/campaigns");
  FleetLog log(options.out_dir + "/fleet.jsonl", spec.id);
  log.fleet_begin(spec.campaigns.size(), 1);
  for (const CampaignSpec& c : spec.campaigns) {
    CampaignOutcome out;
    out.spec = c;
    out.attempts = 1;
    if (util::interrupt_requested()) {
      out.status = "interrupted";
      result.interrupted = true;
      result.campaigns.push_back(std::move(out));
      continue;
    }
    const WorkerPaths paths = worker_paths(options.out_dir, c.name, 1);
    const int rc = run_worker(c, paths, options.resume);
    out.exit_code = rc;
    std::string reason;
    if (!classify_exit(rc, paths, &result, &out, &reason)) {
      out.status = "quarantined";
      out.last_failure = reason;
      ++result.quarantined;
    }
    result.campaigns.push_back(std::move(out));
  }
  log.fleet_end(result);
  write_summary_csv(result, options.out_dir + "/summary.csv");
  if (!options.quiet) std::printf("%s", summary_table(result).c_str());
  return result;
}

#endif

}  // namespace bdlfi::fleet
