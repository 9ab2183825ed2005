#include "campaign.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <tuple>

#include "mcmc/checkpoint.h"
#include "obs/trace.h"
#include "spans.h"
#include "util/stats.h"
#include "util/stopwatch.h"

namespace bdlfi::campaign_bench {

namespace {

double process_cpu_s() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

// log_density spans kept per chain span; later calls are timed but only
// their total reaches the trace (as the chain's dropped child time).
constexpr std::size_t kKeptLogDensitySpans = 50;

/// Traced-campaign bookkeeping: round boundaries from the runner's hooks,
/// chain lifetimes and log_density timings from the target wrapper.
class Tracker {
 public:
  explicit Tracker(SpanLog& spans) : spans_(spans) {}

  SpanLog& spans() { return spans_; }

  void campaign_start() {
    std::lock_guard<std::mutex> lock(mu_);
    campaign_id_ = spans_.reserve_id();
    campaign_start_us_ = spans_.now_us();
    rounds_.push_back({campaign_start_us_, -1.0, -1.0, spans_.reserve_id()});
  }

  void round_hook() {
    std::lock_guard<std::mutex> lock(mu_);
    rounds_.back().hook_us = spans_.now_us();
  }

  void checkpoint_hook() {
    std::lock_guard<std::mutex> lock(mu_);
    RoundRecord& r = rounds_.back();
    r.ckpt_us = spans_.now_us();
    spans_.add({"round", r.span_id, campaign_id_, r.start_us, r.ckpt_us,
                thread_tag()});
    spans_.add({"checkpoint_write", spans_.reserve_id(), r.span_id,
                r.hook_us, r.ckpt_us, thread_tag()});
    rounds_.push_back({r.ckpt_us, -1.0, -1.0, spans_.reserve_id()});
  }

  /// Index and span id of the round a chain starting now belongs to.
  std::pair<std::size_t, std::uint64_t> current_round() {
    std::lock_guard<std::mutex> lock(mu_);
    return {rounds_.size() - 1, rounds_.back().span_id};
  }

  void chain_done(std::size_t round, double start_us, double end_us,
                  std::vector<double> log_density_us) {
    std::lock_guard<std::mutex> lock(mu_);
    chains_.push_back({round, start_us, end_us});
    for (double us : log_density_us) log_density_us_.add(us);
  }

  /// Closes the campaign span and derives this campaign's mcmc metrics.
  MetricSet finish(double* critical_path_s) {
    std::lock_guard<std::mutex> lock(mu_);
    const double end_us = spans_.now_us();
    spans_.add({"campaign", campaign_id_, 0, campaign_start_us_, end_us,
                thread_tag()});
    if (rounds_.back().ckpt_us < 0.0) rounds_.pop_back();  // never started

    double busy = 0.0, wait = 0.0, lag = 0.0, slowest = 0.0, pool = 0.0,
           ckpt = 0.0, round_total = 0.0;
    for (std::size_t r = 0; r < rounds_.size(); ++r) {
      const RoundRecord& rr = rounds_[r];
      const ChainRecord* critical = nullptr;
      for (const ChainRecord& c : chains_) {
        if (c.round != r) continue;
        if (critical == nullptr || c.end_us > critical->end_us) critical = &c;
      }
      round_total += rr.ckpt_us - rr.start_us;
      ckpt += rr.ckpt_us - rr.hook_us;
      if (critical == nullptr) {  // every chain quarantined
        pool += rr.hook_us - rr.start_us;
        continue;
      }
      for (const ChainRecord& c : chains_) {
        if (c.round != r) continue;
        busy += c.end_us - c.start_us;
        wait += critical->end_us - c.end_us;
      }
      lag += critical->start_us - rr.start_us;
      slowest += critical->end_us - critical->start_us;
      pool += rr.hook_us - critical->end_us;
    }
    *critical_path_s = 1e-6 * (lag + slowest + pool + ckpt);

    double ld_total = 0.0;
    for (double d : log_density_us_.samples()) ld_total += d;
    const double n_rounds = static_cast<double>(std::max<std::size_t>(
        rounds_.size(), 1));
    MetricSet m;
    m["mcmc.round_s"] = {1e-6 * round_total / n_rounds, "s"};
    m["mcmc.chain_busy_s"] = {1e-6 * busy, "s"};
    m["mcmc.chain_wait_s"] = {1e-6 * wait, "s"};
    m["mcmc.chain_start_lag_s"] = {1e-6 * lag, "s"};
    m["mcmc.pool_diag_s"] = {1e-6 * pool, "s"};
    m["mcmc.checkpoint_write_s"] = {1e-6 * ckpt, "s"};
    m["mcmc.log_density_calls"] = {
        static_cast<double>(log_density_us_.count()), "count"};
    m["mcmc.log_density_s"] = {1e-6 * ld_total, "s"};
    m["mcmc.log_density_ms.p50"] = {1e-3 * log_density_us_.quantile(0.50),
                                    "ms"};
    m["mcmc.log_density_ms.p99"] = {1e-3 * log_density_us_.quantile(0.99),
                                    "ms"};
    return m;
  }

 private:
  struct RoundRecord {
    double start_us;
    double hook_us;
    double ckpt_us;
    std::uint64_t span_id;
  };
  struct ChainRecord {
    std::size_t round;
    double start_us;
    double end_us;
  };

  SpanLog& spans_;
  std::mutex mu_;
  std::uint64_t campaign_id_ = 0;
  double campaign_start_us_ = 0.0;
  std::vector<RoundRecord> rounds_;
  std::vector<ChainRecord> chains_;
  util::SampleSet log_density_us_;
};

/// Times one chain's target from construction to destruction and every
/// log_density call in between. Everything else is forwarded unchanged.
class TimedTarget final : public bayes::MaskTarget {
 public:
  TimedTarget(std::unique_ptr<bayes::MaskTarget> inner, Tracker& tracker,
              double start_us)
      : inner_(std::move(inner)),
        tracker_(tracker),
        start_us_(start_us),
        span_id_(tracker.spans().reserve_id()) {
    std::tie(round_, round_span_) = tracker.current_round();
  }

  ~TimedTarget() override {
    SpanLog& spans = tracker_.spans();
    const double end_us = spans.now_us();
    Span chain{"chain", span_id_, round_span_, start_us_, end_us,
               thread_tag()};
    for (std::size_t i = kept_.size(); i < durations_us_.size(); ++i) {
      chain.dropped_child_us += durations_us_[i];
    }
    kept_.push_back(chain);
    spans.add(std::move(kept_));
    tracker_.chain_done(round_, start_us_, end_us, std::move(durations_us_));
  }

  TimedTarget(const TimedTarget&) = delete;
  TimedTarget& operator=(const TimedTarget&) = delete;

  double log_density(const fault::FaultMask& mask) override {
    SpanLog& spans = tracker_.spans();
    const double t0 = spans.now_us();
    const double value = inner_->log_density(mask);
    const double t1 = spans.now_us();
    durations_us_.push_back(t1 - t0);
    if (kept_.size() < kKeptLogDensitySpans) {
      kept_.push_back({"log_density", spans.reserve_id(), span_id_, t0, t1,
                       thread_tag()});
    }
    return value;
  }

  std::optional<double> analytic_toggle_delta(const fault::FaultMask& current,
                                              std::int64_t flat_bit) override {
    return inner_->analytic_toggle_delta(current, flat_bit);
  }

  bool requires_network_eval() const override {
    return inner_->requires_network_eval();
  }

 private:
  std::unique_ptr<bayes::MaskTarget> inner_;
  Tracker& tracker_;
  double start_us_;
  std::uint64_t span_id_;
  std::size_t round_ = 0;
  std::uint64_t round_span_ = 0;
  std::vector<double> durations_us_;
  std::vector<Span> kept_;
};

std::unique_ptr<bayes::MaskTarget> make_target(
    const Workload& w, bayes::BayesianFaultNetwork& replica) {
  if (w.target == TargetKind::kTempered) {
    return std::make_unique<bayes::DeviationTemperedTarget>(replica, w.p,
                                                            w.lambda);
  }
  return std::make_unique<bayes::PriorTarget>(replica, w.p);
}

}  // namespace

Watchdog::Watchdog(double deadline_s, std::function<void()> on_expire)
    : deadline_(deadline_s),
      on_expire_(std::move(on_expire)),
      thread_([this] { loop(); }) {}

Watchdog::~Watchdog() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void Watchdog::arm() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = true;
    last_beat_ = std::chrono::steady_clock::now();
  }
  cv_.notify_all();
}

void Watchdog::beat() {
  std::lock_guard<std::mutex> lock(mu_);
  last_beat_ = std::chrono::steady_clock::now();
}

void Watchdog::disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_ = false;
}

void Watchdog::loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    if (!armed_) {
      cv_.wait(lock, [this] { return stop_ || armed_; });
      continue;
    }
    const auto due =
        last_beat_ +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            deadline_);
    cv_.wait_until(lock, due, [this] { return stop_ || !armed_; });
    if (stop_ || !armed_) continue;
    if (std::chrono::steady_clock::now() >= last_beat_ + deadline_) {
      lock.unlock();
      on_expire_();
      _exit(3);
    }
  }
}

CampaignRun run_campaign(const Workload& workload,
                         const bayes::BayesianFaultNetwork& golden,
                         const CampaignOptions& options, Watchdog& watchdog) {
  std::unique_ptr<Tracker> tracker;
  if (options.spans != nullptr) {
    tracker = std::make_unique<Tracker>(*options.spans);
  }

  mcmc::RunnerConfig config;
  config.num_chains = workload.chains;
  config.seed = options.seed;
  config.mh.samples = options.samples_per_round != 0
                          ? options.samples_per_round
                          : workload.samples_per_round;
  config.mh.burn_in = workload.burn_in;
  config.mh.thin = workload.thin;
  config.mh.mask_batch = workload.mask_batch;
  config.mh.record_masks = options.record_masks;
  config.checkpoint_dir = options.checkpoint_dir;
  config.round_hook = [&](const obs::RoundEvent&) {
    watchdog.beat();
    if (tracker != nullptr) tracker->round_hook();
  };
  config.checkpoint_hook = [&](std::size_t, const std::string&) {
    watchdog.beat();
    if (tracker != nullptr) tracker->checkpoint_hook();
  };

  mcmc::CompletenessCriterion criterion;
  criterion.rhat_threshold = 0.0;  // never met: every round runs
  criterion.max_rounds = options.rounds != 0 ? options.rounds : workload.rounds;

  const mcmc::ChainTargetFactory factory =
      [&](bayes::BayesianFaultNetwork& replica,
          std::size_t) -> std::unique_ptr<bayes::MaskTarget> {
    if (tracker == nullptr) return make_target(workload, replica);
    const double start_us = tracker->spans().now_us();
    return std::make_unique<TimedTarget>(make_target(workload, replica),
                                         *tracker, start_us);
  };

  CampaignRun run;
  const std::size_t spans_before =
      options.spans != nullptr ? options.spans->size() : 0;
  const std::size_t events_before =
      obs::TraceRecorder::global().event_count();
  if (tracker != nullptr) tracker->campaign_start();
  watchdog.arm();
  const double cpu0 = process_cpu_s();
  util::Stopwatch watch;
  run.result =
      mcmc::run_until_complete(golden, factory, workload.p, config, criterion);
  run.wall_s = watch.seconds();
  run.cpu_s = process_cpu_s() - cpu0;
  watchdog.disarm();
  if (!options.checkpoint_dir.empty()) {
    run.checkpoint_path = mcmc::checkpoint_path(options.checkpoint_dir);
  }

  if (tracker != nullptr) {
    run.layers = tracker->finish(&run.critical_path_s);
    run.trace_events = options.spans->size() - spans_before +
                       obs::TraceRecorder::global().event_count() -
                       events_before;
    const mcmc::CampaignResult& pooled = run.result.final_result;
    std::size_t retries = 0;
    for (const mcmc::ChainHealth& h : pooled.health) retries += h.retries;
    run.layers["mcmc.rounds"] = {static_cast<double>(run.result.rounds),
                                 "count"};
    run.layers["mcmc.chain_retries"] = {static_cast<double>(retries),
                                        "count"};
    run.layers["mcmc.accept_rate"] = {pooled.mean_acceptance, "ratio"};
    run.layers["mcmc.ess_per_sample"] = {
        pooled.total_samples == 0
            ? 0.0
            : pooled.diagnostics.ess /
                  static_cast<double>(pooled.total_samples),
        "ratio"};
    if (!run.checkpoint_path.empty()) {
      std::error_code ec;
      const auto bytes = std::filesystem::file_size(run.checkpoint_path, ec);
      run.layers["mcmc.checkpoint_bytes"] = {
          ec ? 0.0 : static_cast<double>(bytes), "bytes"};
      util::Stopwatch load;
      (void)mcmc::load_checkpoint(run.checkpoint_path);
      run.layers["mcmc.checkpoint_load_s"] = {load.seconds(), "s"};
    }
  }
  return run;
}

}  // namespace bdlfi::campaign_bench
