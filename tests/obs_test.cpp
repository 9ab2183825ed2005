// Observability layer: exact sums under concurrent metric updates, trace
// spans serializing to valid Chrome trace JSON, the JSON writer/parser
// roundtrip, and the CampaignReporter mirroring the completeness runner's
// trajectory round for round.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "bayes/targets.h"
#include "data/toy2d.h"
#include "mcmc/runner.h"
#include "nn/builders.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/reporter.h"
#include "obs/trace.h"
#include "train/trainer.h"
#include "util/rng.h"

namespace bdlfi::obs {
namespace {

TEST(Metrics, ConcurrentCounterUpdatesSumExactly) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("test.hits");
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 20000;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry] {
      // Lookup from every thread must hand back the same counter.
      Counter& c = registry.counter("test.hits");
      for (std::size_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(Metrics, ConcurrentHistogramObservationsSumExactly) {
  MetricsRegistry registry;
  Histogram& hist = registry.histogram("test.latency", {1.0, 2.0, 4.0});
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 5000;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&hist, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        hist.observe(static_cast<double>((t + i) % 6));  // 0..5: hits overflow
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(hist.count(), kThreads * kPerThread);
  std::uint64_t bucket_total = 0;
  for (const auto b : hist.bucket_counts()) bucket_total += b;
  EXPECT_EQ(bucket_total, kThreads * kPerThread);
}

TEST(Metrics, HistogramBucketBoundariesAreInclusive) {
  Histogram hist({1.0, 2.0});
  hist.observe(0.5);  // <= 1.0
  hist.observe(1.0);  // <= 1.0 (boundary inclusive)
  hist.observe(1.5);  // <= 2.0
  hist.observe(9.0);  // overflow
  const auto buckets = hist.bucket_counts();
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_DOUBLE_EQ(hist.sum(), 12.0);
}

TEST(Metrics, ConcurrentGaugeAddIsLossless) {
  Gauge gauge;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 10000;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&gauge] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        gauge.add(1.0);
        gauge.add(-1.0);
      }
      gauge.add(1.0);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_DOUBLE_EQ(gauge.value(), static_cast<double>(kThreads));
}

TEST(Metrics, ResetZeroesValuesButKeepsRegistrations) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("test.n");
  Gauge& gauge = registry.gauge("test.g");
  counter.add(7);
  gauge.set(3.5);
  registry.reset();
  EXPECT_EQ(counter.value(), 0u);  // same object, zeroed in place
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
  EXPECT_EQ(&registry.counter("test.n"), &counter);
  EXPECT_EQ(registry.snapshot().size(), 2u);
}

TEST(Metrics, RegistryJsonIsParseable) {
  MetricsRegistry registry;
  registry.counter("a.count").add(3);
  registry.gauge("b.gauge").set(1.25);
  registry.histogram("c.hist", {1.0}).observe(0.5);
  std::string error;
  const auto doc = json_parse(registry.to_json(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  ASSERT_TRUE(doc->is_object());
  const JsonValue* count = doc->find("a.count");
  ASSERT_NE(count, nullptr);
  EXPECT_DOUBLE_EQ(count->as_number(), 3.0);
  const JsonValue* hist = doc->find("c.hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_TRUE(hist->is_object());
  EXPECT_NE(hist->find("buckets"), nullptr);
}

TEST(Json, WriterParserRoundtrip) {
  JsonWriter w;
  w.begin_object();
  w.field("name", "two\nlines \"quoted\"");
  w.field("pi", 3.25);
  w.field("n", std::uint64_t{42});
  w.field("neg", std::int64_t{-7});
  w.field("flag", true);
  w.key("nothing").null();
  w.key("xs").begin_array();
  w.number(1.0);
  w.string("s");
  w.boolean(false);
  w.begin_object().field("k", "v").end_object();
  w.end_array();
  w.end_object();
  std::string error;
  const auto doc = json_parse(w.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error << " in: " << w.str();
  EXPECT_EQ(doc->find("name")->as_string(), "two\nlines \"quoted\"");
  EXPECT_DOUBLE_EQ(doc->find("pi")->as_number(), 3.25);
  EXPECT_DOUBLE_EQ(doc->find("n")->as_number(), 42.0);
  EXPECT_DOUBLE_EQ(doc->find("neg")->as_number(), -7.0);
  EXPECT_TRUE(doc->find("flag")->as_bool());
  EXPECT_TRUE(doc->find("nothing")->is_null());
  const auto& xs = doc->find("xs")->as_array();
  ASSERT_EQ(xs.size(), 4u);
  EXPECT_EQ(xs[3].find("k")->as_string(), "v");
}

// Checkpoints are written out chain by chain: text taken and cleared
// between values must concatenate to the document written in one piece.
TEST(Json, WriterClearedBetweenPiecesConcatenatesToTheWholeDocument) {
  const auto write = [](JsonWriter& w, const auto& piece_done) {
    w.begin_object();
    w.field("schema", "s");
    w.key("chains").begin_array();
    for (int c = 0; c < 3; ++c) {
      w.begin_object().field("chain", std::uint64_t(c));
      w.key("xs").begin_array();
      for (int i = 0; i < c + 2; ++i) w.number_exact(0.1 * i);
      w.end_array().end_object();
      piece_done();
    }
    w.end_array();
    w.field("after", true);
    w.end_object();
    piece_done();
  };
  JsonWriter whole;
  write(whole, [] {});
  JsonWriter pieces;
  std::string joined;
  write(pieces, [&] {
    joined += pieces.str();
    pieces.clear_text();
  });
  EXPECT_TRUE(pieces.str().empty());
  EXPECT_EQ(joined, whole.str());
  ASSERT_TRUE(json_parse(joined).has_value()) << joined;
}

TEST(Json, NonFiniteNumbersSerializeAsNull) {
  JsonWriter w;
  w.begin_object();
  w.field("nan", std::nan(""));
  w.field("inf", HUGE_VAL);
  w.end_object();
  const auto doc = json_parse(w.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_TRUE(doc->find("nan")->is_null());
  EXPECT_TRUE(doc->find("inf")->is_null());
}

TEST(Json, NumberExactRoundTripsDoubles) {
  // %.17g + glibc's correctly-rounded strtod round-trips every finite double;
  // the checkpoint's bit-exact resume depends on it.
  const double nasty[] = {0.1,   1.0 / 3.0, 5e-324,  // min subnormal
                          -0.0,  1e308,     123456789.123456789,
                          3.25,  -2.5e-17};
  for (const double v : nasty) {
    JsonWriter w;
    w.begin_object();
    w.key("v");
    w.number_exact(v);
    w.end_object();
    const auto doc = json_parse(w.str());
    ASSERT_TRUE(doc.has_value()) << w.str();
    const double back = doc->find("v")->as_number();
    EXPECT_EQ(std::memcmp(&back, &v, sizeof v), 0)
        << "value " << v << " did not round-trip through " << w.str();
  }
  JsonWriter w;
  w.begin_object();
  w.key("nan");
  w.number_exact(std::nan(""));
  w.end_object();
  const auto doc = json_parse(w.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_TRUE(doc->find("nan")->is_null());
}

// number_exact must print exactly what printf's %.17g prints, so
// checkpoints, fleet results and BENCH documents keep their bytes.
TEST(Json, NumberExactMatchesPrintf17g) {
  const auto expect_printf = [](double v) {
    JsonWriter w;
    w.number_exact(v);
    char want[48];
    std::snprintf(want, sizeof(want), "%.17g", v);
    EXPECT_EQ(w.str(), want) << "bits " << std::hex
                             << std::bit_cast<std::uint64_t>(v);
  };
  const double edges[] = {0.0,
                          -0.0,
                          0.1,
                          1e-5,
                          1e5,
                          1e16,
                          1e17,
                          1e21,
                          1e22,
                          -1e-300,
                          5e-324,
                          2.2250738585072009e-308,  // largest subnormal
                          2.2250738585072014e-308,  // smallest normal
                          1.7976931348623157e308,
                          1.0 / 3.0,
                          2.0 / 3.0,
                          100.0,
                          99.999999999999986,
                          0.5,
                          123456789012345678.0,
                          9007199254740993.0,
                          -4.9406564584124654e-324};
  for (const double v : edges) expect_printf(v);
  // Random bit patterns cover every exponent; uniform draws cover the
  // sample-like values a checkpoint carries.
  util::Rng rng{2024};
  for (int i = 0; i < 20000; ++i) {
    const double bits = std::bit_cast<double>(rng());
    if (std::isfinite(bits)) expect_printf(bits);
    expect_printf(100.0 * rng.uniform());
  }
}

TEST(Json, ParserRejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "{\"a\":}", "[1,]", "{\"a\":1,}", "nul", "\"unterminated",
        "{\"a\":1} trailing", "{'a':1}", "[01]", "{\"a\" 1}"}) {
    std::string error;
    EXPECT_FALSE(json_parse(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(Json, JsonlValidation) {
  EXPECT_TRUE(jsonl_valid("{\"a\":1}\n{\"b\":2}\n"));
  EXPECT_TRUE(jsonl_valid("{\"a\":1}\n\n{\"b\":2}"));  // blank lines skipped
  std::string error;
  EXPECT_FALSE(jsonl_valid("{\"a\":1}\n{oops}\n", &error));
  EXPECT_FALSE(error.empty());
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceRecorder::global().clear();
    TraceRecorder::global().set_enabled(true);
  }
  void TearDown() override {
    TraceRecorder::global().set_enabled(false);
    TraceRecorder::global().clear();
  }
};

TEST_F(TraceTest, NestedAndConcurrentSpansProduceValidChromeJson) {
  {
    TraceSpan outer("outer");
    {
      TraceSpan inner("inner");
    }
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t) {
      workers.emplace_back([] {
        TraceSpan span("worker");
        TraceSpan overlapping("worker.body");
      });
    }
    for (auto& w : workers) w.join();
  }
  EXPECT_EQ(TraceRecorder::global().event_count(), 2u + 4u * 2u);

  std::string error;
  const auto doc = json_parse(TraceRecorder::global().to_chrome_json(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->as_array().size(), 10u);
  std::uint64_t outer_dur = 0, inner_dur = 0;
  for (const auto& event : events->as_array()) {
    EXPECT_EQ(event.find("ph")->as_string(), "X");
    EXPECT_EQ(event.find("cat")->as_string(), "bdlfi");
    EXPECT_GE(event.find("tid")->as_number(), 1.0);
    const std::string& name = event.find("name")->as_string();
    if (name == "outer") outer_dur = static_cast<std::uint64_t>(
        event.find("dur")->as_number());
    if (name == "inner") inner_dur = static_cast<std::uint64_t>(
        event.find("dur")->as_number());
  }
  EXPECT_GE(outer_dur, inner_dur);  // the nested span is contained
}

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  TraceRecorder::global().set_enabled(false);
  {
    TraceSpan span("invisible");
  }
  EXPECT_EQ(TraceRecorder::global().event_count(), 0u);
}

TEST(Reporter, RoundEventsReachSubscribersAndJsonl) {
  const std::string path = ::testing::TempDir() + "obs_test_metrics.jsonl";
  std::size_t seen = 0;
  {
    CampaignReporter::Options options;
    options.metrics_path = path;
    options.label = "unit";
    CampaignReporter reporter(options);
    reporter.on_round([&seen](const RoundEvent& e) {
      seen += e.round;
    });
    reporter.begin(1e-3, 2, 10);
    RoundEvent event;
    event.round = 1;
    event.cumulative_samples = 20;
    event.mean_error = 12.5;
    reporter.round(event);
    event.round = 2;
    event.cumulative_samples = 40;
    reporter.round(event);
    reporter.end(true, 2);
    EXPECT_EQ(reporter.events().size(), 2u);
  }
  EXPECT_EQ(seen, 3u);

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  std::string error;
  EXPECT_TRUE(jsonl_valid(text, &error)) << error;
  // begin + 2 rounds + end + metrics snapshot.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 5);
  EXPECT_NE(text.find("\"event\":\"campaign_begin\""), std::string::npos);
  EXPECT_NE(text.find("\"event\":\"campaign_end\""), std::string::npos);
  EXPECT_NE(text.find("\"event\":\"metrics\""), std::string::npos);
}

TEST(Reporter, ChainHealthAndCheckpointEventsAreValidJsonl) {
  const std::string path = ::testing::TempDir() + "obs_test_health.jsonl";
  {
    CampaignReporter::Options options;
    options.metrics_path = path;
    options.label = "unit";
    options.fsync = true;  // exercise the crash-durable path too
    CampaignReporter reporter(options);
    ChainHealthEvent event;
    event.round = 3;
    event.chain = 1;
    event.status = "retrying";
    event.reason = "timeout";
    event.retries = 1;
    reporter.health_hook()(event);
    event.status = "quarantined";
    event.reason = "nan_divergence";
    event.retries = 3;
    reporter.chain_health(event);
    reporter.checkpoint_saved(3, "/tmp/ck/campaign.ckpt.json");
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  std::string error;
  EXPECT_TRUE(jsonl_valid(text, &error)) << error;
  EXPECT_NE(text.find("\"event\":\"chain_health\""), std::string::npos);
  EXPECT_NE(text.find("\"status\":\"retrying\""), std::string::npos);
  EXPECT_NE(text.find("\"status\":\"quarantined\""), std::string::npos);
  EXPECT_NE(text.find("\"reason\":\"nan_divergence\""), std::string::npos);
  EXPECT_NE(text.find("\"event\":\"checkpoint\""), std::string::npos);
}

TEST(Reporter, MirrorsCompletenessTrajectory) {
  util::Rng rng{1};
  data::Dataset data = data::make_two_moons(120, 0.08, rng);
  util::Rng init{2};
  nn::Network net = nn::make_mlp({2, 8, 2}, init);
  train::TrainConfig train_config;
  train_config.epochs = 10;
  train_config.seed = 3;
  train::fit(net, data, data, train_config);
  bayes::BayesianFaultNetwork bfn(net, bayes::TargetSpec::all_parameters(),
                                  fault::AvfProfile::uniform(), data.inputs,
                                  data.labels);

  const double p = 1e-3;
  mcmc::TargetFactory factory = [p](bayes::BayesianFaultNetwork& n) {
    return std::make_unique<bayes::PriorTarget>(n, p);
  };
  mcmc::RunnerConfig config;
  config.num_chains = 2;
  config.mh.samples = 25;
  config.mh.burn_in = 10;
  config.seed = 4;
  CampaignReporter reporter({});
  config.round_hook = reporter.hook();
  mcmc::CompletenessCriterion criterion;
  criterion.rhat_threshold = 1.5;
  criterion.mean_rel_tol = 0.5;
  criterion.max_rounds = 4;
  const mcmc::CompletenessResult result =
      mcmc::run_until_complete(bfn, factory, p, config, criterion);

  // One reporter event per round, mirroring the trajectory exactly.
  ASSERT_EQ(reporter.events().size(), result.trajectory.size());
  for (std::size_t i = 0; i < result.trajectory.size(); ++i) {
    const RoundEvent& event = reporter.events()[i];
    const auto& round = result.trajectory[i];
    EXPECT_EQ(event.round, i + 1);
    EXPECT_DOUBLE_EQ(event.p, p);
    EXPECT_EQ(event.cumulative_samples, round.cumulative_samples);
    EXPECT_DOUBLE_EQ(event.mean_error, round.mean_error);
    EXPECT_DOUBLE_EQ(event.rhat, round.rhat);
    EXPECT_DOUBLE_EQ(event.ess, round.ess);
    EXPECT_GE(event.acceptance_rate, 0.0);
    EXPECT_LE(event.acceptance_rate, 1.0);
    EXPECT_GE(event.round_seconds, 0.0);
  }
  EXPECT_EQ(reporter.events().back().network_evals,
            result.final_result.total_network_evals);
}

TEST(Reporter, SingleRoundHookFiresFromRunChains) {
  util::Rng rng{5};
  data::Dataset data = data::make_two_moons(80, 0.08, rng);
  util::Rng init{6};
  nn::Network net = nn::make_mlp({2, 6, 2}, init);
  bayes::BayesianFaultNetwork bfn(net, bayes::TargetSpec::all_parameters(),
                                  fault::AvfProfile::uniform(), data.inputs,
                                  data.labels);
  const double p = 1e-3;
  mcmc::TargetFactory factory = [p](bayes::BayesianFaultNetwork& n) {
    return std::make_unique<bayes::PriorTarget>(n, p);
  };
  mcmc::RunnerConfig config;
  config.num_chains = 2;
  config.mh.samples = 15;
  config.seed = 7;
  std::vector<RoundEvent> events;
  config.round_hook = [&events](const RoundEvent& e) { events.push_back(e); };
  const mcmc::CampaignResult result = mcmc::run_chains(bfn, factory, p, config);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].round, 1u);
  EXPECT_EQ(events[0].cumulative_samples, result.total_samples);
  EXPECT_DOUBLE_EQ(events[0].acceptance_rate, result.mean_acceptance);
}

}  // namespace
}  // namespace bdlfi::obs
