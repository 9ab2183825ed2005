// Tests for the campaign flight-recorder read side: the crash-tolerant
// incremental JSONL reader (obs/stream.h), the multi-stream EventAggregator
// (obs/aggregate.h), histogram quantile export, the reporter's
// campaign_id/seq envelope, the bench-history regression tracker
// (bench/history.h), and the shared bench/CLI flag parser (bench/common.h).
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/common.h"
#include "bench/history.h"
#include "obs/aggregate.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/reporter.h"
#include "obs/stream.h"

namespace bdlfi::obs {
namespace {

std::string test_path(const std::string& name) {
  return ::testing::TempDir() + "bdlfi_stream_" + name;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(content.data(),
            static_cast<std::streamsize>(content.size()));
}

void append_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(content.data(),
            static_cast<std::streamsize>(content.size()));
}

TEST(Ewma, SeedsOnFirstUpdateThenBlends) {
  Ewma e;
  EXPECT_FALSE(e.seeded());
  EXPECT_DOUBLE_EQ(e.update(100.0), 100.0);
  EXPECT_TRUE(e.seeded());
  // alpha = 0.3: 0.3 * 200 + 0.7 * 100.
  EXPECT_DOUBLE_EQ(e.update(200.0), 130.0);
  e.reset();
  EXPECT_FALSE(e.seeded());
  EXPECT_DOUBLE_EQ(e.update(7.0), 7.0);
}

TEST(Fnv1a64, MatchesReferenceVectorsAndHexFormat) {
  // Published FNV-1a test vectors.
  EXPECT_EQ(fnv1a64(""), 14695981039346656037ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_NE(fnv1a64("campaign-a"), fnv1a64("campaign-b"));
  const std::string hex = hex64(0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(hex, "af63dc4c8601ec8c");
  EXPECT_EQ(hex64(0x1ULL).size(), 16u);
  EXPECT_EQ(hex64(0x1ULL), "0000000000000001");
}

TEST(JsonlTailReader, ReadsCompleteLinesAndSkipsBlanks) {
  const std::string path = test_path("basic.jsonl");
  write_file(path, "{\"a\":1}\n\n{\"b\":2}\n");
  JsonlTailReader reader(path);
  std::vector<JsonValue> events;
  EXPECT_EQ(reader.poll(&events), 2u);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_DOUBLE_EQ(events[0].find("a")->as_number(), 1.0);
  EXPECT_DOUBLE_EQ(events[1].find("b")->as_number(), 2.0);
  EXPECT_EQ(reader.lines_read(), 2u);
  EXPECT_EQ(reader.parse_errors(), 0u);
  // Nothing new: next poll yields nothing.
  EXPECT_EQ(reader.poll(&events), 0u);
  std::filesystem::remove(path);
}

TEST(JsonlTailReader, MissingFileIsNotAnError) {
  JsonlTailReader reader(test_path("never_created.jsonl"));
  std::vector<JsonValue> events;
  EXPECT_EQ(reader.poll(&events), 0u);
  EXPECT_EQ(reader.offset(), 0u);
}

TEST(JsonlTailReader, MalformedCompleteLineIsCountedAndSkipped) {
  const std::string path = test_path("malformed.jsonl");
  write_file(path, "{\"ok\":1}\n{not json}\n{\"ok\":2}\n");
  JsonlTailReader reader(path);
  std::vector<JsonValue> events;
  EXPECT_EQ(reader.poll(&events), 2u);
  EXPECT_EQ(reader.parse_errors(), 1u);
  std::filesystem::remove(path);
}

// The crash-tolerance contract: truncate the stream at EVERY byte boundary
// of the final line. At each cut the reader must yield exactly the complete
// preceding events, never a partial one, and never advance past the torn
// fragment — so that appending the rest of the line resumes cleanly.
TEST(JsonlTailReader, TornTrailingLineAtEveryByteBoundary) {
  const std::string head = "{\"event\":\"round\",\"seq\":1}\n";
  const std::string tail = "{\"event\":\"campaign_end\",\"seq\":2}\n";
  const std::string path = test_path("torn.jsonl");
  for (std::size_t cut = 0; cut < tail.size(); ++cut) {
    write_file(path, head + tail.substr(0, cut));
    JsonlTailReader reader(path);
    std::vector<JsonValue> events;
    reader.poll(&events);
    ASSERT_EQ(events.size(), 1u) << "cut=" << cut;
    EXPECT_EQ(events[0].find("event")->as_string(), "round");
    // The torn fragment is pending: the offset sits at its first byte.
    EXPECT_EQ(reader.offset(), head.size()) << "cut=" << cut;

    // Writer recovers and completes the line: one more poll gets it whole.
    append_file(path, tail.substr(cut));
    events.clear();
    EXPECT_EQ(reader.poll(&events), 1u) << "cut=" << cut;
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].find("event")->as_string(), "campaign_end");
    EXPECT_EQ(reader.offset(), head.size() + tail.size());
  }
  std::filesystem::remove(path);
}

TEST(JsonlTailReader, WriterRestartResetsToNewContent) {
  const std::string path = test_path("restart.jsonl");
  write_file(path, "{\"run\":1,\"x\":1}\n{\"run\":1,\"x\":2}\n");
  JsonlTailReader reader(path);
  std::vector<JsonValue> events;
  EXPECT_EQ(reader.poll(&events), 2u);
  // A new writer truncates and starts over with a shorter file.
  write_file(path, "{\"run\":2}\n");
  events.clear();
  EXPECT_EQ(reader.poll(&events), 1u);
  EXPECT_EQ(reader.truncations(), 1u);
  EXPECT_DOUBLE_EQ(events[0].find("run")->as_number(), 2.0);
  std::filesystem::remove(path);
}

TEST(JsonlTailReader, CrLfLinesAreTolerated) {
  const std::string path = test_path("crlf.jsonl");
  write_file(path, "{\"a\":1}\r\n{\"b\":2}\r\n");
  JsonlTailReader reader(path);
  std::vector<JsonValue> events;
  EXPECT_EQ(reader.poll(&events), 2u);
  EXPECT_EQ(reader.parse_errors(), 0u);
  std::filesystem::remove(path);
}

JsonValue parse(const std::string& text) {
  auto doc = json_parse(text);
  EXPECT_TRUE(doc.has_value()) << text;
  return doc.has_value() ? *doc : JsonValue{};
}

TEST(EventAggregator, MergesRoundsIntoCampaignState) {
  EventAggregator agg;
  agg.ingest(parse(R"({"event":"campaign_begin","label":"t","campaign_id":
      "00000000000000aa","seq":1,"backend":"scalar","p":0.001,"chains":4,
      "samples_per_round":100,"max_rounds":8,"ts_ms":1000})"),
             "s1");
  agg.ingest(parse(R"({"event":"round","label":"t","campaign_id":
      "00000000000000aa","seq":2,"round":1,"rounds_budget":8,"p":0.001,
      "samples":400,"mean_error":1.5,"rhat":1.2,"ess":50,
      "acceptance_rate":0.4,"network_evals":400,"evals_per_sec":100,
      "cache_hit_rate":0.9,"detection_coverage":0.8,"sdc_rate":0.01,
      "outcome_masked":300,"outcome_sdc":4,"outcome_detected":90,
      "outcome_corrected":6,"seconds":2.0,"chains_quarantined":0,
      "degraded":false,"ts_ms":3000})"),
             "s1");
  agg.ingest(parse(R"({"event":"round","label":"t","campaign_id":
      "00000000000000aa","seq":3,"round":2,"rounds_budget":8,"p":0.001,
      "samples":800,"mean_error":1.4,"rhat":1.1,"ess":80,
      "acceptance_rate":0.42,"network_evals":800,"evals_per_sec":120,
      "cache_hit_rate":0.92,"detection_coverage":0.82,"sdc_rate":0.012,
      "outcome_masked":600,"outcome_sdc":9,"outcome_detected":180,
      "outcome_corrected":11,"seconds":2.0,"chains_quarantined":0,
      "degraded":false,"ts_ms":5000})"),
             "s1");
  ASSERT_EQ(agg.campaigns().size(), 1u);
  const CampaignState* c = agg.find("00000000000000aa");
  ASSERT_NE(c, nullptr);
  EXPECT_TRUE(c->begun);
  EXPECT_FALSE(c->ended);
  EXPECT_EQ(c->chains, 4u);
  EXPECT_EQ(c->rounds_seen, 2u);
  EXPECT_EQ(c->rounds_budget, 8u);
  EXPECT_DOUBLE_EQ(c->completeness(), 2.0 / 8.0);
  EXPECT_DOUBLE_EQ(c->rhat, 1.1);
  EXPECT_EQ(c->outcome_sdc, 9u);
  EXPECT_EQ(c->samples, 800u);
  // Two rounds at 2s each, 6 budgeted rounds remain.
  EXPECT_NEAR(c->eta_seconds(), 6.0 * 2.0, 1e-9);
  // R-hat dropped 0.1 over one round.
  EXPECT_NEAR(c->rhat_trend(), -0.1, 1e-9);
  EXPECT_EQ(agg.seq_gaps(), 0u);

  agg.ingest(parse(R"({"event":"campaign_end","label":"t","campaign_id":
      "00000000000000aa","seq":4,"converged":true,"rounds":2,
      "ts_ms":6000})"),
             "s1");
  EXPECT_TRUE(c->ended);
  EXPECT_TRUE(c->converged);
  EXPECT_DOUBLE_EQ(c->completeness(), 1.0);
  EXPECT_DOUBLE_EQ(c->eta_seconds(), 0.0);
}

TEST(EventAggregator, KeepsConcurrentCampaignsSeparate) {
  EventAggregator agg;
  agg.ingest(parse(R"({"event":"campaign_begin","label":"a","campaign_id":
      "00000000000000aa","seq":1,"p":0.001,"chains":2,"samples_per_round":10,
      "max_rounds":4})"),
             "a.jsonl");
  agg.ingest(parse(R"({"event":"campaign_begin","label":"b","campaign_id":
      "00000000000000bb","seq":1,"p":0.002,"chains":2,"samples_per_round":10,
      "max_rounds":4})"),
             "b.jsonl");
  ASSERT_EQ(agg.campaigns().size(), 2u);
  EXPECT_EQ(agg.campaigns()[0]->campaign_id, "00000000000000aa");
  EXPECT_EQ(agg.campaigns()[1]->campaign_id, "00000000000000bb");
  // Two streams, each starting at seq 1: no gaps.
  EXPECT_EQ(agg.seq_gaps(), 0u);
}

TEST(EventAggregator, CountsSeqGapsPerStream) {
  EventAggregator agg;
  agg.ingest(parse(R"({"event":"round","campaign_id":"00000000000000aa",
      "seq":1,"round":1})"),
             "s");
  agg.ingest(parse(R"({"event":"round","campaign_id":"00000000000000aa",
      "seq":3,"round":2})"),
             "s");
  EXPECT_EQ(agg.seq_gaps(), 1u);
}

TEST(EventAggregator, HealthCheckpointAndMetricsEvents) {
  EventAggregator agg;
  agg.ingest(parse(R"({"event":"chain_health","campaign_id":
      "00000000000000aa","seq":1,"round":1,"chain":0,"status":"retrying",
      "reason":"timeout","retries":1})"));
  agg.ingest(parse(R"({"event":"chain_health","campaign_id":
      "00000000000000aa","seq":2,"round":2,"chain":0,"status":"quarantined",
      "reason":"timeout","retries":2})"));
  agg.ingest(parse(R"({"event":"checkpoint","campaign_id":
      "00000000000000aa","seq":3,"round":2,"path":"/tmp/ck.json",
      "ts_ms":123})"));
  agg.ingest(parse(R"({"event":"metrics","campaign_id":"00000000000000aa",
      "seq":4,"registry":{"campaign.round_seconds":{"count":5,"sum":10.0,
      "bounds":[1,5],"buckets":[3,2,0],"p50":0.83,"p95":3.5,"p99":4.7}}})"));
  const CampaignState* c = agg.find("00000000000000aa");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->retries, 1u);
  EXPECT_EQ(c->quarantine_events, 1u);
  ASSERT_EQ(c->checkpoints.size(), 1u);
  EXPECT_EQ(c->checkpoints[0].path, "/tmp/ck.json");
  ASSERT_TRUE(c->round_latency.present);
  EXPECT_DOUBLE_EQ(c->round_latency.p50, 0.83);
  EXPECT_EQ(c->round_latency.count, 5u);
}

TEST(EventAggregator, UnknownEventsAreIgnoredNotFatal) {
  EventAggregator agg;
  agg.ingest(parse(R"({"event":"future_event_type","campaign_id":
      "00000000000000aa","seq":1})"));
  agg.ingest(parse(R"([1,2,3])"));
  agg.ingest(parse(R"({"no_event_key":true})"));
  EXPECT_EQ(agg.events_seen(), 3u);
  EXPECT_EQ(agg.events_ignored(), 3u);
}

TEST(HistogramQuantiles, InterpolatesWithinBuckets) {
  Histogram h({1.0, 2.0, 4.0});
  // 4 observations in (0,1], 4 in (1,2], 2 in (2,4].
  for (int i = 0; i < 4; ++i) h.observe(0.5);
  for (int i = 0; i < 4; ++i) h.observe(1.5);
  for (int i = 0; i < 2; ++i) h.observe(3.0);
  // p50: rank 5 of 10 -> 1 into the second bucket of 4: 1 + (5-4)/4 * 1.
  EXPECT_NEAR(h.quantile(0.5), 1.25, 1e-9);
  // p100 clamps to the last bound.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(Histogram({1.0}).quantile(0.5), 0.0);  // empty
}

TEST(HistogramQuantiles, OverflowClampsToLastBound) {
  Histogram h({1.0, 2.0});
  h.observe(100.0);
  h.observe(200.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
}

TEST(HistogramQuantiles, ExportedInSnapshotAndRegistryJson) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("test.latency", {1.0, 2.0});
  h.observe(0.5);
  h.observe(1.5);
  const auto snaps = registry.snapshot();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_GT(snaps[0].p50, 0.0);
  EXPECT_GE(snaps[0].p99, snaps[0].p50);
  const std::string json = registry.to_json();
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  // The export must stay strict JSON.
  EXPECT_TRUE(json_parse(json).has_value());
}

// End to end: reporter writes a stream -> tail reader -> aggregator. This is
// exactly the bdlfi_dash pipeline.
TEST(FlightRecorder, ReporterStreamRoundTripsThroughAggregator) {
  const std::string path = test_path("roundtrip.jsonl");
  {
    CampaignReporter::Options options;
    options.metrics_path = path;
    options.label = "rt";
    options.backend = "scalar";
    options.subject = "conv1";
    CampaignReporter reporter(options);
    reporter.set_campaign_id("00000000000000cc");
    reporter.begin(1e-3, 2, 50, 4);
    RoundEvent ev;
    ev.round = 1;
    ev.p = 1e-3;
    ev.cumulative_samples = 100;
    ev.mean_error = 2.0;
    ev.rhat = 1.3;
    ev.ess = 20;
    ev.evals_per_sec = 500;
    ev.round_seconds = 1.5;
    ev.outcome_masked = 90;
    ev.outcome_sdc = 2;
    ev.outcome_detected = 7;
    ev.outcome_corrected = 1;
    ev.rounds_budget = 4;
    reporter.round(ev);
    reporter.checkpoint_saved(1, "/tmp/rt.ckpt.json");
    reporter.end(true, 1);
  }
  JsonlTailReader reader(path);
  std::vector<JsonValue> events;
  reader.poll(&events);
  // begin + round + checkpoint + end + trailing metrics snapshot.
  ASSERT_EQ(events.size(), 5u);
  // Every event carries the envelope, with strictly increasing seq.
  std::uint64_t last_seq = 0;
  for (const auto& e : events) {
    const JsonValue* id = e.find("campaign_id");
    ASSERT_NE(id, nullptr);
    EXPECT_EQ(id->as_string(), "00000000000000cc");
    const JsonValue* seq = e.find("seq");
    ASSERT_NE(seq, nullptr);
    EXPECT_GT(seq->as_number(), static_cast<double>(last_seq));
    last_seq = static_cast<std::uint64_t>(seq->as_number());
  }
  // The round event carries the smoothed throughput + ETA fields.
  const JsonValue& round = events[1];
  EXPECT_EQ(round.find("event")->as_string(), "round");
  EXPECT_DOUBLE_EQ(round.find("evals_per_sec_ewma")->as_number(), 500.0);
  EXPECT_DOUBLE_EQ(round.find("rounds_budget")->as_number(), 4.0);
  // 3 budgeted rounds remain at 1.5s smoothed.
  EXPECT_NEAR(round.find("eta_s")->as_number(), 4.5, 1e-9);
  EXPECT_DOUBLE_EQ(round.find("outcome_masked")->as_number(), 90.0);

  EventAggregator agg;
  agg.ingest_all(events, path);
  ASSERT_EQ(agg.campaigns().size(), 1u);
  const CampaignState* c = agg.find("00000000000000cc");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->label, "rt");
  EXPECT_EQ(c->subject, "conv1");
  EXPECT_EQ(c->backend, "scalar");
  EXPECT_TRUE(c->converged);
  EXPECT_EQ(c->outcome_masked, 90u);
  ASSERT_EQ(c->checkpoints.size(), 1u);
  EXPECT_EQ(agg.seq_gaps(), 0u);
  std::filesystem::remove(path);
}

TEST(FlightRecorder, AutoDerivedCampaignIdsAreDistinctHex) {
  const std::string p1 = test_path("auto1.jsonl");
  const std::string p2 = test_path("auto2.jsonl");
  std::string id1, id2;
  {
    CampaignReporter::Options options;
    options.metrics_path = p1;
    options.label = "same";
    CampaignReporter r1(options);
    r1.begin(1e-3, 2, 10);
    id1 = r1.campaign_id();
    options.metrics_path = p2;
    CampaignReporter r2(options);
    r2.metrics_event();
    id2 = r2.campaign_id();
  }
  EXPECT_EQ(id1.size(), 16u);
  EXPECT_EQ(id2.size(), 16u);
  for (const char ch : id1) {
    EXPECT_TRUE((ch >= '0' && ch <= '9') || (ch >= 'a' && ch <= 'f')) << id1;
  }
  std::filesystem::remove(p1);
  std::filesystem::remove(p2);
}

}  // namespace
}  // namespace bdlfi::obs

namespace bdlfi::bench {
namespace {

obs::JsonValue parse(const std::string& text) {
  auto doc = obs::json_parse(text);
  EXPECT_TRUE(doc.has_value()) << text;
  return doc.has_value() ? *doc : obs::JsonValue{};
}

TEST(BenchHistory, ExtractsHeadlineMetricsPerBench) {
  std::string error;
  const auto kernels = entry_from_bench_doc(
      parse(R"({"config":{"backend":"avx2","avx2_supported":true,
          "smoke":false},"gemm":[{"n":256,"scalar_gflops":5.0}],
          "summary":{"speedup_n256":3.2}})"),
      "kernels", &error);
  ASSERT_TRUE(kernels.has_value()) << error;
  EXPECT_EQ(kernels->metric, "speedup_n256");
  EXPECT_DOUBLE_EQ(kernels->value, 3.2);
  EXPECT_TRUE(kernels->higher_is_better);
  EXPECT_EQ(kernels->backend, "avx2");
  EXPECT_EQ(kernels->fingerprint.size(), 16u);

  // Scalar-only machine: falls back to absolute throughput.
  const auto scalar = entry_from_bench_doc(
      parse(R"({"config":{"backend":"scalar","avx2_supported":false,
          "smoke":true},"gemm":[{"n":64,"scalar_gflops":2.0},
          {"n":256,"scalar_gflops":5.0}],"summary":{"speedup_n256":0.0}})"),
      "kernels", &error);
  ASSERT_TRUE(scalar.has_value()) << error;
  EXPECT_EQ(scalar->metric, "scalar_gflops");
  EXPECT_DOUBLE_EQ(scalar->value, 5.0);
  EXPECT_TRUE(scalar->smoke);

  const auto abft = entry_from_bench_doc(
      parse(R"({"config":{"backend":"scalar","smoke":false},
          "summary":{"detect_overhead_pct":12.0}})"),
      "abft", &error);
  ASSERT_TRUE(abft.has_value()) << error;
  EXPECT_EQ(abft->metric, "detect_overhead_pct");
  EXPECT_FALSE(abft->higher_is_better);

  const auto mask = entry_from_bench_doc(
      parse(R"({"config":{"backend":"scalar","smoke":false},
          "summary":{"overall_speedup":4.5}})"),
      "mask_eval", &error);
  ASSERT_TRUE(mask.has_value()) << error;
  EXPECT_DOUBLE_EQ(mask->value, 4.5);

  EXPECT_FALSE(
      entry_from_bench_doc(parse(R"({"summary":{}})"), "abft", &error)
          .has_value());
}

TEST(BenchHistory, FingerprintTracksConfigChanges) {
  const auto a = parse(R"({"width":0.125,"image_size":16,"smoke":true})");
  const auto b = parse(R"({"width":0.125,"image_size":32,"smoke":true})");
  const auto a2 = parse(R"({"image_size":16,"smoke":true,"width":0.125})");
  EXPECT_NE(config_fingerprint(a), config_fingerprint(b));
  // Key order does not matter: objects serialize sorted.
  EXPECT_EQ(config_fingerprint(a), config_fingerprint(a2));
}

TEST(BenchHistory, RegressionGateFlagsSlowdownsBothDirections) {
  HistoryEntry base;
  base.bench = "mask_eval";
  base.fingerprint = "00000000000000aa";
  base.metric = "overall_speedup";
  base.value = 4.0;
  base.higher_is_better = true;

  HistoryEntry fresh = base;
  fresh.value = 2.0;  // injected 2x slowdown
  auto check = check_regression({base}, fresh, 0.35);
  EXPECT_TRUE(check.has_baseline);
  EXPECT_TRUE(check.regression);
  EXPECT_NEAR(check.worse_frac, 0.5, 1e-9);

  fresh.value = 3.8;  // within noise
  check = check_regression({base}, fresh, 0.35);
  EXPECT_FALSE(check.regression);

  fresh.value = 6.0;  // an improvement never trips the gate
  check = check_regression({base}, fresh, 0.35);
  EXPECT_FALSE(check.regression);
  EXPECT_DOUBLE_EQ(check.worse_frac, 0.0);

  // Lower-is-better metric (overhead pct): higher value = regression.
  HistoryEntry lo = base;
  lo.bench = "abft";
  lo.metric = "detect_overhead_pct";
  lo.value = 10.0;
  lo.higher_is_better = false;
  HistoryEntry worse = lo;
  worse.value = 20.0;
  check = check_regression({lo}, worse, 0.35);
  EXPECT_TRUE(check.regression);

  // A different fingerprint is a different population: no baseline.
  HistoryEntry other = fresh;
  other.fingerprint = "00000000000000bb";
  check = check_regression({base}, other, 0.35);
  EXPECT_FALSE(check.has_baseline);
  EXPECT_FALSE(check.regression);
}

TEST(BenchHistory, BestPriorWinsOverLaterWorseEntries) {
  HistoryEntry fast, slow;
  fast.bench = slow.bench = "kernels";
  fast.fingerprint = slow.fingerprint = "00000000000000aa";
  fast.higher_is_better = slow.higher_is_better = true;
  fast.value = 4.0;
  slow.value = 2.5;  // a recorded bad flight must not lower the bar
  HistoryEntry fresh = fast;
  fresh.value = 2.4;
  const auto check = check_regression({fast, slow}, fresh, 0.35);
  EXPECT_DOUBLE_EQ(check.best, 4.0);
  EXPECT_TRUE(check.regression);
}

TEST(BenchHistory, AppendLoadRoundTripSkipsTornTail) {
  const std::string path =
      ::testing::TempDir() + "bdlfi_stream_history.jsonl";
  std::filesystem::remove(path);
  HistoryEntry e;
  e.bench = "abft";
  e.backend = "scalar";
  e.fingerprint = "00000000000000aa";
  e.metric = "detect_overhead_pct";
  e.value = 12.5;
  e.higher_is_better = false;
  e.smoke = true;
  e.ts_ms = 42;
  ASSERT_TRUE(append_history(path, e));
  ASSERT_TRUE(append_history(path, e));
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "{\"bench\":\"abft\",\"torn";  // killed writer
  }
  std::size_t skipped = 0;
  const auto loaded = load_history(path, &skipped);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(skipped, 1u);
  EXPECT_EQ(loaded[0].bench, "abft");
  EXPECT_DOUBLE_EQ(loaded[0].value, 12.5);
  EXPECT_FALSE(loaded[0].higher_is_better);
  EXPECT_TRUE(loaded[0].smoke);
  EXPECT_EQ(loaded[0].ts_ms, 42u);
  std::filesystem::remove(path);
}

Flags flags_of(std::string arg) {
  std::string program = "bench";
  char* argv[] = {program.data(), arg.data()};
  return Flags(2, argv);
}

TEST(BenchFlags, ParsesWellFormedNumbers) {
  EXPECT_DOUBLE_EQ(flags_of("--p=1e-4").get("p", 0.5), 1e-4);
  EXPECT_EQ(flags_of("--seed=-3").get("seed", std::int64_t{1}), -3);
  EXPECT_EQ(flags_of("--chains=6").get("chains", std::size_t{4}), 6u);
  EXPECT_EQ(flags_of("--smoke").get("smoke", std::int64_t{0}), 1);
  EXPECT_EQ(flags_of("--other=x").get("chains", std::size_t{4}), 4u);
}

// A negative count would wrap to ~2^64 and garbage would read as 0, so both
// exit with the bad-usage code and name the flag.
TEST(BenchFlags, RejectsGarbageAndNegativeCountsWithUsageExit) {
  EXPECT_EXIT(
      (void)flags_of("--injections=-1").get("injections", std::size_t{100}),
      ::testing::ExitedWithCode(2), "bad value for --injections: '-1'");
  EXPECT_EXIT((void)flags_of("--chains=-2").get("chains", std::size_t{4}),
              ::testing::ExitedWithCode(2), "bad value for --chains: '-2'");
  EXPECT_EXIT(
      (void)flags_of("--injections=abc").get("injections", std::size_t{100}),
      ::testing::ExitedWithCode(2), "bad value for --injections: 'abc'");
  EXPECT_EXIT((void)flags_of("--seed=12x").get("seed", std::int64_t{1}),
              ::testing::ExitedWithCode(2), "bad value for --seed: '12x'");
  EXPECT_EXIT((void)flags_of("--p=").get("p", 1e-3),
              ::testing::ExitedWithCode(2), "bad value for --p: ''");
  EXPECT_EXIT((void)flags_of("--p=1e-3q").get("p", 1e-3),
              ::testing::ExitedWithCode(2), "bad value for --p: '1e-3q'");
}

}  // namespace
}  // namespace bdlfi::bench
