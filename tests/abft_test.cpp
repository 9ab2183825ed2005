// ABFT checksummed GEMM: zero false positives on clean kernels, single-bit
// compute-fault detection on every backend, recovery back to the golden
// output, bit-exact transparency of a checked-but-clean network forward, and
// the kCompute injection-space / ComputeFaultSampler plumbing.
#include "tensor/abft.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <future>
#include <vector>

#include "bayes/fault_network.h"
#include "data/toy2d.h"
#include "fault/models.h"
#include "nn/builders.h"
#include "nn/network.h"
#include "tensor/backend/backend.h"
#include "tensor/ops.h"
#include "train/trainer.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace bdlfi::tensor::abft {
namespace {

std::vector<float> random_matrix(std::int64_t numel, util::Rng& rng) {
  std::vector<float> m(static_cast<std::size_t>(numel));
  for (auto& v : m) v = static_cast<float>(rng.normal());
  return m;
}

/// Runs one checked GEMM over fresh random operands and returns the stats.
void run_checked(bool ta, bool tb, std::int64_t m, std::int64_t n,
                 std::int64_t k, Mode mode, const FlipList* flips,
                 Stats* stats, std::vector<float>* out, util::Rng& rng) {
  const std::vector<float> a = random_matrix(m * k, rng);
  const std::vector<float> b = random_matrix(k * n, rng);
  out->assign(static_cast<std::size_t>(m * n), 0.0f);
  OpContext ctx;
  ctx.config.mode = mode;
  ctx.stats = stats;
  ctx.flips = flips;
  const std::int64_t lda = ta ? m : k;
  const std::int64_t ldb = tb ? k : n;
  gemm_checked(ta, tb, m, n, k, 1.0f, a.data(), lda, b.data(), ldb,
               out->data(), n, ctx, /*elem_base=*/0);
}

TEST(AbftModes, ParseAndName) {
  Mode mode = Mode::kCorrect;
  EXPECT_TRUE(parse_mode("off", &mode));
  EXPECT_EQ(mode, Mode::kOff);
  EXPECT_TRUE(parse_mode("detect", &mode));
  EXPECT_EQ(mode, Mode::kDetect);
  EXPECT_TRUE(parse_mode("correct", &mode));
  EXPECT_EQ(mode, Mode::kCorrect);
  EXPECT_FALSE(parse_mode("recover", &mode));
  EXPECT_STREQ(mode_name(Mode::kDetect), "detect");
}

TEST(AbftChecksum, CleanGemmNeverFlagged) {
  // The tolerance is a worst-case rounding bound: no clean GEMM of any shape
  // or transpose combination may trip it.
  util::Rng rng{7};
  Stats stats;
  std::vector<float> c;
  const std::int64_t shapes[][3] = {
      {1, 1, 1}, {3, 5, 4}, {17, 9, 33}, {32, 64, 128}, {5, 1, 257}};
  for (const auto& s : shapes) {
    for (const bool ta : {false, true}) {
      for (const bool tb : {false, true}) {
        run_checked(ta, tb, s[0], s[1], s[2], Mode::kDetect, nullptr, &stats,
                    &c, rng);
      }
    }
  }
  EXPECT_EQ(stats.detected_rows.load(), 0u);
  EXPECT_EQ(stats.corrected_rows.load(), 0u);
  EXPECT_GT(stats.checks.load(), 0u);
  EXPECT_GT(stats.rows_checked.load(), 0u);
}

TEST(AbftChecksum, CleanGemmNeverFlaggedAvx2) {
  if (!backend::avx2_supported()) GTEST_SKIP() << "no AVX2 on this CPU";
  ASSERT_TRUE(backend::set_active("avx2"));
  util::Rng rng{11};
  Stats stats;
  std::vector<float> c;
  run_checked(false, false, 32, 48, 96, Mode::kDetect, nullptr, &stats, &c,
              rng);
  run_checked(false, true, 24, 16, 64, Mode::kDetect, nullptr, &stats, &c,
              rng);
  ASSERT_TRUE(backend::set_active("scalar"));
  EXPECT_EQ(stats.detected_rows.load(), 0u);
}

TEST(AbftChecksum, SingleHighBitFlipDetected) {
  // An exponent-bit flip of a nonzero element changes the row sum far beyond
  // any rounding slack — it must be flagged on every backend.
  for (const char* name : {"scalar", "avx2"}) {
    if (std::strcmp(name, "avx2") == 0 && !backend::avx2_supported()) continue;
    ASSERT_TRUE(backend::set_active(name));
    util::Rng rng{13};
    Stats stats;
    std::vector<float> c;
    const FlipList flips = {{7, 30}};  // element 7, exponent bit 30
    run_checked(false, false, 8, 8, 16, Mode::kDetect, &flips, &stats, &c,
                rng);
    EXPECT_EQ(stats.detected_rows.load(), 1u) << "backend " << name;
    EXPECT_EQ(stats.faults_injected.load(), 1u) << "backend " << name;
    EXPECT_EQ(stats.corrected_rows.load(), 0u) << "backend " << name;
  }
  ASSERT_TRUE(backend::set_active("scalar"));
}

TEST(AbftChecksum, DetectLeavesCorruptionInPlace) {
  // kDetect is a DUE: the row is flagged but the corrupted value stays.
  util::Rng clean_rng{17}, faulty_rng{17};
  Stats stats;
  std::vector<float> golden, faulty;
  run_checked(false, false, 4, 6, 8, Mode::kOff, nullptr, nullptr, &golden,
              clean_rng);
  const FlipList flips = {{2, 30}};
  run_checked(false, false, 4, 6, 8, Mode::kDetect, &flips, &stats, &faulty,
              faulty_rng);
  EXPECT_EQ(stats.detected_rows.load(), 1u);
  EXPECT_NE(faulty[2], golden[2]);
}

TEST(AbftChecksum, RecoveryRestoresGoldenBitExact) {
  // kCorrect recomputes the flagged row from the still-clean operands; on the
  // scalar backend the recomputed row is bit-identical to the fault-free run
  // (row-range recomputation uses the same serial kernel per row).
  ASSERT_TRUE(backend::set_active("scalar"));
  util::Rng clean_rng{19}, faulty_rng{19};
  Stats stats;
  std::vector<float> golden, repaired;
  run_checked(false, false, 6, 10, 12, Mode::kOff, nullptr, nullptr, &golden,
              clean_rng);
  const FlipList flips = {{13, 30}, {41, 25}};
  run_checked(false, false, 6, 10, 12, Mode::kCorrect, &flips, &stats,
              &repaired, faulty_rng);
  EXPECT_EQ(stats.corrected_rows.load(), 2u);
  EXPECT_EQ(stats.detected_rows.load(), 0u);
  ASSERT_EQ(repaired.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(repaired[i], golden[i]) << "element " << i;
  }
}

TEST(AbftChecksum, RecoveryWithinToleranceOnAvx2) {
  // AVX2 row-range recomputation may round differently from the full-matrix
  // pass (different cleanup tails), so recovery there asserts closeness, not
  // bit-exactness.
  if (!backend::avx2_supported()) GTEST_SKIP() << "no AVX2 on this CPU";
  ASSERT_TRUE(backend::set_active("avx2"));
  util::Rng clean_rng{23}, faulty_rng{23};
  Stats stats;
  std::vector<float> golden, repaired;
  run_checked(false, false, 8, 16, 32, Mode::kOff, nullptr, nullptr, &golden,
              clean_rng);
  const FlipList flips = {{20, 30}};
  run_checked(false, false, 8, 16, 32, Mode::kCorrect, &flips, &stats,
              &repaired, faulty_rng);
  ASSERT_TRUE(backend::set_active("scalar"));
  EXPECT_EQ(stats.corrected_rows.load(), 1u);
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_NEAR(repaired[i], golden[i], 1e-4) << "element " << i;
  }
}

TEST(AbftChecksum, NonFiniteRowAlwaysFails) {
  // A NaN-producing flip poisons the checksum comparison; the check must
  // treat the row as corrupted rather than letting NaN compare false.
  util::Rng rng{29};
  Stats stats;
  std::vector<float> c;
  // Bit pattern tricks aside: flipping bit 30 of a tiny value can produce
  // inf; force the issue with several high-bit flips in one row.
  const FlipList flips = {{0, 30}, {1, 30}, {2, 30}};
  run_checked(false, false, 2, 4, 4, Mode::kDetect, &flips, &stats, &c, rng);
  EXPECT_GE(stats.detected_rows.load(), 1u);
}

TEST(AbftConv, NestedGemmCompletesOnGlobalPool) {
  // The width-0.25 ResNet block0 shape: C = O = 16, 16x16, 3x3, batch 8.
  // Detect mode takes the per-sample checked path, whose 590k-flop GEMMs
  // exceed gemm's parallel threshold, so every sample chunk nests a row
  // split on the same pool. With all workers in sample chunks that used to
  // hang; it must complete from the main thread and from a pool task.
  util::Rng rng{31};
  const Tensor input = Tensor::randn(Shape{8, 16, 16, 16}, rng);
  const Tensor weight = Tensor::randn(Shape{16, 16, 3, 3}, rng);
  const Tensor bias = Tensor::randn(Shape{16}, rng);
  const Conv2dSpec spec;  // 3x3, stride 1, pad 1
  Stats stats;
  OpContext ctx;
  ctx.config.mode = Mode::kDetect;
  ctx.stats = &stats;

  const Tensor from_main = conv2d_forward(input, weight, bias, spec, ctx);
  std::promise<Tensor> promise;
  std::future<Tensor> from_task = promise.get_future();
  util::ThreadPool::global().submit([&] {
    promise.set_value(conv2d_forward(input, weight, bias, spec, ctx));
  });
  const Tensor nested = from_task.get();

  // A clean checked conv leaves the output untouched, so it also matches the
  // unchecked panel path bit for bit.
  const Tensor panel = conv2d_forward(input, weight, bias, spec);
  const auto bytes = static_cast<std::size_t>(panel.numel()) * sizeof(float);
  EXPECT_EQ(std::memcmp(from_main.data(), panel.data(), bytes), 0);
  EXPECT_EQ(std::memcmp(nested.data(), panel.data(), bytes), 0);
  EXPECT_EQ(stats.checks.load(), 16u);  // one per sample per call
  EXPECT_EQ(stats.detected_rows.load(), 0u);
}

// --- Network-level transparency and plumbing -------------------------------

class AbftNetworkTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    util::Rng rng{1};
    data_ = new data::Dataset(data::make_two_moons(240, 0.08, rng));
    util::Rng init{2};
    net_ = new nn::Network(nn::make_mlp({2, 16, 32, 2}, init));
    train::TrainConfig config;
    config.epochs = 25;
    config.lr = 0.05;
    config.seed = 3;
    train::fit(*net_, *data_, *data_, config);
  }
  static void TearDownTestSuite() {
    delete net_;
    delete data_;
  }
  static nn::Network* net_;
  static data::Dataset* data_;
};

nn::Network* AbftNetworkTest::net_ = nullptr;
data::Dataset* AbftNetworkTest::data_ = nullptr;

TEST_F(AbftNetworkTest, CheckedForwardIsBitExactOnCleanNetwork) {
  // Turning checking on must not perturb a fault-free forward: detect mode
  // only reads the output, and no clean row may be flagged (a false positive
  // under kCorrect would trigger a recompute and could change rounding).
  const Tensor plain = net_->forward(data_->inputs, false);
  for (const Mode mode : {Mode::kDetect, Mode::kCorrect}) {
    nn::Network checked = net_->clone();
    checked.set_abft(Config{mode, 4.0});
    const Tensor out = checked.forward(data_->inputs, false);
    EXPECT_EQ(Tensor::max_abs_diff(plain, out), 0.0f)
        << "mode " << mode_name(mode);
    EXPECT_EQ(checked.abft_stats().detected_rows.load(), 0u);
    EXPECT_EQ(checked.abft_stats().corrected_rows.load(), 0u);
    EXPECT_GT(checked.abft_stats().checks.load(), 0u);
  }
}

TEST_F(AbftNetworkTest, CloneCopiesConfigNotStats) {
  nn::Network checked = net_->clone();
  checked.set_abft(Config{Mode::kDetect, 4.0});
  (void)checked.forward(data_->inputs, false);
  ASSERT_GT(checked.abft_stats().checks.load(), 0u);
  nn::Network copy = checked.clone();
  EXPECT_EQ(copy.abft().mode, Mode::kDetect);
  EXPECT_EQ(copy.abft_stats().checks.load(), 0u);
}

TEST_F(AbftNetworkTest, ComputeSpaceEnumeratesGemmLayers) {
  bayes::BayesianFaultNetwork bfn(
      *net_, bayes::TargetSpec::compute_only(), fault::AvfProfile::uniform(),
      data_->inputs, data_->labels);
  ASSERT_GT(bfn.space().entries().size(), 0u);
  std::int64_t total = 0;
  for (const auto& e : bfn.space().entries()) {
    EXPECT_EQ(e.site, fault::InjectionSpace::SiteKind::kCompute);
    EXPECT_NE(e.name.find(".mac"), std::string::npos) << e.name;
    EXPECT_GE(e.layer, 0);
    total += e.numel;
  }
  EXPECT_EQ(total, bfn.space().total_elements());
  // An all-dense MLP exposes one .mac site per dense layer, each sized by the
  // eval batch: batch * layer_out elements.
  const auto batch = data_->inputs.shape()[0];
  EXPECT_EQ(bfn.space().total_elements(), batch * (16 + 32 + 2));
}

TEST_F(AbftNetworkTest, ComputeFaultSamplerDrawsOnlyComputeBits) {
  bayes::BayesianFaultNetwork bfn(
      *net_, bayes::TargetSpec::compute_only(), fault::AvfProfile::uniform(),
      data_->inputs, data_->labels);
  const fault::ComputeFaultSampler sampler(2e-4);
  util::Rng rng{5};
  std::size_t drew = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const fault::FaultMask mask = sampler.sample(bfn.space(), rng);
    for (const std::int64_t bit : mask.bits()) {
      ASSERT_GE(bit, 0);
      ASSERT_LT(bit, bfn.space().total_bits());
      ++drew;
    }
  }
  EXPECT_GT(drew, 0u);
}

TEST_F(AbftNetworkTest, OutcomeTaxonomyUnderComputeFaults) {
  // Unprotected: compute faults are either masked or SDC — never detected
  // (no checksum, and an exponent flip on an activation rarely reaches NaN
  // through the remaining layers... but NaN logits DO count as detected, so
  // only assert that ABFT adds detection on top).
  bayes::BayesianFaultNetwork plain(
      *net_, bayes::TargetSpec::compute_only(), fault::AvfProfile::uniform(),
      data_->inputs, data_->labels);
  nn::Network protected_net = net_->clone();
  protected_net.set_abft(Config{Mode::kDetect, 4.0});
  bayes::BayesianFaultNetwork checked(
      protected_net, bayes::TargetSpec::compute_only(),
      fault::AvfProfile::uniform(), data_->inputs, data_->labels);

  const fault::ComputeFaultSampler sampler(5e-5);
  util::Rng rng{31};
  std::size_t plain_detected = 0, checked_detected = 0, injected = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const fault::FaultMask mask = sampler.sample(plain.space(), rng);
    if (mask.bits().empty()) continue;
    ++injected;
    const auto base = plain.evaluate_mask(mask);
    const auto prot = checked.evaluate_mask(mask);
    EXPECT_GT(prot.abft_faults_injected, 0u);
    if (base.outcome == bayes::FaultOutcome::kDetected) ++plain_detected;
    if (prot.outcome == bayes::FaultOutcome::kDetected) ++checked_detected;
  }
  ASSERT_GT(injected, 0u);
  // The checksum sees every surviving high-bit compute fault; the unchecked
  // deployment only "detects" the rare NaN-logits case.
  EXPECT_GT(checked_detected, plain_detected);
}

TEST_F(AbftNetworkTest, RecoveryCorrectsComputeFaults) {
  nn::Network protected_net = net_->clone();
  protected_net.set_abft(Config{Mode::kCorrect, 4.0});
  bayes::BayesianFaultNetwork recovering(
      protected_net, bayes::TargetSpec::compute_only(),
      fault::AvfProfile::uniform(), data_->inputs, data_->labels);
  const fault::ComputeFaultSampler sampler(5e-5);
  util::Rng rng{37};
  std::size_t corrected = 0, injected = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const fault::FaultMask mask = sampler.sample(recovering.space(), rng);
    if (mask.bits().empty()) continue;
    ++injected;
    const auto outcome = recovering.evaluate_mask(mask);
    if (outcome.outcome == bayes::FaultOutcome::kCorrected) {
      ++corrected;
      // Scalar-backend recovery recomputes the row bit-exactly, so a fully
      // corrected evaluation matches golden with zero deviation.
      EXPECT_EQ(outcome.deviation, 0.0);
    }
  }
  ASSERT_GT(injected, 0u);
  EXPECT_GT(corrected, 0u);
}

TEST_F(AbftNetworkTest, ParameterFaultsInvisibleToAbft) {
  // ABFT checks the multiply, not the operands: a corrupted weight produces a
  // *consistent* (wrong) product, so checksum coverage of parameter faults
  // must be ~0 — that contrast is the point of the protection table.
  nn::Network protected_net = net_->clone();
  protected_net.set_abft(Config{Mode::kDetect, 4.0});
  bayes::BayesianFaultNetwork checked(
      protected_net, bayes::TargetSpec::all_parameters(),
      fault::AvfProfile::uniform(), data_->inputs, data_->labels);
  util::Rng rng{41};
  for (int trial = 0; trial < 30; ++trial) {
    const fault::FaultMask mask = checked.sample_prior_mask(1e-4, rng);
    const auto outcome = checked.evaluate_mask(mask);
    EXPECT_EQ(outcome.abft_detected_rows, 0u);
    EXPECT_EQ(outcome.abft_corrected_rows, 0u);
  }
}

}  // namespace
}  // namespace bdlfi::tensor::abft
