// ABFT checksummed GEMM: zero false positives on clean kernels, single-bit
// compute-fault detection on every backend, recovery back to the golden
// output, bit-exact transparency of a checked-but-clean network forward, and
// the kCompute injection-space / ComputeFaultSampler plumbing.
#include "tensor/abft.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <future>
#include <string>
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
  // A checked conv runs its panel tiles on the global pool and verifies each
  // sample's window inside its tile, so a conv called from a pool task nests
  // a parallel_for on the same pool. It must complete from the main thread
  // and from a pool task.
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

// Reference checked conv, one sample at a time: one im2col and one
// gemm_checked per sample, whose output window starts at s*O*OH*OW, then the
// per-plane bias. Written out here so the checked panels are compared
// against it, not against themselves.
Tensor per_sample_checked_conv2d(const Tensor& input, const Tensor& weight,
                                 const Tensor& bias, const Conv2dSpec& spec,
                                 const OpContext& ctx) {
  const std::int64_t n = input.shape()[0], c = input.shape()[1],
                     h = input.shape()[2], w = input.shape()[3];
  const std::int64_t o = weight.shape()[0];
  const std::int64_t ohow = spec.out_h(h) * spec.out_w(w);
  const std::int64_t patch = c * spec.kernel_h * spec.kernel_w;
  Tensor out{Shape{n, o, spec.out_h(h), spec.out_w(w)}};
  std::vector<float> cols(static_cast<std::size_t>(patch * ohow));
  for (std::int64_t s = 0; s < n; ++s) {
    im2col(input.data() + s * c * h * w, c, h, w, spec, cols.data());
    float* dst = out.data() + s * o * ohow;
    gemm_checked(false, false, o, ohow, patch, 1.0f, weight.data(), patch,
                 cols.data(), ohow, dst, ohow, ctx, s * o * ohow);
    if (!bias.empty()) {
      for (std::int64_t oc = 0; oc < o; ++oc) {
        backend::active().add_const(dst + oc * ohow, bias[oc], ohow);
      }
    }
  }
  return out;
}

TEST(AbftConv, CheckedPanelsMatchPerSampleGemmChecked) {
  // A checked conv verifies each sample's [O, OH*OW] window of a wide panel
  // product (ldb = ldc = T*OH*OW) and addresses its compute flips from
  // s*O*OH*OW. Outputs and every counter must equal the per-sample
  // reference, clean and with high-bit flips in the first, a middle and the
  // last sample, in detect and correct mode, on every backend.
  struct Case {
    std::int64_t c, o, hw, kernel, stride, pad;
  };
  // The shapes of Conv2d.PanelPathBitIdenticalToPerSampleGemms.
  const Case cases[] = {{8, 16, 1, 3, 1, 1},  {16, 5, 2, 3, 1, 1},
                        {3, 8, 4, 3, 1, 1},   {4, 6, 16, 3, 1, 1},
                        {6, 12, 8, 3, 2, 1},  {8, 16, 4, 1, 2, 0}};
  const std::string restore = backend::active_name();
  std::uint64_t flagged_rows = 0;
  for (const std::string& name : backend::available()) {
    ASSERT_TRUE(backend::set_active(name));
    util::Rng rng{41};
    for (const Case& k : cases) {
      Conv2dSpec spec;
      spec.kernel_h = spec.kernel_w = k.kernel;
      spec.stride = k.stride;
      spec.set_pad(k.pad);
      const std::int64_t window = k.o * spec.out_h(k.hw) * spec.out_w(k.hw);
      for (const std::int64_t n : {1, 7, 64}) {
        // The clean run, then the first, a middle and the last sample struck
        // one at a time and all together: per struck sample, an exponent
        // flip in its first row and one in its last element.
        std::vector<FlipList> flip_sets(1);
        FlipList all;
        for (const std::int64_t s : {std::int64_t{0}, n / 2, n - 1}) {
          if (!all.empty() && all.back().first >= s * window) continue;
          const FlipList one = {{s * window, 30}, {(s + 1) * window - 1, 29}};
          flip_sets.push_back(one);
          all.insert(all.end(), one.begin(), one.end());
        }
        if (flip_sets.size() > 2) flip_sets.push_back(all);
        for (const bool with_bias : {false, true}) {
          const Tensor input = Tensor::randn(Shape{n, k.c, k.hw, k.hw}, rng);
          const Tensor weight =
              Tensor::randn(Shape{k.o, k.c, k.kernel, k.kernel}, rng);
          const Tensor bias =
              with_bias ? Tensor::randn(Shape{k.o}, rng) : Tensor{};
          for (const Mode mode : {Mode::kDetect, Mode::kCorrect}) {
            for (std::size_t f = 0; f < flip_sets.size(); ++f) {
              SCOPED_TRACE(name + " c=" + std::to_string(k.c) +
                           " hw=" + std::to_string(k.hw) +
                           " stride=" + std::to_string(k.stride) +
                           " n=" + std::to_string(n) +
                           " bias=" + std::to_string(with_bias) +
                           " mode=" + mode_name(mode) +
                           " flips=" + std::to_string(f));
              Stats got_stats, want_stats;
              OpContext ctx;
              ctx.config.mode = mode;
              ctx.flips = &flip_sets[f];
              ctx.stats = &got_stats;
              const Tensor got = conv2d_forward(input, weight, bias, spec, ctx);
              ctx.stats = &want_stats;
              const Tensor want =
                  per_sample_checked_conv2d(input, weight, bias, spec, ctx);
              ASSERT_EQ(got.shape(), want.shape());
              EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                    static_cast<std::size_t>(got.numel()) *
                                        sizeof(float)),
                        0);
              EXPECT_EQ(got_stats.checks.load(), want_stats.checks.load());
              EXPECT_EQ(got_stats.checks.load(), static_cast<std::uint64_t>(n));
              EXPECT_EQ(got_stats.rows_checked.load(),
                        want_stats.rows_checked.load());
              EXPECT_EQ(got_stats.detected_rows.load(),
                        want_stats.detected_rows.load());
              EXPECT_EQ(got_stats.corrected_rows.load(),
                        want_stats.corrected_rows.load());
              EXPECT_EQ(got_stats.faults_injected.load(),
                        want_stats.faults_injected.load());
              EXPECT_EQ(got_stats.faults_injected.load(), flip_sets[f].size());
              flagged_rows += got_stats.detected_rows.load() +
                              got_stats.corrected_rows.load();
            }
          }
        }
      }
    }
  }
  ASSERT_TRUE(backend::set_active(restore));
  // The flips must actually have been caught somewhere, or the flipped runs
  // compared nothing the clean runs did not.
  EXPECT_GT(flagged_rows, 0u);
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
