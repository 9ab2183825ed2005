// Network container: forward/backward wiring, activation hooks, parameter
// enumeration stability, cloning, ResNet/MLP builders, checkpoints.
#include "nn/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>

#include "nn/builders.h"
#include "nn/checkpoint.h"
#include "nn/layers.h"
#include "nn/resblock.h"
#include "util/rng.h"

namespace bdlfi::nn {
namespace {

Network tiny_mlp(std::uint64_t seed = 1) {
  util::Rng rng{seed};
  return make_mlp({2, 8, 8, 3}, rng);
}

TEST(Network, ForwardShape) {
  Network net = tiny_mlp();
  Tensor x{Shape{5, 2}};
  Tensor logits = net.forward(x);
  EXPECT_EQ(logits.shape(), Shape({5, 3}));
}

TEST(Network, LayerNamesAndKinds) {
  Network net = tiny_mlp();
  ASSERT_EQ(net.num_layers(), 5u);  // fc,relu,fc,relu,fc
  EXPECT_EQ(net.layer_name(0), "fc1");
  EXPECT_EQ(net.layer_kind(1), "relu");
  EXPECT_EQ(net.layer_name(4), "fc3");
}

TEST(Network, DuplicateLayerNameAborts) {
  Network net;
  net.add("a", std::make_unique<ReLU>());
  EXPECT_DEATH(net.add("a", std::make_unique<ReLU>()), "duplicate");
}

TEST(Network, ParamsOrderIsStable) {
  Network net = tiny_mlp();
  const auto a = net.params();
  const auto b = net.params();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].value, b[i].value);
  }
  EXPECT_EQ(a[0].name, "fc1.weight");
  EXPECT_EQ(a.back().name, "fc3.bias");
}

TEST(Network, CloneProducesIdenticalOutputsIndependentStorage) {
  util::Rng rng{7};
  Network net = tiny_mlp(7);
  Tensor x = Tensor::randn(Shape{4, 2}, rng);
  Network copy = net.clone();
  EXPECT_EQ(Tensor::max_abs_diff(net.forward(x), copy.forward(x)), 0.0f);
  // Mutating the copy leaves the original alone.
  (*copy.params()[0].value)[0] += 100.0f;
  EXPECT_NE(Tensor::max_abs_diff(net.forward(x), copy.forward(x)), 0.0f);
}

TEST(Network, ActivationHookSeesEveryLayerAndCanMutate) {
  Network net = tiny_mlp();
  Tensor x{Shape{1, 2}};
  std::vector<std::size_t> seen;
  Tensor clean = net.forward(x);
  Tensor hooked = net.forward(
      x, false, [&](std::size_t i, Tensor& act) {
        seen.push_back(i);
        if (i == 0) act.fill(0.0f);  // kill first layer's output
      });
  EXPECT_EQ(seen.size(), net.num_layers());
  // Zeroing an intermediate activation must change the logits (bias paths
  // aside, outputs differ unless the net is degenerate).
  EXPECT_EQ(seen.front(), 0u);
  (void)clean;
  (void)hooked;
}

TEST(Network, AddAfterEvalForwardRunsTheNewLayer) {
  util::Rng rng{3};
  Network net = make_mlp({2, 8, 3}, rng);
  const Tensor x = Tensor::randn(Shape{4, 2}, rng);
  // The eval forward compiles a plan that ends at the current last layer.
  const Tensor before = net.forward(x);
  std::size_t negatives = 0;
  for (std::int64_t i = 0; i < before.numel(); ++i) {
    if (before[i] < 0.0f) ++negatives;
  }
  ASSERT_GT(negatives, 0u);
  net.add("extra_relu", std::make_unique<ReLU>());
  const Tensor after = net.forward(x);
  ASSERT_EQ(after.shape(), before.shape());
  for (std::int64_t i = 0; i < after.numel(); ++i) {
    EXPECT_EQ(after[i], std::max(before[i], 0.0f)) << "logit " << i;
  }
}

TEST(Network, AccuracyComputesFraction) {
  Network net;
  auto dense = std::make_unique<Dense>(1, 2);
  // Identity-ish: logit_1 - logit_0 = 2x → predict 1 iff x > 0.
  dense->weight() = Tensor{Shape{2, 1}, {-1.0f, 1.0f}};
  dense->bias() = Tensor{Shape{2}};
  net.add("fc", std::move(dense));
  Tensor x{Shape{4, 1}, {-1.0f, -2.0f, 1.0f, 2.0f}};
  EXPECT_DOUBLE_EQ(net.accuracy(x, {0, 0, 1, 1}), 1.0);
  EXPECT_DOUBLE_EQ(net.accuracy(x, {1, 0, 1, 0}), 0.5);
}

TEST(Builders, MlpLayerSizes) {
  util::Rng rng{1};
  Network net = make_mlp({10, 20, 5}, rng);
  EXPECT_EQ(net.num_params(), 10 * 20 + 20 + 20 * 5 + 5);
}

TEST(Builders, MlpRejectsTooFewSizes) {
  util::Rng rng{1};
  EXPECT_DEATH(make_mlp({4}, rng), "at least");
}

TEST(Builders, ResNet18TopologyAtFullWidth) {
  util::Rng rng{2};
  ResNetConfig config;
  Network net = make_resnet18(config, rng);
  // stem conv+bn+relu, 8 blocks, avgpool, fc = 13 top-level layers.
  EXPECT_EQ(net.num_layers(), 13u);
  // Canonical ResNet-18 parameter count (CIFAR stem, with BN affine):
  // ~11.17M; sanity-band check.
  const auto params = net.num_params();
  EXPECT_GT(params, 10'000'000);
  EXPECT_LT(params, 12'000'000);
}

TEST(Builders, ResNet18ForwardShape) {
  util::Rng rng{3};
  ResNetConfig config;
  config.width_multiplier = 0.125;  // keep the test fast
  config.num_classes = 10;
  Network net = make_resnet18(config, rng);
  Tensor x{Shape{2, 3, 32, 32}};
  Tensor logits = net.forward(x);
  EXPECT_EQ(logits.shape(), Shape({2, 10}));
}

TEST(Builders, ResNetWidthMultiplierScalesParams) {
  util::Rng rng{4};
  ResNetConfig narrow;
  narrow.width_multiplier = 0.125;
  ResNetConfig wide;
  wide.width_multiplier = 0.25;
  const auto n_narrow = make_resnet18(narrow, rng).num_params();
  const auto n_wide = make_resnet18(wide, rng).num_params();
  EXPECT_GT(n_wide, 3 * n_narrow);  // params scale ~quadratically in width
}

TEST(BasicBlock, ProjectionAppearsOnStride) {
  BasicBlock same(8, 8, 1);
  EXPECT_FALSE(same.has_projection());
  BasicBlock strided(8, 16, 2);
  EXPECT_TRUE(strided.has_projection());
}

TEST(BasicBlock, ForwardShapes) {
  util::Rng rng{5};
  BasicBlock block(4, 8, 2);
  block.init_he(rng);
  Tensor x = Tensor::randn(Shape{1, 4, 8, 8}, rng);
  Tensor y = block.forward(x, false);
  EXPECT_EQ(y.shape(), Shape({1, 8, 4, 4}));
}

TEST(BasicBlock, IdentitySkipPreservedWhenMainBranchZero) {
  // Zero conv weights + BN(γ=1, β=0, running stats identity) in eval mode →
  // main branch contributes 0; output = relu(x).
  BasicBlock block(2, 2, 1);
  std::vector<ParamRef> refs;
  block.collect_params("b.", refs);
  for (auto& r : refs) {
    if (r.role == ParamRole::kWeight) r.value->fill(0.0f);
  }
  Tensor x{Shape{1, 2, 3, 3}};
  x.fill(1.5f);
  Tensor y = block.forward(x, false);
  for (std::int64_t i = 0; i < y.numel(); ++i) EXPECT_NEAR(y[i], 1.5f, 1e-4f);
}

TEST(Checkpoint, SaveLoadRoundTrip) {
  util::Rng rng{6};
  Network net = tiny_mlp(6);
  const std::string path = "/tmp/bdlfi_ckpt_test.bin";
  ASSERT_TRUE(save_checkpoint(net, path));

  Network other = tiny_mlp(99);  // different init
  Tensor x = Tensor::randn(Shape{3, 2}, rng);
  EXPECT_NE(Tensor::max_abs_diff(net.forward(x), other.forward(x)), 0.0f);
  ASSERT_TRUE(load_checkpoint(other, path));
  EXPECT_EQ(Tensor::max_abs_diff(net.forward(x), other.forward(x)), 0.0f);
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsTopologyMismatch) {
  util::Rng rng{8};
  Network net = tiny_mlp(8);
  const std::string path = "/tmp/bdlfi_ckpt_mismatch.bin";
  ASSERT_TRUE(save_checkpoint(net, path));
  Network different = make_mlp({2, 4, 3}, rng);
  EXPECT_FALSE(load_checkpoint(different, path));
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsMissingFile) {
  Network net = tiny_mlp();
  EXPECT_FALSE(load_checkpoint(net, "/tmp/definitely_missing_bdlfi.bin"));
}

TEST(Checkpoint, RejectsCorruptMagic) {
  const std::string path = "/tmp/bdlfi_ckpt_garbage.bin";
  {
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a checkpoint", f);
    std::fclose(f);
  }
  Network net = tiny_mlp();
  EXPECT_FALSE(load_checkpoint(net, path));
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsCorruptNameLength) {
  Network net = tiny_mlp(10);
  const std::string path = "/tmp/bdlfi_ckpt_name_len.bin";
  ASSERT_TRUE(save_checkpoint(net, path));
  {
    // The first entry's name length follows the magic (8 bytes), the
    // version (4) and the entry count (8).
    FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    const std::uint32_t huge = 0xFFFFFFFFu;
    ASSERT_EQ(std::fseek(f, 20, SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(&huge, sizeof huge, 1, f), 1u);
    std::fclose(f);
  }
  Network other = tiny_mlp(11);
  const Tensor before = *other.params().front().value;
  EXPECT_FALSE(load_checkpoint(other, path));
  EXPECT_EQ(Tensor::max_abs_diff(*other.params().front().value, before),
            0.0f);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bdlfi::nn
