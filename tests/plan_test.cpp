// Planned-allocation arena + ExecutionPlan contracts (DESIGN.md §13):
//   * the compiled arena is sized at the observed high-water mark and is
//     never re-reserved by steady-state evals (Arena::total_allocations);
//   * ≥1000 steady-state evals perform no large heap allocations
//     (instrumented global allocator; small control-flow vectors under the
//     4 KiB threshold are explicitly out of scope — see DESIGN.md §13);
//   * steady-state mask evals allocate nothing large, including on a fresh
//     replica whose evals all resume mid-network;
//   * cloned networks compile independent plans with independent arenas;
//   * unfused planned execution is bit-exact with Layer::forward run layer
//     by layer (full forwards and truncated replays from every resume point,
//     on a layer-0 plan and on a plan compiled from that resume point),
//     which is exactly the --no-fuse guarantee;
//   * BN-folded fused execution matches unfused within the documented
//     tolerance, and fold_conv_bn itself matches conv→bn→relu;
//   * fault-site enumeration (names, offsets, owning layers) is identical
//     with fusion on and off — fusion never renames or reorders sites;
//   * evaluate(EvalRequest) stays bit-exact with per-mask evaluate_mask on
//     the planned path for K ∈ {1, 8, 32}.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <vector>

#include "bayes/fault_network.h"
#include "data/cifar_like.h"
#include "data/toy2d.h"
#include "fault/space.h"
#include "nn/arena.h"
#include "nn/batchnorm.h"
#include "nn/builders.h"
#include "nn/conv.h"
#include "nn/network.h"
#include "nn/plan.h"
#include "tensor/ops.h"
#include "util/rng.h"

// ---------------------------------------------------------------------------
// Instrumented global allocator: counts heap allocations at or above the
// panel-scale threshold while armed. Small per-call bookkeeping (flag
// parsing, outcome structs, sub-4KiB control-flow vectors) is deliberately
// ignored — the zero-allocation guarantee is about activation/weight buffer
// churn, not about every std::vector in the control flow.
namespace {

constexpr std::size_t kLargeThreshold = 4096;
std::atomic<bool> g_count_large{false};
std::atomic<std::size_t> g_large_allocs{0};

struct AllocWatch {
  AllocWatch() {
    g_large_allocs.store(0, std::memory_order_relaxed);
    g_count_large.store(true, std::memory_order_relaxed);
  }
  ~AllocWatch() { g_count_large.store(false, std::memory_order_relaxed); }
  std::size_t count() const {
    return g_large_allocs.load(std::memory_order_relaxed);
  }
};

}  // namespace

void* operator new(std::size_t size) {
  if (size >= kLargeThreshold &&
      g_count_large.load(std::memory_order_relaxed)) {
    g_large_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) {
  if (size >= kLargeThreshold &&
      g_count_large.load(std::memory_order_relaxed)) {
    g_large_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
// GCC pairs these malloc-backed deallocators against the replaced operator
// new heuristically and warns; the pairing is in fact consistent (every new
// above allocates with malloc).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace bdlfi {
namespace {

using tensor::Shape;
using tensor::Tensor;

struct Subject {
  nn::Network net;
  Tensor inputs;
  std::vector<std::int64_t> labels;
};

Subject make_mlp_subject() {
  util::Rng data_rng{401};
  data::Dataset data = data::make_two_moons(32, 0.08, data_rng);
  util::Rng init{402};
  return {nn::make_mlp({2, 16, 16, 2}, init), data.inputs, data.labels};
}

Subject make_resnet_subject() {
  data::CifarLikeConfig config;
  config.samples_per_class = 2;
  config.num_classes = 4;
  config.image_size = 8;
  util::Rng data_rng{403};
  data::Dataset data = data::make_cifar_like(config, data_rng);
  nn::ResNetConfig net_config;
  net_config.width_multiplier = 0.0625;
  net_config.num_classes = 4;
  util::Rng init{404};
  return {nn::make_resnet18(net_config, init), data.inputs, data.labels};
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<std::size_t>(a.numel()) * sizeof(float)),
            0);
}

TEST(PlanTest, CompilesOnFirstEvalForwardAndCovers) {
  Subject s = make_resnet_subject();
  EXPECT_EQ(s.net.plan_for(s.inputs.shape()), nullptr);

  (void)s.net.forward_view(0, s.inputs);
  const nn::ExecutionPlan* plan = s.net.plan_for(s.inputs.shape());
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(plan->covers(0, s.inputs.shape()));
  EXPECT_GT(plan->arena_floats(), 0u);
  // The rotating-buffer assignment never needs more than the four slots the
  // compiler hands out (main ping-pong + block temporaries).
  EXPECT_LE(plan->num_buffers(), 4u);
  EXPECT_TRUE(plan->fusion_compiled());  // resnet has foldable blocks
}

TEST(PlanTest, ArenaSizedAtHighWaterAndNeverRegrown) {
  Subject s = make_resnet_subject();
  (void)s.net.forward_view(0, s.inputs);  // compile + first run
  const nn::ExecutionPlan* plan = s.net.plan_for(s.inputs.shape());
  ASSERT_NE(plan, nullptr);

  // Every top-level activation must fit the arena — a loose lower bound on
  // the planned high-water mark.
  std::vector<std::int64_t> layer_numels;
  (void)s.net.forward(s.inputs, false, [&](std::size_t, Tensor& act) {
    layer_numels.push_back(act.numel());
  });
  for (const std::int64_t numel : layer_numels) {
    EXPECT_LE(static_cast<std::size_t>(numel), plan->arena_floats());
  }

  // Steady state: the planned size IS the observed high-water mark — no eval
  // ever re-reserves an arena (process-wide counter stays flat).
  const std::size_t before = nn::Arena::total_allocations();
  Tensor first = s.net.forward_view(0, s.inputs);  // copy to keep
  for (int i = 0; i < 1000; ++i) {
    const Tensor& logits = s.net.forward_view(0, s.inputs);
    ASSERT_EQ(logits.numel(), first.numel());
  }
  EXPECT_EQ(nn::Arena::total_allocations(), before);
  expect_bitwise_equal(s.net.forward_view(0, s.inputs), first);
}

TEST(PlanTest, SteadyStateForwardsMakeNoLargeAllocations) {
  Subject s = make_resnet_subject();
  for (int i = 0; i < 3; ++i) (void)s.net.forward_view(0, s.inputs);  // warm

  AllocWatch watch;
  for (int i = 0; i < 1000; ++i) (void)s.net.forward_view(0, s.inputs);
  EXPECT_EQ(watch.count(), 0u);
}

TEST(PlanTest, SteadyStateMaskEvalsMakeNoLargeAllocations) {
  const auto check = [](bayes::BayesianFaultNetwork& bfn, double p) {
    util::Rng rng{405};
    std::vector<fault::FaultMask> masks;
    for (int i = 0; i < 25; ++i) {
      masks.push_back(bfn.sample_prior_mask(p, rng));
    }
    for (const auto& mask : masks) (void)bfn.evaluate_mask(mask);  // warm

    AllocWatch watch;
    for (int rep = 0; rep < 40; ++rep) {
      for (const auto& mask : masks) (void)bfn.evaluate_mask(mask);
    }
    EXPECT_EQ(watch.count(), 0u);
  };
  Subject s = make_resnet_subject();
  bayes::BayesianFaultNetwork bfn(s.net, bayes::TargetSpec::all_parameters(),
                                  fault::AvfProfile::uniform(), s.inputs,
                                  s.labels);
  check(bfn, 1e-5);

  // A replica starts with no plans, and with a late-layer target none of its
  // evals enters at layer 0: its plan must compile from the entry layer.
  bayes::BayesianFaultNetwork late(
      s.net, bayes::TargetSpec::single_layer("block3"),
      fault::AvfProfile::uniform(), s.inputs, s.labels);
  const std::unique_ptr<bayes::BayesianFaultNetwork> replica =
      late.replicate();
  check(*replica, 1e-3);
}

TEST(PlanTest, ClonedNetworksOwnIndependentPlansAndArenas) {
  Subject s = make_resnet_subject();
  (void)s.net.forward_view(0, s.inputs);

  nn::Network copy = s.net.clone();
  // Plans are not copied — the clone compiles its own on first use.
  EXPECT_EQ(copy.plan_for(s.inputs.shape()), nullptr);
  (void)copy.forward_view(0, s.inputs);
  const nn::ExecutionPlan* pa = s.net.plan_for(s.inputs.shape());
  const nn::ExecutionPlan* pb = copy.plan_for(s.inputs.shape());
  ASSERT_NE(pa, nullptr);
  ASSERT_NE(pb, nullptr);
  EXPECT_NE(pa, pb);

  // A borrowed view of one network's arena must survive forwards on the
  // other: the arenas are physically independent.
  const Tensor& via_a = s.net.forward_view(0, s.inputs);
  Tensor kept = via_a;  // materialized copy
  Tensor other_input{s.inputs.shape()};  // zeros: a different input
  (void)copy.forward_view(0, other_input);
  expect_bitwise_equal(via_a, kept);
}

TEST(PlanTest, PlannedUnfusedIsBitExactWithLegacy) {
  const auto check = [](Subject s) {
    // Reference: Layer::forward run layer by layer, no plan involved.
    std::vector<Tensor> acts;  // acts[i] = output of layer i
    Tensor act = s.inputs;
    for (std::size_t i = 0; i < s.net.num_layers(); ++i) {
      act = s.net.layer(i).forward(act, /*training=*/false);
      acts.push_back(act);
    }
    EXPECT_FALSE(s.net.eval_fusion());  // --no-fuse semantics by default
    expect_bitwise_equal(acts.back(), s.net.forward(s.inputs));

    // Truncated replays enter mid-network; parity must hold for every resume
    // point, since the mask-evaluation pipeline rests on it. The network
    // reuses its layer-0 plan; a fresh clone whose first eval enters at k
    // compiles its plan from k.
    for (std::size_t k = 1; k < acts.size(); ++k) {
      SCOPED_TRACE("resume at layer " + std::to_string(k));
      expect_bitwise_equal(acts.back(), s.net.forward_view(k, acts[k - 1]));
      nn::Network fresh = s.net.clone();
      expect_bitwise_equal(acts.back(), fresh.forward_view(k, acts[k - 1]));
    }
  };
  check(make_mlp_subject());
  check(make_resnet_subject());
}

TEST(PlanTest, FusedExecutionMatchesUnfusedWithinTolerance) {
  Subject s = make_resnet_subject();
  Tensor unfused = s.net.forward(s.inputs);
  s.net.set_eval_fusion(true);
  Tensor fused = s.net.forward(s.inputs);
  ASSERT_EQ(unfused.shape(), fused.shape());
  for (std::int64_t i = 0; i < unfused.numel(); ++i) {
    const float a = unfused[i], b = fused[i];
    EXPECT_NEAR(a, b, 1e-4f * (1.0f + std::abs(a)))
        << "logit " << i << " diverged beyond the BN-fold tolerance";
  }
  // Escape hatch: turning fusion back off restores bit-exactness without a
  // recompile (the unfused lowering is always retained in the plan).
  s.net.set_eval_fusion(false);
  expect_bitwise_equal(s.net.forward(s.inputs), unfused);
}

TEST(PlanTest, FoldConvBnMatchesConvThenBn) {
  util::Rng rng{406};
  nn::Conv2d conv(3, 5, 3, /*stride=*/1, /*pad=*/1, /*bias=*/true);
  conv.init_he(rng);
  for (std::int64_t c = 0; c < 5; ++c) {
    conv.bias()[c] = 0.02f * static_cast<float>(c) - 0.03f;
  }
  nn::BatchNorm2d bn(5);
  for (std::int64_t c = 0; c < 5; ++c) {
    bn.gamma()[c] = 0.5f + 0.1f * static_cast<float>(c);
    bn.beta()[c] = -0.2f + 0.05f * static_cast<float>(c);
    bn.running_mean()[c] = 0.01f * static_cast<float>(c);
    bn.running_var()[c] = 1.0f + 0.2f * static_cast<float>(c);
  }
  Tensor x{Shape{2, 3, 6, 6}};
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.uniform() - 0.5);
  }

  Tensor want = bn.forward(conv.forward(x, false), false);

  Tensor wf{conv.weight().shape()};
  Tensor bf{Shape{5}};
  nn::fold_conv_bn(conv.weight(), conv.bias(), bn, wf, bf);
  nn::Conv2d folded(3, 5, 3, /*stride=*/1, /*pad=*/1, /*bias=*/true);
  folded.weight() = wf;
  folded.bias() = bf;
  Tensor got = folded.forward(x, false);

  ASSERT_EQ(want.shape(), got.shape());
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    EXPECT_NEAR(want[i], got[i], 1e-5f * (1.0f + std::abs(want[i])));
  }
}

TEST(PlanTest, FaultSiteEnumerationIsStableAcrossFusion) {
  Subject s = make_resnet_subject();
  nn::Network fused_net = s.net.clone();
  fused_net.set_eval_fusion(true);
  (void)fused_net.forward_view(0, s.inputs);  // compile the fused plan

  fault::TargetSpec spec = fault::TargetSpec::all_parameters();
  spec.include_buffers = true;
  fault::InjectionSpace unfused_space(s.net, spec);
  fault::InjectionSpace fused_space(fused_net, spec);

  const auto& a = unfused_space.entries();
  const auto& b = fused_space.entries();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].offset, b[i].offset);
    EXPECT_EQ(a[i].layer, b[i].layer);
    EXPECT_EQ(a[i].numel, b[i].numel);
    EXPECT_EQ(static_cast<int>(a[i].role), static_cast<int>(b[i].role));
  }
  EXPECT_EQ(unfused_space.total_elements(), fused_space.total_elements());
}

TEST(PlanTest, EvaluateMasksBitExactOnPlannedPath) {
  Subject s = make_resnet_subject();
  util::Rng rng{407};
  for (const std::size_t k : {std::size_t{1}, std::size_t{8},
                              std::size_t{32}}) {
    SCOPED_TRACE("mask_batch=" + std::to_string(k));
    bayes::BayesianFaultNetwork seq(s.net, bayes::TargetSpec::all_parameters(),
                                    fault::AvfProfile::uniform(), s.inputs,
                                    s.labels);
    bayes::BayesianFaultNetwork bat(s.net, bayes::TargetSpec::all_parameters(),
                                    fault::AvfProfile::uniform(), s.inputs,
                                    s.labels);
    std::vector<fault::FaultMask> masks;
    for (int i = 0; i < 12; ++i) {
      masks.push_back(seq.sample_prior_mask(2e-5, rng));
    }
    std::vector<bayes::MaskOutcome> want;
    for (const auto& mask : masks) want.push_back(seq.evaluate_mask(mask));

    const bayes::EvalOutcome got = bat.evaluate({masks, k});
    ASSERT_EQ(got.outcomes.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_DOUBLE_EQ(want[i].classification_error,
                       got.outcomes[i].classification_error);
      EXPECT_DOUBLE_EQ(want[i].deviation, got.outcomes[i].deviation);
      EXPECT_DOUBLE_EQ(want[i].detected, got.outcomes[i].detected);
      EXPECT_DOUBLE_EQ(want[i].sdc, got.outcomes[i].sdc);
      EXPECT_EQ(want[i].outcome, got.outcomes[i].outcome);
      EXPECT_EQ(want[i].flipped_bits, got.outcomes[i].flipped_bits);
    }
  }
}

}  // namespace
}  // namespace bdlfi
