// Planned-allocation arena + ExecutionPlan contracts (DESIGN.md §13):
//   * the compiled arena is sized at the observed high-water mark and is
//     never re-reserved by steady-state evals (Arena::total_allocations);
//   * ≥1000 steady-state evals perform no large heap allocations
//     (instrumented global allocator; small control-flow vectors under the
//     4 KiB threshold are explicitly out of scope — see DESIGN.md §13);
//   * steady-state mask evals allocate nothing large, including on a fresh
//     replica whose evals all resume mid-network; neither do MC-dropout
//     forwards;
//   * stateful eval layers run on the plan once per forward: MC-dropout
//     masks match a layer-by-layer loop on a clone, and a guard calibrates
//     to exactly its input's range;
//   * cloned networks compile independent plans with independent arenas;
//   * planned execution is bit-exact with Layer::forward run layer by layer
//     (full forwards and truncated replays from every resume point, on a
//     layer-0 plan and on a plan compiled from that resume point), unchecked
//     and under checked deployments (ABFT detect/correct, compute faults),
//     with identical ABFT counters;
//   * evaluate(EvalRequest) stays bit-exact with per-mask evaluate_mask on
//     the planned path for K ∈ {1, 8, 32}.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <vector>

#include "bayes/fault_network.h"
#include "data/cifar_like.h"
#include "data/toy2d.h"
#include "nn/arena.h"
#include "nn/builders.h"
#include "nn/dropout.h"
#include "nn/network.h"
#include "nn/plan.h"
#include "nn/range_guard.h"
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
  // Activations ping-pong between two slots; block temporaries live in the
  // plan's workspace, not the arena.
  EXPECT_EQ(plan->num_buffers(), 2u);
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
  const auto check = [](nn::Network& net, const Tensor& inputs,
                        int forwards) {
    for (int i = 0; i < 3; ++i) (void)net.forward_view(0, inputs);  // warm

    AllocWatch watch;
    for (int i = 0; i < forwards; ++i) (void)net.forward_view(0, inputs);
    EXPECT_EQ(watch.count(), 0u);
  };
  Subject s = make_resnet_subject();
  check(s.net, s.inputs, 1000);

  // MC dropout draws a fresh mask on every eval forward, inside its step.
  util::Rng init{408};
  nn::Network mc = nn::make_mlp_dropout({2, 64, 64, 2}, 0.3, init);
  ASSERT_EQ(nn::set_mc_dropout(mc, true), 2u);
  util::Rng data_rng{409};
  check(mc, Tensor::randn(Shape{128, 2}, data_rng), 200);
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

TEST(PlanTest, StatefulEvalLayersRunOnThePlan) {
  util::Rng init{410};
  nn::Network net = nn::make_mlp_dropout({2, 16, 16, 2}, 0.3, init);
  ASSERT_EQ(nn::set_mc_dropout(net, true), 2u);
  util::Rng data_rng{411};
  const Tensor inputs = Tensor::randn(Shape{32, 2}, data_rng);

  // The clone copies every dropout layer's RNG state, so a layer-by-layer
  // loop on it draws what the plan draws — unless compiling the plan ran a
  // layer, or a forward drew twice.
  nn::Network reference = net.clone();
  Tensor previous;
  for (int pass = 0; pass < 5; ++pass) {
    SCOPED_TRACE("forward " + std::to_string(pass));
    Tensor want = inputs;
    for (std::size_t i = 0; i < reference.num_layers(); ++i) {
      want = reference.layer(i).forward(want, /*training=*/false);
    }
    const Tensor& got = net.forward_view(0, inputs);
    ASSERT_NE(net.plan_for(inputs.shape()), nullptr);
    expect_bitwise_equal(got, want);
    // Each forward samples a new mask.
    if (pass > 0) {
      EXPECT_NE(Tensor::max_abs_diff(got, previous), 0.0f);
    }
    previous = got;
  }

  // Calibration runs on the plan too and records once per forward: the
  // guard's range is exactly the range of layer 1's output over the batch.
  util::Rng mlp_init{412};
  nn::Network plain = nn::make_mlp({2, 16, 16, 2}, mlp_init);
  Tensor relu1;
  (void)plain.forward(inputs, false, [&](std::size_t i, Tensor& act) {
    if (i == 1) relu1 = act;
  });
  nn::Network guarded = nn::add_range_guards_at(plain, {1}, inputs);
  EXPECT_NE(guarded.plan_for(inputs.shape()), nullptr);
  const auto* guard = dynamic_cast<nn::RangeGuard*>(&guarded.layer(2));
  ASSERT_NE(guard, nullptr);
  const auto [lo, hi] =
      std::minmax_element(relu1.flat().begin(), relu1.flat().end());
  EXPECT_EQ(guard->lo(), *lo);
  EXPECT_EQ(guard->hi(), *hi);
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

// A checked deployment of a subject network: ABFT mode plus the transient
// compute faults installed for the forward.
struct Deployment {
  tensor::abft::Mode mode = tensor::abft::Mode::kOff;
  const nn::ComputeFaultPlan* faults = nullptr;

  bool checked() const {
    return mode != tensor::abft::Mode::kOff ||
           (faults != nullptr && !faults->empty());
  }
  void install(nn::Network& net) const {
    net.set_abft({mode, 4.0});
    net.set_compute_fault_plan(faults);
  }
};

// Reference: Layer::forward run layer by layer from `first`, no plan
// involved. A checked deployment installs on each layer the context the
// network would: its ABFT config, `stats`, and that layer's flips. Appends
// every layer's output to `acts` when given.
Tensor reference_forward(nn::Network& net, std::size_t first, Tensor act,
                         const Deployment& d, tensor::abft::Stats& stats,
                         std::vector<Tensor>* acts = nullptr) {
  for (std::size_t i = first; i < net.num_layers(); ++i) {
    nn::Layer& layer = net.layer(i);
    if (d.checked()) {
      tensor::abft::OpContext ctx;
      ctx.config = {d.mode, 4.0};
      ctx.stats = &stats;
      if (d.faults != nullptr) {
        const auto it = d.faults->find(i);
        if (it != d.faults->end()) ctx.flips = &it->second;
      }
      layer.set_compute_context(&ctx);
      act = layer.forward(act, /*training=*/false);
      layer.set_compute_context(nullptr);
    } else {
      act = layer.forward(act, /*training=*/false);
    }
    if (acts != nullptr) acts->push_back(act);
  }
  return act;
}

void expect_stats_equal(const tensor::abft::Stats& want,
                        const tensor::abft::Stats& got) {
  EXPECT_EQ(want.checks.load(), got.checks.load());
  EXPECT_EQ(want.rows_checked.load(), got.rows_checked.load());
  EXPECT_EQ(want.detected_rows.load(), got.detected_rows.load());
  EXPECT_EQ(want.corrected_rows.load(), got.corrected_rows.load());
  EXPECT_EQ(want.faults_injected.load(), got.faults_injected.load());
}

TEST(PlanTest, PlannedUnfusedIsBitExactWithLegacy) {
  const auto check = [](Subject s, const Deployment& d) {
    d.install(s.net);
    tensor::abft::Stats want;
    std::vector<Tensor> acts;  // acts[i] = output of layer i
    const Tensor logits = reference_forward(s.net, 0, s.inputs, d, want, &acts);
    s.net.abft_stats().reset();
    expect_bitwise_equal(logits, s.net.forward(s.inputs));
    expect_stats_equal(want, s.net.abft_stats());

    // Truncated replays enter mid-network; parity must hold for every resume
    // point, since the mask-evaluation pipeline rests on it. The network
    // reuses its layer-0 plan; a fresh clone whose first eval enters at k
    // compiles its plan from k.
    for (std::size_t k = 1; k < acts.size(); ++k) {
      SCOPED_TRACE("resume at layer " + std::to_string(k));
      tensor::abft::Stats suffix;
      (void)reference_forward(s.net, k, acts[k - 1], d, suffix);
      s.net.abft_stats().reset();
      expect_bitwise_equal(logits, s.net.forward_view(k, acts[k - 1]));
      expect_stats_equal(suffix, s.net.abft_stats());
      nn::Network fresh = s.net.clone();
      fresh.set_compute_fault_plan(d.faults);
      expect_bitwise_equal(logits, fresh.forward_view(k, acts[k - 1]));
      expect_stats_equal(suffix, fresh.abft_stats());
    }
  };
  check(make_mlp_subject(), {});
  check(make_resnet_subject(), {});

  // Checked runs on the ResNet: every block's inner convs get the
  // flip-stripped context, the stem conv and the head take flips.
  nn::ComputeFaultPlan faults;
  faults[0] = {{37, 30}, {1500, 27}};  // stem_conv
  faults[12] = {{3, 26}, {17, 31}};    // fc
  for (const tensor::abft::Mode mode :
       {tensor::abft::Mode::kDetect, tensor::abft::Mode::kCorrect}) {
    SCOPED_TRACE(std::string("abft ") + tensor::abft::mode_name(mode));
    check(make_resnet_subject(), {mode, nullptr});
    check(make_resnet_subject(), {mode, &faults});
  }
  SCOPED_TRACE("compute faults, abft off");
  check(make_resnet_subject(), {tensor::abft::Mode::kOff, &faults});
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
