// ExecutionPlan: pre-sized, allocation-free eval-mode forward execution.
//
// At the first eval-mode forward that enters at layer L with a shape no plan
// covers, the network walks layers [L, end) once (a probe forward) to size
// every intermediate activation, allocates all of them from a single
// 64-byte-aligned Arena, and compiles a step list referencing arena offsets.
// Steady-state evaluations then reuse the same buffers — zero heap
// allocations per forward — which is what lets a fault-injection campaign run
// millions of truncated replays without churning the allocator. A plan
// compiled from L also serves every later entry point its probe passed
// through; an entry before L compiles a longer plan that supersedes it.
//
// The plan is one Layer::forward_into step per top-level layer, and it
// mirrors the layer-by-layer forward exactly:
//   * Execution is bit-exact with Layer::forward run layer by layer: every
//     forward_into calls the same kernels in the same order on the same
//     values (a layer with internals, such as BasicBlock, runs them inside
//     its own forward_into, staging temporaries in the plan's Workspace).
//   * Activation hooks fire once per top-level layer index with a borrowed
//     view of the arena slot — the same indices, values, and mutation
//     semantics as the layer-by-layer path.
//   * ABFT checking and compute-fault plans run through the plan with the
//     same per-layer OpContext the layer-by-layer path installs.
//
// Activations ping-pong between two arena slots; an in-place-capable layer
// reuses its producer's slot.
//
// Thread safety: a plan owns one arena; run() is single-threaded per network
// instance (kernels still parallelize internally).
// Cloned networks compile their own plans — independent arenas by design.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "nn/arena.h"
#include "nn/network.h"

namespace bdlfi::nn {

class ExecutionPlan {
 public:
  /// Compiles a plan for layers [first_layer, end) of `net` by probing one
  /// eval forward of those layers with `probe_input`, the activation entering
  /// first_layer (shapes are recorded; no layer state is perturbed — the
  /// caller must have verified plan_eval_safe() on every layer).
  static std::unique_ptr<ExecutionPlan> compile(Network& net,
                                                const Tensor& probe_input,
                                                std::size_t first_layer);

  /// True when this plan can execute layers [first_layer, end) on an
  /// activation of shape `shape` (shape must equal the probe activation
  /// entering that layer).
  bool covers(std::size_t first_layer, const Shape& shape) const;

  /// True when this plan covers the entry `other` was compiled for, so
  /// `other` is redundant.
  bool supersedes(const ExecutionPlan& other) const;

  /// Runs layers [first_layer, end). `input` is the activation entering
  /// `first_layer`. Returns a borrowed view of the logits arena slot — valid
  /// until the next run() or plan destruction; copy to keep.
  const Tensor& run(Network& net, std::size_t first_layer, const Tensor& input,
                    const Network::ActivationHook& hook);

  /// Arena capacity in floats — the planned high-water mark.
  std::size_t arena_floats() const { return arena_.size(); }
  /// Number of distinct activation slots the plan uses (at most two).
  std::size_t num_buffers() const { return buffer_sizes_.size(); }

 private:
  ExecutionPlan() = default;

  struct Step {
    Layer* layer = nullptr;
    Shape in_shape;
    int out_buf = 0;
    Tensor out_view;  // borrowed arena view, also handed to hooks
  };

  std::size_t first_ = 0;    // layer index of steps_[0]
  std::vector<Step> steps_;  // one per layer in [first_, end)
  std::vector<std::int64_t> buffer_sizes_;  // floats, high-water per slot
  Arena arena_;
  Workspace ws_;
};

}  // namespace bdlfi::nn
