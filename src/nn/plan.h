// ExecutionPlan: pre-sized, allocation-free eval-mode forward execution.
//
// Every eval-mode forward runs on a plan. At the first one that enters at
// layer L with a shape no plan covers, the network walks the output_shape of
// layers [L, end) to size every intermediate activation — no layer runs —
// allocates all of them from a single 64-byte-aligned Arena, and compiles a
// step list referencing arena offsets. Steady-state evaluations then reuse
// the same buffers — zero heap allocations per forward — which is what lets
// a fault-injection campaign run millions of truncated replays without
// churning the allocator. A plan compiled from L also serves every later
// entry point its shapes pass through; an entry before L compiles a longer
// plan that supersedes it.
//
// The plan is one Layer::forward_into step per top-level layer, and
// forward_into is each layer's only eval body:
//   * Execution is bit-exact with eval Layer::forward run layer by layer,
//     which is forward_into on fresh storage (a layer with internals, such
//     as a basic block, runs them inside its own forward_into, staging
//     temporaries in the plan's Workspace).
//   * Stateful eval layers (MC dropout, calibrating range guards) run once
//     per forward, as in a layer-by-layer loop: compilation runs nothing.
//   * Activation hooks fire once per top-level layer index with a borrowed
//     view of the arena slot.
//   * ABFT checking and compute-fault plans run through the plan with the
//     per-layer OpContext of Network::op_context, the one the training loop
//     installs too.
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
  /// Compiles a plan for layers [first_layer, end) of `net` on an input of
  /// shape `input` entering first_layer, sizing slots from each layer's
  /// output_shape. Runs no layer.
  static std::unique_ptr<ExecutionPlan> compile(Network& net,
                                                const Shape& input,
                                                std::size_t first_layer);

  /// True when this plan can execute layers [first_layer, end) on an
  /// activation of shape `shape` (shape must equal the planned shape
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
