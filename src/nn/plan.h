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
// The plan mirrors the layer-by-layer forward exactly:
//   * Unfused execution is bit-exact with Layer::forward run layer by layer:
//     every step calls the same kernels in the same order on the same
//     values.
//   * Activation hooks fire once per *top-level* layer index with a borrowed
//     view of the arena slot — the same indices, values, and mutation
//     semantics as the layer-by-layer path (BasicBlock internals are never
//     exposed).
//   * ABFT checking and compute-fault plans run through the plan with the
//     same per-layer OpContext the layer-by-layer path installs (block-inner
//     convs get the flip-stripped context, matching BasicBlock::forward).
//
// Eval-mode fusion (opt-in via Network::set_eval_fusion) adds a second,
// fused lowering per BasicBlock: BN folded into the preceding conv's
// weights/bias (conv1+bn1+relu and conv2+bn2 / proj+proj_bn become single
// conv steps). Folding happens per execution from the live golden tensors, so
// weight-resident bit flips on either the conv or the BN parameters stay
// visible. Folding is restricted to block internals: those activations are
// never hook-addressable, so golden capture and masked evaluation see the
// same (folded) arithmetic and fault-free runs stay SDC-free. Top-level
// dense+relu pairs are additionally elided into one step when no hook is
// installed — that fusion is bit-exact (relu runs in place on the dense
// output), so it needs no tolerance. Checked (ABFT / compute-fault) runs
// always take the unfused steps.
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

class BasicBlock;
class BatchNorm2d;
class Conv2d;

/// Per-forward scratch handed to Layer::forward_into. Grow-once: custom
/// layers may stage into `scratch` instead of allocating.
struct Workspace {
  std::vector<float> scratch;
};

/// Folds an eval-mode BatchNorm into the preceding convolution/dense weights:
///   scale[o] = gamma[o] / sqrt(running_var[o] + eps)
///   Wf[o,..] = W[o,..] * scale[o]
///   bf[o]    = (bias[o] or 0) * scale[o] + beta[o] - running_mean[o]*scale[o]
/// `weight` must be [O, ...] with the output channel outermost (OIHW convs,
/// [out, in] dense). `folded_weight`/`folded_bias` must be pre-shaped to
/// [O, ...] / [O].
void fold_conv_bn(const Tensor& weight, const Tensor& bias, BatchNorm2d& bn,
                  Tensor& folded_weight, Tensor& folded_bias);

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
  /// until the next run() or plan destruction; copy to keep. `fuse` requests
  /// the fused lowering (ignored for checked execution).
  const Tensor& run(Network& net, std::size_t first_layer, const Tensor& input,
                    const Network::ActivationHook& hook, bool fuse);

  /// Arena capacity in floats — the planned high-water mark.
  std::size_t arena_floats() const { return arena_.size(); }
  /// Number of distinct rotating activation buffers the plan uses.
  std::size_t num_buffers() const { return buffer_sizes_.size(); }
  /// True if the compiled plan has any fused/folded lowering to offer.
  bool fusion_compiled() const;

 private:
  ExecutionPlan() = default;

  struct Step {
    enum class Op {
      kForwardInto,  // layer->forward_into(in, out, ws)
      kFoldedConv,   // conv with BN-folded weights; optional fused relu
      kDenseRelu,    // dense forward_into then relu in place (bit-exact)
      kAdd,          // out += in (residual join; in may be the group input)
      kRelu,         // relu in place on out
    };
    Op op = Op::kForwardInto;
    Layer* layer = nullptr;    // executed layer (kForwardInto / kDenseRelu)
    Conv2d* conv = nullptr;    // kFoldedConv source conv
    bool block_inner = false;  // lowered from inside a BasicBlock
    int in_buf = -1;           // -1: the group's input activation
    int out_buf = 0;
    int fold = -1;             // index into folds_ (kFoldedConv)
    bool relu_after = false;   // kFoldedConv: fused trailing relu
    Shape in_shape, out_shape;
    Tensor in_view, out_view;  // borrowed arena views (in_view unused if in_buf < 0)
  };

  struct Fold {
    Conv2d* conv = nullptr;
    BatchNorm2d* bn = nullptr;
    // Folded weights, lazily allocated on the first fused run and refreshed
    // from the live golden tensors before every fused execution.
    Tensor wf, bf;
  };

  struct Group {
    std::size_t layer = 0;  // top-level layer index (hook index)
    Shape in_shape, out_shape;
    int out_buf = 0;
    Tensor out_view;          // borrowed arena view handed to hooks
    std::vector<Step> steps;  // unfused lowering (always present)
    std::vector<Step> fused;  // fused lowering (empty: use steps)
    // Exact multi-group elision (dense+relu): when span_len > 1 and fusion is
    // on with no hook, span_steps replaces this group and the next
    // span_len - 1 groups.
    std::size_t span_len = 1;
    std::vector<Step> span_steps;
  };

  void lower_layer(Network& net, std::size_t index, const Shape& in_shape,
                   const Shape& out_shape, int in_buf);
  void lower_block(BasicBlock& blk, Group& grp, int in_buf);
  int fresh_buffer(std::initializer_list<int> avoid);
  void note_use(int buf, std::int64_t numel);
  void finalize();
  void refold_all();
  void exec_step(Step& step, const Tensor& group_in, bool checked,
                 const tensor::abft::OpContext* ctx,
                 const tensor::abft::OpContext* inner_ctx);

  std::size_t first_ = 0;     // layer index of groups_[0]
  std::vector<Group> groups_;  // one per layer in [first_, end)
  std::vector<Fold> folds_;
  std::vector<std::int64_t> buffer_sizes_;  // floats, high-water per buffer
  std::vector<std::size_t> buffer_offsets_;
  Arena arena_;
  Workspace ws_;
};

}  // namespace bdlfi::nn
