// Network: an ordered container of layers with end-to-end forward/backward,
// stable parameter enumeration, deep cloning, and per-layer activation hooks
// that BayesianFaultNetwork uses to corrupt activation fault sites in flight.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace bdlfi::nn {

/// Transient compute faults for one forward pass: layer index → sorted
/// (output element, bit) flips applied to that layer's raw GEMM results
/// mid-compute. Non-owning; installed per evaluation, never cloned.
using ComputeFaultPlan = std::map<std::size_t, tensor::abft::FlipList>;

class ExecutionPlan;

class Network {
 public:
  Network();
  ~Network();
  Network(Network&&) noexcept;
  Network& operator=(Network&&) noexcept;
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Appends a layer with an explicit name (names must be unique; they anchor
  /// fault-site addressing and checkpoint matching). Drops the compiled
  /// plans, which end at the old last layer.
  void add(std::string name, std::unique_ptr<Layer> layer);

  std::size_t num_layers() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i).entry; }
  const std::string& layer_name(std::size_t i) const {
    return layers_.at(i).name;
  }
  std::string layer_kind(std::size_t i) const {
    return layers_.at(i).entry->kind();
  }

  /// Called after layer `i` produces its output; may mutate the activation.
  /// This is how BDLFI injects activation/memory faults mid-network without
  /// any ptrace-style system support (§I of the paper).
  using ActivationHook =
      std::function<void(std::size_t layer_index, Tensor& activation)>;

  /// Forward pass. Eval mode returns a copy of forward_view(0, x, hook).
  /// Training mode runs layer by layer, each layer caching what backward()
  /// needs (and BN using batch statistics).
  Tensor forward(const Tensor& x, bool training = false,
                 const ActivationHook& hook = nullptr);

  /// Resumes inference mid-network: runs layers [first_layer, num_layers())
  /// on `act`, which must be the activation *entering* layer `first_layer`
  /// (i.e. the output of layer first_layer-1, or the network input when
  /// first_layer == 0), and returns a copy of forward_view's result. `hook`
  /// fires with the same layer indices as forward(). first_layer ==
  /// num_layers() returns `act` unchanged. In eval mode every layer is a
  /// deterministic function of its input, so replaying a suffix from a
  /// cached golden activation is bit-exact with a full forward — the
  /// invariant the truncated mask-evaluation pipeline rests on.
  Tensor forward_from(std::size_t first_layer, const Tensor& act,
                      const ActivationHook& hook = nullptr);

  /// Zero-copy eval forward: like forward_from(first_layer, act, hook) but
  /// returns a borrowed reference to the logits, a view of the plan's arena
  /// slot (or `act` itself when first_layer == num_layers()). Valid until
  /// the next forward on this network; copy to keep. This is the hot path
  /// for mask-evaluation loops: steady state performs zero heap allocations.
  ///
  /// Every eval forward runs on an ExecutionPlan (DESIGN.md §13), compiled
  /// on first use from the layer the call enters at and sized from each
  /// layer's output_shape: one Layer::forward_into per top-level layer over
  /// pre-sized arena slots, no per-eval allocations. Stateful eval layers
  /// (MC dropout, calibrating range guards) run on it too, once per call.
  const Tensor& forward_view(std::size_t first_layer, const Tensor& act,
                             const ActivationHook& hook = nullptr);

  /// The plan that covers an eval forward starting at layer 0 with input
  /// shape `shape`, or nullptr if none has been compiled yet. Test/telemetry
  /// introspection (arena high-water mark, buffer count).
  const ExecutionPlan* plan_for(const Shape& shape) const;

  /// Backward from d(loss)/d(logits); returns d(loss)/d(input).
  Tensor backward(const Tensor& grad_logits);

  void zero_grad();

  /// Stable, order-deterministic parameter enumeration. Pointers are valid
  /// until the network is modified or destroyed.
  std::vector<ParamRef> params();

  /// Non-trainable buffers (BN running stats), same ordering guarantees.
  std::vector<ParamRef> buffers();

  /// int8 weight-code buffers of quantized layers, same ordering guarantees.
  std::vector<CodeRef> codes();

  /// params() followed by buffers() — the full persistent state.
  std::vector<ParamRef> state();

  std::int64_t num_params();

  /// Deep copy of topology + parameters (not caches).
  Network clone() const;

  /// Class predictions (argmax of logits) for a batch.
  std::vector<std::int64_t> predict(const Tensor& x);

  /// Fraction of rows of `x` whose argmax equals `labels`.
  double accuracy(const Tensor& x, const std::vector<std::int64_t>& labels);

  /// One-line-per-layer summary (name, kind, #params).
  std::string summary();

  /// ABFT self-checking deployment for this network's GEMM-bearing layers
  /// (DESIGN.md §9). A *deployment property*: clone() copies it, so every
  /// MCMC replica of a protected network is protected the same way. With
  /// mode == kOff and no compute-fault plan, forward takes exactly today's
  /// code path (bit-exact parity).
  void set_abft(tensor::abft::Config config) { abft_ = config; }
  const tensor::abft::Config& abft() const { return abft_; }

  /// Restricts ABFT checking to a subset of layer indices — selective
  /// protection placement (DESIGN.md §14). Empty (the default) checks every
  /// GEMM-bearing layer, today's behavior. Unselected layers still *suffer*
  /// installed compute faults; they are simply unchecked, like an unprotected
  /// deployment. A deployment property: clone() copies it, and a non-empty
  /// restriction is appended to the campaign checkpoint fingerprint.
  void set_abft_layers(std::vector<std::size_t> layers);
  const std::vector<std::size_t>& abft_layers() const { return abft_layers_; }
  bool abft_layer_checked(std::size_t i) const;

  /// Cumulative ABFT/compute-fault counters for this network instance.
  /// Lazily created (atomics are not copyable; the network stays movable);
  /// clone() starts the copy at zero.
  tensor::abft::Stats& abft_stats() const;

  /// Installs (nullptr clears) the transient compute faults for subsequent
  /// forwards. Flips apply whether or not ABFT checking is on — an
  /// unprotected deployment still suffers the fault, it just never notices.
  void set_compute_fault_plan(const ComputeFaultPlan* plan) {
    compute_plan_ = plan;
  }

 private:
  friend class ExecutionPlan;

  struct Entry {
    std::string name;
    std::unique_ptr<Layer> entry;
  };

  /// True when forwards must run self-checking: ABFT on, or compute faults
  /// installed. Otherwise every layer runs exactly the unchecked forward.
  bool checked() const;
  /// The ABFT/compute-fault context layer `i` runs under in a checked
  /// forward.
  tensor::abft::OpContext op_context(std::size_t i) const;

  std::vector<Entry> layers_;
  tensor::abft::Config abft_;
  std::vector<std::size_t> abft_layers_;  // sorted; empty = all layers
  mutable std::unique_ptr<tensor::abft::Stats> abft_stats_;
  const ComputeFaultPlan* compute_plan_ = nullptr;
  // Compiled execution plans, one per distinct entry (layer, shape) no other
  // plan covers; bounded, oldest evicted. Per-instance — clones compile their
  // own plans and therefore own independent arenas.
  std::vector<std::unique_ptr<ExecutionPlan>> plans_;
};

}  // namespace bdlfi::nn
