// Layer abstraction.
//
// A Layer owns its parameters and the forward-pass caches needed for its
// backward pass. Two properties matter for fault injection:
//
//  1. *Stable parameter enumeration.* `collect_params` reports every
//     parameter tensor with a hierarchical name and a role, in an order that
//     is identical across clones and process runs. Fault sites are addressed
//     as (param index, element, bit) against this enumeration.
//  2. *Cloneability.* MCMC chains run on independent deep copies of the
//     network so corrupted forward passes never touch the golden weights and
//     chains can execute in parallel without locks.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tensor/abft.h"
#include "tensor/tensor.h"

namespace bdlfi::nn {

using tensor::Shape;
using tensor::Tensor;

/// What a parameter tensor is, within its layer. Fault campaigns filter on
/// this (e.g. "weights only", as in the paper's memory-fault model).
enum class ParamRole {
  kWeight,
  kBias,
  kBnGamma,
  kBnBeta,
  // Non-trainable buffers (BN running statistics). Reported by
  // collect_buffers, not collect_params; still resident in accelerator
  // memory, hence valid fault targets.
  kBnRunningMean,
  kBnRunningVar,
};

const char* param_role_name(ParamRole role);

/// A live, mutable reference to one parameter tensor of a network, plus its
/// gradient accumulator. Invalidated by destroying/cloning the network.
struct ParamRef {
  std::string name;    // hierarchical, e.g. "block2.conv1.weight"
  ParamRole role;
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
};

/// A live, mutable reference to one int8 weight-code buffer of a quantized
/// layer — the accelerator's weight memory, addressed by fault campaigns as
/// 8-bit words. Same lifetime rules as ParamRef.
struct CodeRef {
  std::string name;  // hierarchical, e.g. "block2.conv1.weight_q"
  std::int8_t* data = nullptr;
  std::int64_t numel = 0;
};

/// Per-execution scratch passed through forward_into, owned by the plan (or
/// local to one eval Layer::forward) and grow-once: a layer stages
/// temporaries in `scratch` instead of allocating per eval (a basic block
/// keeps its inner activation and projection shortcut there; Conv2d and
/// BatchNorm2d ignore it). One rule keeps the views valid: a layer resizes
/// `scratch` only before taking views into it, and the sub-layers it calls
/// do not resize it.
struct Workspace {
  std::vector<float> scratch;
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Stable kind tag ("dense", "conv", "bn", "relu", ...), used to label the
  /// per-layer sensitivity results of Fig 3.
  virtual std::string kind() const = 0;

  /// Runs the layer. Training mode runs forward_train(), caching whatever
  /// backward() needs; eval mode allocates output_shape(x.shape()) and runs
  /// forward_into() on it, so every eval forward runs the one eval body.
  Tensor forward(const Tensor& x, bool training);

  /// Shape of the eval-mode output for an input of shape `in`. Plans size
  /// their slots from it without running the layer.
  virtual Shape output_shape(const Shape& in) const = 0;

  /// Eval-mode forward into caller-provided storage: the layer's only eval
  /// implementation. `out` arrives shaped output_shape(in.shape()) and may
  /// alias `in` only when inplace_capable(); implementations must write every
  /// element of `out` and never mutate `in`. Stateful eval modes live here
  /// too (MC dropout draws its mask, a calibrating guard records its range),
  /// once per call.
  virtual void forward_into(const Tensor& in, Tensor& out, Workspace& ws) = 0;

  /// True when forward_into tolerates out.data() == in.data(). Pure
  /// elementwise layers say yes so the plan can collapse their slot onto the
  /// producer's buffer.
  virtual bool inplace_capable() const { return false; }

  /// Consumes d(loss)/d(output), accumulates parameter gradients, returns
  /// d(loss)/d(input). Only valid after a training-mode forward.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Appends this layer's parameters with names prefixed by `prefix`.
  virtual void collect_params(const std::string& prefix,
                              std::vector<ParamRef>& out) {
    (void)prefix;
    (void)out;
  }

  /// Appends non-trainable state tensors (BN running stats) with
  /// grad == nullptr. Used by checkpointing and (optionally) fault targeting.
  virtual void collect_buffers(const std::string& prefix,
                               std::vector<ParamRef>& out) {
    (void)prefix;
    (void)out;
  }

  /// Appends this layer's int8 weight-code buffers (quantized layers only).
  virtual void collect_codes(const std::string& prefix,
                             std::vector<CodeRef>& out) {
    (void)prefix;
    (void)out;
  }

  /// Zeroes all gradient accumulators.
  virtual void zero_grad() {}

  /// Deep copy (parameters and configuration; caches need not be preserved).
  virtual std::unique_ptr<Layer> clone() const = 0;

  /// Number of trainable scalars (0 for stateless layers).
  std::int64_t num_params();

  /// Installs (or clears, with nullptr) the per-op self-checking context for
  /// the next forward: ABFT checksum config plus this layer's transient
  /// compute-fault flips. Set around each layer call by the execution plan
  /// and by Network::forward's training loop; layers whose forward runs a
  /// GEMM (dense, conv, block) honour it, all others ignore it. Not owned;
  /// must outlive the forward.
  void set_compute_context(const tensor::abft::OpContext* ctx) {
    compute_ctx_ = ctx;
  }

 protected:
  /// Training-mode forward: caches what backward() needs. Defaults to the
  /// eval forward, for layers that keep no backward caches.
  virtual Tensor forward_train(const Tensor& x) { return forward(x, false); }

  const tensor::abft::OpContext* compute_ctx_ = nullptr;
};

}  // namespace bdlfi::nn
