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

/// Per-execution scratch passed through planned forwards, owned by the plan
/// and grow-once: a layer stages temporaries in `scratch` instead of
/// allocating per eval (BasicBlock keeps its inner activation and projection
/// shortcut there; Conv2d and BatchNorm2d ignore it). One rule keeps the
/// views valid: a layer resizes `scratch` only before taking views into it,
/// and the sub-layers it calls do not resize it.
struct Workspace {
  std::vector<float> scratch;
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Stable kind tag ("dense", "conv", "bn", "relu", ...), used to label the
  /// per-layer sensitivity results of Fig 3.
  virtual std::string kind() const = 0;

  /// Runs the layer, caching whatever backward() needs when `training`.
  virtual Tensor forward(const Tensor& x, bool training) = 0;

  /// Eval-mode forward into caller-provided storage — the planned-execution
  /// contract. `out` arrives pre-shaped with this layer's output geometry and
  /// may alias `in` only when inplace_capable(); implementations must write
  /// every element of `out` and never mutate `in`. The base implementation is
  /// a compatibility shim (run the allocating forward(), copy the result), so
  /// custom layers stay correct under planned execution — just not
  /// allocation-free until they override.
  virtual void forward_into(const Tensor& in, Tensor& out, Workspace& ws);

  /// True when forward_into tolerates out.data() == in.data(). Pure
  /// elementwise layers say yes so the plan can collapse their slot onto the
  /// producer's buffer.
  virtual bool inplace_capable() const { return false; }

  /// True when an extra eval-mode forward of this layer has no observable
  /// side effects (no RNG draws, no state recording). The plan compiler's
  /// shape probe and step replay rely on this; layers with stateful eval
  /// modes (MC-dropout sampling, calibrating range guards) return false to
  /// route the whole network through the legacy allocating path instead.
  virtual bool plan_eval_safe() const { return true; }

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

  /// Zeroes all gradient accumulators.
  virtual void zero_grad() {}

  /// Deep copy (parameters and configuration; caches need not be preserved).
  virtual std::unique_ptr<Layer> clone() const = 0;

  /// Number of trainable scalars (0 for stateless layers).
  std::int64_t num_params();

  /// Installs (or clears, with nullptr) the per-op self-checking context for
  /// the next forward: ABFT checksum config plus this layer's transient
  /// compute-fault flips. Set by Network::forward_from around each layer call;
  /// layers whose forward runs a GEMM (dense, conv, block) honour it, all
  /// others ignore it. Not owned; must outlive the forward.
  void set_compute_context(const tensor::abft::OpContext* ctx) {
    compute_ctx_ = ctx;
  }

 protected:
  const tensor::abft::OpContext* compute_ctx_ = nullptr;
};

}  // namespace bdlfi::nn
