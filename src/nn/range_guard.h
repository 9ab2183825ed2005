// Range guards: activation-clamping fault detectors/correctors.
//
// A deployed fault-tolerance mechanism (Ranger, and the "reliability
// features" §III of the paper calls for): during fault-free calibration each
// guard records the min/max its input ever takes; at inference it clamps
// values outside the (slightly widened) range and squashes NaN to the range
// midpoint. Transient faults that blow an activation out to huge magnitudes
// are thereby contained before they can propagate to the output — at zero
// cost to fault-free accuracy, since in-range values pass through untouched.
//
// Usage: build the network with guards (or wrap one via add_range_guards),
// run calibrate-mode forwards on clean data, then freeze.
#pragma once

#include <atomic>

#include "nn/layer.h"
#include "nn/network.h"

namespace bdlfi::nn {

class RangeGuard : public Layer {
 public:
  /// margin: fractional widening of the calibrated range (0.1 = ±10%).
  explicit RangeGuard(double margin = 0.1);

  std::string kind() const override { return "guard"; }
  Shape output_shape(const Shape& in) const override { return in; }
  /// Calibrating: records the input's finite min/max, once per call, and
  /// passes it through. Otherwise clamps (see the file comment).
  void forward_into(const Tensor& in, Tensor& out, Workspace& ws) override;
  bool inplace_capable() const override { return true; }
  /// Straight-through gradient (clamping is inactive on clean training data).
  Tensor backward(const Tensor& grad_output) override { return grad_output; }
  std::unique_ptr<Layer> clone() const override;

  /// While calibrating, forwards record min/max and never clamp.
  void set_calibrating(bool on) { calibrating_ = on; }
  bool calibrating() const { return calibrating_; }
  bool is_calibrated() const { return calibrated_; }
  float lo() const { return lo_; }
  float hi() const { return hi_; }
  /// Number of values clamped/squashed since construction (telemetry — the
  /// clamp is *silent* at inference; a deployed system would have to poll
  /// this to notice anything, so it does NOT count as fault detection in the
  /// outcome taxonomy). Atomic: MCMC chains evaluate a guarded network under
  /// util::parallel_for, and a shared network must tally safely.
  std::size_t corrections() const {
    return corrections_.load(std::memory_order_relaxed);
  }

 private:
  double margin_;
  bool calibrating_ = false;
  bool calibrated_ = false;
  float lo_ = 0.0f, hi_ = 0.0f;
  // Clone semantics (explicit): clone() copies the calibrated range but
  // starts the copy's counter at ZERO — each per-chain replica counts its own
  // firings, and a campaign-wide total is the sum over replicas.
  std::atomic<std::size_t> corrections_{0};
};

/// Builds a guarded twin of `net`: a RangeGuard is inserted after every
/// layer, calibrated by running the provided clean inputs through it.
/// Guard names are "<layer>_guard". Returns the hardened network (inference
/// use; training through it is supported but guards stay frozen).
Network add_range_guards(const Network& net, const Tensor& calibration_inputs,
                         double margin = 0.1);

/// Selective variant (budgeted protection placement, DESIGN.md §14): guards
/// only the listed layer indices of `net` (pre-insertion numbering; each
/// guard lands immediately after its layer). An empty list returns an
/// unguarded clone. Layers after an inserted guard shift up by one per guard
/// before them — harden::apply_plan remaps ABFT indices accordingly.
Network add_range_guards_at(const Network& net,
                            const std::vector<std::size_t>& layers,
                            const Tensor& calibration_inputs,
                            double margin = 0.1);

/// Sum of corrections() over all guards — total detector firings.
std::size_t total_guard_corrections(Network& net);

}  // namespace bdlfi::nn
