#include "nn/range_guard.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace bdlfi::nn {

RangeGuard::RangeGuard(double margin) : margin_(margin) {
  BDLFI_CHECK(margin >= 0.0);
  lo_ = std::numeric_limits<float>::infinity();
  hi_ = -std::numeric_limits<float>::infinity();
}

void RangeGuard::forward_into(const Tensor& in, Tensor& out,
                              Workspace& /*ws*/) {
  BDLFI_CHECK(in.numel() == out.numel());
  if (calibrating_) {
    for (std::int64_t i = 0; i < in.numel(); ++i) {
      const float v = in[i];
      if (std::isfinite(v)) {
        lo_ = std::min(lo_, v);
        hi_ = std::max(hi_, v);
      }
    }
    calibrated_ = lo_ <= hi_;
  }
  if (calibrating_ || !calibrated_) {  // no range to clamp to: transparent
    if (out.data() != in.data()) {
      std::copy_n(in.data(), static_cast<std::size_t>(in.numel()),
                  out.data());
    }
    return;
  }
  const float span = hi_ - lo_;
  const auto widen = static_cast<float>(margin_) * (span > 0.0f ? span : 1.0f);
  const float lo = lo_ - widen;
  const float hi = hi_ + widen;
  const float mid = 0.5f * (lo + hi);
  std::size_t fired = 0;
  for (std::int64_t i = 0; i < in.numel(); ++i) {
    const float v = in[i];
    if (std::isnan(v)) {
      out[i] = mid;
      ++fired;
    } else if (v < lo) {
      out[i] = lo;
      ++fired;
    } else if (v > hi) {
      out[i] = hi;
      ++fired;
    } else {
      out[i] = v;
    }
  }
  // One relaxed RMW per forward, not per element: this layer may be shared
  // across parallel chain evaluations.
  if (fired > 0) corrections_.fetch_add(fired, std::memory_order_relaxed);
}

std::unique_ptr<Layer> RangeGuard::clone() const {
  auto copy = std::make_unique<RangeGuard>(margin_);
  copy->calibrating_ = calibrating_;
  copy->calibrated_ = calibrated_;
  copy->lo_ = lo_;
  copy->hi_ = hi_;
  // Deliberately NOT copied: corrections_. A clone is a fresh deployment of
  // the same calibrated guard; per-chain replicas each tally their own
  // firings and campaign totals sum over replicas (see header).
  return copy;
}

Network add_range_guards(const Network& net, const Tensor& calibration_inputs,
                         double margin) {
  std::vector<std::size_t> all(net.num_layers());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  return add_range_guards_at(net, all, calibration_inputs, margin);
}

Network add_range_guards_at(const Network& net,
                            const std::vector<std::size_t>& layers,
                            const Tensor& calibration_inputs, double margin) {
  // Fail loudly, before any forward: an empty calibration batch would leave
  // every guard's range frozen at the empty (+inf, -inf) state, tripping the
  // per-guard check below with a far less actionable message.
  BDLFI_CHECK_MSG(
      calibration_inputs.numel() > 0 && calibration_inputs.shape()[0] > 0,
      "add_range_guards: calibration input batch is empty");
  const auto guarded_layer = [&layers](std::size_t i) {
    return std::find(layers.begin(), layers.end(), i) != layers.end();
  };
  Network guarded;
  {
    Network scratch = net.clone();
    for (std::size_t i = 0; i < scratch.num_layers(); ++i) {
      guarded.add(scratch.layer_name(i), scratch.layer(i).clone());
      if (guarded_layer(i)) {
        guarded.add(scratch.layer_name(i) + "_guard",
                    std::make_unique<RangeGuard>(margin));
      }
    }
  }
  if (layers.empty()) return guarded;
  // Calibration pass: guards record, everything else runs eval-mode.
  for (std::size_t i = 0; i < guarded.num_layers(); ++i) {
    if (auto* guard = dynamic_cast<RangeGuard*>(&guarded.layer(i))) {
      guard->set_calibrating(true);
    }
  }
  (void)guarded.forward(calibration_inputs, /*training=*/false);
  for (std::size_t i = 0; i < guarded.num_layers(); ++i) {
    if (auto* guard = dynamic_cast<RangeGuard*>(&guarded.layer(i))) {
      guard->set_calibrating(false);
      BDLFI_CHECK_MSG(guard->is_calibrated(),
                      "calibration pass left a guard uncalibrated");
    }
  }
  return guarded;
}

std::size_t total_guard_corrections(Network& net) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    if (auto* guard = dynamic_cast<RangeGuard*>(&net.layer(i))) {
      total += guard->corrections();
    }
  }
  return total;
}

}  // namespace bdlfi::nn
