#include "nn/plan.h"

#include <algorithm>

#include "util/check.h"

namespace bdlfi::nn {

std::unique_ptr<ExecutionPlan> ExecutionPlan::compile(Network& net,
                                                      const Shape& input,
                                                      std::size_t first_layer) {
  BDLFI_CHECK_MSG(first_layer < net.num_layers(),
                  "plan compile past the end of the network");
  std::unique_ptr<ExecutionPlan> plan(new ExecutionPlan);
  plan->first_ = first_layer;

  // Walk the suffix's output shapes; no layer runs.
  std::vector<Shape> out_shapes;
  Shape shape = input;
  int in_buf = -1;  // the first step's input is always the external tensor
  for (std::size_t i = first_layer; i < net.num_layers(); ++i) {
    Step s;
    s.layer = &net.layer(i);
    s.in_shape = shape;
    shape = s.layer->output_shape(shape);
    out_shapes.push_back(shape);
    // Elementwise layers overwrite their producer's slot (the producer's hook
    // has already fired by the time they run); every other layer writes the
    // other slot. The external input is never written.
    s.out_buf = in_buf == 0 ? 1 : 0;
    if (s.layer->inplace_capable() && in_buf >= 0) s.out_buf = in_buf;
    const auto slot = static_cast<std::size_t>(s.out_buf);
    if (plan->buffer_sizes_.size() <= slot) {
      plan->buffer_sizes_.resize(slot + 1);
    }
    plan->buffer_sizes_[slot] =
        std::max(plan->buffer_sizes_[slot], shape.numel());
    in_buf = s.out_buf;
    plan->steps_.push_back(std::move(s));
  }

  // Slots sit back to back at 64-byte alignment: 16-float granularity on a
  // 64-byte-aligned base.
  std::vector<std::size_t> offsets;
  std::size_t total = 0;
  for (const std::int64_t floats : plan->buffer_sizes_) {
    offsets.push_back(total);
    total += (static_cast<std::size_t>(floats) + 15u) &
             ~static_cast<std::size_t>(15u);
  }
  plan->arena_.reserve(total);
  for (std::size_t k = 0; k < plan->steps_.size(); ++k) {
    Step& s = plan->steps_[k];
    s.out_view = Tensor::view(
        out_shapes[k],
        plan->arena_.at(offsets[static_cast<std::size_t>(s.out_buf)]));
  }
  return plan;
}

bool ExecutionPlan::covers(std::size_t first_layer, const Shape& shape) const {
  // Steps are 1:1 with top-level layers [first_, end), in order.
  if (first_layer < first_ || first_layer - first_ >= steps_.size()) {
    return false;
  }
  return steps_[first_layer - first_].in_shape == shape;
}

bool ExecutionPlan::supersedes(const ExecutionPlan& other) const {
  return covers(other.first_, other.steps_.front().in_shape);
}

const Tensor& ExecutionPlan::run(Network& net, std::size_t first_layer,
                                 const Tensor& input,
                                 const Network::ActivationHook& hook) {
  BDLFI_CHECK(covers(first_layer, input.shape()));
  // Same per-layer contexts as the training loop; unchecked forwards install
  // none.
  const bool checked = net.checked();
  const Tensor* in = &input;
  for (std::size_t k = first_layer - first_; k < steps_.size(); ++k) {
    Step& s = steps_[k];
    const std::size_t index = first_ + k;
    if (checked) {
      const tensor::abft::OpContext ctx = net.op_context(index);
      s.layer->set_compute_context(&ctx);
      s.layer->forward_into(*in, s.out_view, ws_);
      s.layer->set_compute_context(nullptr);
    } else {
      s.layer->forward_into(*in, s.out_view, ws_);
    }
    if (hook) hook(index, s.out_view);
    in = &s.out_view;
  }
  return steps_.back().out_view;
}

}  // namespace bdlfi::nn
