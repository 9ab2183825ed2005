#include "nn/plan.h"

#include <algorithm>
#include <cmath>

#include "nn/resblock.h"
#include "tensor/ops.h"
#include "util/check.h"

namespace bdlfi::nn {

void fold_conv_bn(const Tensor& weight, const Tensor& bias, BatchNorm2d& bn,
                  Tensor& folded_weight, Tensor& folded_bias) {
  const std::int64_t o = weight.shape()[0];
  BDLFI_CHECK(folded_weight.numel() == weight.numel());
  BDLFI_CHECK(folded_bias.numel() == o);
  BDLFI_CHECK(bn.channels() == o);
  const std::int64_t per = weight.numel() / o;
  const float* w = weight.data();
  float* wf = folded_weight.data();
  for (std::int64_t ch = 0; ch < o; ++ch) {
    // Same scale/shift arithmetic as BatchNorm2d's eval forward, pushed
    // through linearity into the producing conv's weights.
    const float inv_std = 1.0f / std::sqrt(bn.running_var()[ch] + bn.eps());
    const float scale = bn.gamma()[ch] * inv_std;
    const float shift = bn.beta()[ch] - bn.running_mean()[ch] * scale;
    const float* src = w + ch * per;
    float* dst = wf + ch * per;
    for (std::int64_t i = 0; i < per; ++i) dst[i] = src[i] * scale;
    folded_bias[ch] = (bias.empty() ? 0.0f : bias[ch]) * scale + shift;
  }
}

std::unique_ptr<ExecutionPlan> ExecutionPlan::compile(Network& net,
                                                      const Tensor& probe,
                                                      std::size_t first_layer) {
  BDLFI_CHECK_MSG(first_layer < net.num_layers(),
                  "plan compile past the end of the network");
  std::unique_ptr<ExecutionPlan> plan(new ExecutionPlan);
  plan->first_ = first_layer;

  // Probe: one eval forward of the suffix records every layer-boundary shape.
  // This works for any Layer subclass (custom layers included) without
  // requiring a shape-inference virtual.
  std::vector<Shape> shapes;  // shapes[i - first_layer] = entering layer i
  shapes.reserve(net.num_layers() - first_layer + 1);
  Tensor act = probe;
  shapes.push_back(act.shape());
  for (std::size_t i = first_layer; i < net.num_layers(); ++i) {
    act = net.layer(i).forward(act, /*training=*/false);
    shapes.push_back(act.shape());
  }

  int in_buf = -1;  // the first group's input is always the external tensor
  for (std::size_t i = first_layer; i < net.num_layers(); ++i) {
    plan->lower_layer(net, i, shapes[i - first_layer],
                      shapes[i - first_layer + 1], in_buf);
    in_buf = plan->groups_.back().out_buf;
  }

  // Exact dense+relu elision spans. The relu aliases the dense's buffer by
  // construction, so the elided step writes the same slot the unfused pair
  // would — downstream groups are none the wiser.
  for (std::size_t g = 0; g + 1 < plan->groups_.size(); ++g) {
    Group& a = plan->groups_[g];
    Group& b = plan->groups_[g + 1];
    if (net.layer_kind(a.layer) == "dense" &&
        net.layer_kind(b.layer) == "relu" && a.out_buf == b.out_buf) {
      Step s;
      s.op = Step::Op::kDenseRelu;
      s.layer = &net.layer(a.layer);
      s.in_buf = -1;
      s.out_buf = a.out_buf;
      s.in_shape = a.in_shape;
      s.out_shape = b.out_shape;
      a.span_len = 2;
      a.span_steps.push_back(std::move(s));
    }
  }

  plan->finalize();
  return plan;
}

void ExecutionPlan::lower_layer(Network& net, std::size_t index,
                                const Shape& in_shape, const Shape& out_shape,
                                int in_buf) {
  Group grp;
  grp.layer = index;
  grp.in_shape = in_shape;
  grp.out_shape = out_shape;
  Layer& layer = net.layer(index);
  if (auto* blk = dynamic_cast<BasicBlock*>(&layer)) {
    lower_block(*blk, grp, in_buf);
  } else {
    Step s;
    s.op = Step::Op::kForwardInto;
    s.layer = &layer;
    s.in_buf = -1;
    s.in_shape = in_shape;
    s.out_shape = out_shape;
    if (layer.inplace_capable() && in_buf >= 0) {
      // Elementwise: overwrite the producer's slot (legacy semantics — the
      // hook for the producing layer has already fired by the time this
      // group runs).
      s.out_buf = in_buf;
    } else {
      s.out_buf = fresh_buffer({in_buf});
    }
    note_use(s.out_buf, out_shape.numel());
    grp.out_buf = s.out_buf;
    grp.steps.push_back(std::move(s));
  }
  groups_.push_back(std::move(grp));
}

void ExecutionPlan::lower_block(BasicBlock& blk, Group& grp, int in_buf) {
  const Shape& x = grp.in_shape;
  const Shape& out = grp.out_shape;  // conv2/proj output geometry
  const Shape mid{x[0], blk.conv1().out_channels(),
                  blk.conv1().spec().out_h(x[2]),
                  blk.conv1().spec().out_w(x[3])};
  const int t1 = fresh_buffer({in_buf});
  const int t2 = fresh_buffer({in_buf, t1});
  const int t3 = blk.has_projection() ? fresh_buffer({in_buf, t1, t2}) : -1;
  note_use(t1, mid.numel());
  note_use(t2, out.numel());
  if (t3 >= 0) note_use(t3, out.numel());
  grp.out_buf = t2;

  const auto mk = [](Step::Op op, Layer* l, int in, int ob, const Shape& is,
                     const Shape& os) {
    Step s;
    s.op = op;
    s.layer = l;
    s.block_inner = true;
    s.in_buf = in;
    s.out_buf = ob;
    s.in_shape = is;
    s.out_shape = os;
    return s;
  };

  // Unfused lowering — mirrors BasicBlock::forward step for step (the main
  // branch, then the shortcut, then join + relu). Bit-exact by construction.
  grp.steps.push_back(mk(Step::Op::kForwardInto, &blk.conv1(), -1, t1, x, mid));
  grp.steps.push_back(mk(Step::Op::kForwardInto, &blk.bn1(), t1, t1, mid, mid));
  grp.steps.push_back(mk(Step::Op::kRelu, nullptr, t1, t1, mid, mid));
  grp.steps.push_back(
      mk(Step::Op::kForwardInto, &blk.conv2(), t1, t2, mid, out));
  grp.steps.push_back(mk(Step::Op::kForwardInto, &blk.bn2(), t2, t2, out, out));
  if (blk.has_projection()) {
    grp.steps.push_back(
        mk(Step::Op::kForwardInto, blk.proj_conv(), -1, t3, x, out));
    grp.steps.push_back(
        mk(Step::Op::kForwardInto, blk.proj_bn(), t3, t3, out, out));
    grp.steps.push_back(mk(Step::Op::kAdd, nullptr, t3, t2, out, out));
  } else {
    grp.steps.push_back(mk(Step::Op::kAdd, nullptr, -1, t2, x, out));
  }
  grp.steps.push_back(mk(Step::Op::kRelu, nullptr, t2, t2, out, out));

  // Fused lowering: BN folded into each conv, relu fused onto conv1. Fold
  // tensors are allocated lazily (first fused run) and refreshed from the
  // live golden tensors every fused execution, so weight/BN bit flips remain
  // visible through the fold.
  folds_.push_back(Fold{&blk.conv1(), &blk.bn1(), Tensor{}, Tensor{}});
  const int f1 = static_cast<int>(folds_.size()) - 1;
  folds_.push_back(Fold{&blk.conv2(), &blk.bn2(), Tensor{}, Tensor{}});
  const int f2 = static_cast<int>(folds_.size()) - 1;

  Step c1 = mk(Step::Op::kFoldedConv, nullptr, -1, t1, x, mid);
  c1.conv = &blk.conv1();
  c1.fold = f1;
  c1.relu_after = true;
  grp.fused.push_back(std::move(c1));
  Step c2 = mk(Step::Op::kFoldedConv, nullptr, t1, t2, mid, out);
  c2.conv = &blk.conv2();
  c2.fold = f2;
  grp.fused.push_back(std::move(c2));
  if (blk.has_projection()) {
    folds_.push_back(Fold{blk.proj_conv(), blk.proj_bn(), Tensor{}, Tensor{}});
    const int f3 = static_cast<int>(folds_.size()) - 1;
    Step c3 = mk(Step::Op::kFoldedConv, nullptr, -1, t3, x, out);
    c3.conv = blk.proj_conv();
    c3.fold = f3;
    grp.fused.push_back(std::move(c3));
    grp.fused.push_back(mk(Step::Op::kAdd, nullptr, t3, t2, out, out));
  } else {
    grp.fused.push_back(mk(Step::Op::kAdd, nullptr, -1, t2, x, out));
  }
  grp.fused.push_back(mk(Step::Op::kRelu, nullptr, t2, t2, out, out));
}

int ExecutionPlan::fresh_buffer(std::initializer_list<int> avoid) {
  int b = 0;
  for (;; ++b) {
    bool clash = false;
    for (const int a : avoid) clash = clash || (a == b);
    if (!clash) break;
  }
  while (static_cast<int>(buffer_sizes_.size()) <= b) {
    buffer_sizes_.push_back(0);
  }
  return b;
}

void ExecutionPlan::note_use(int buf, std::int64_t numel) {
  buffer_sizes_[static_cast<std::size_t>(buf)] =
      std::max(buffer_sizes_[static_cast<std::size_t>(buf)], numel);
}

void ExecutionPlan::finalize() {
  buffer_offsets_.resize(buffer_sizes_.size());
  std::size_t off = 0;
  for (std::size_t b = 0; b < buffer_sizes_.size(); ++b) {
    buffer_offsets_[b] = off;
    // 64-byte slot alignment: 16-float granularity on a 64-byte-aligned base.
    off += (static_cast<std::size_t>(buffer_sizes_[b]) + 15u) &
           ~static_cast<std::size_t>(15u);
  }
  arena_.reserve(off);
  const auto bind = [&](Step& s) {
    if (s.in_buf >= 0) {
      s.in_view = Tensor::view(
          s.in_shape, arena_.at(buffer_offsets_[static_cast<std::size_t>(
                          s.in_buf)]));
    }
    s.out_view = Tensor::view(
        s.out_shape,
        arena_.at(buffer_offsets_[static_cast<std::size_t>(s.out_buf)]));
  };
  for (Group& g : groups_) {
    for (Step& s : g.steps) bind(s);
    for (Step& s : g.fused) bind(s);
    for (Step& s : g.span_steps) bind(s);
    g.out_view = Tensor::view(
        g.out_shape,
        arena_.at(buffer_offsets_[static_cast<std::size_t>(g.out_buf)]));
  }
}

bool ExecutionPlan::covers(std::size_t first_layer, const Shape& shape) const {
  // Groups are 1:1 with top-level layers [first_, end), in order.
  if (first_layer < first_ || first_layer - first_ >= groups_.size()) {
    return false;
  }
  return groups_[first_layer - first_].in_shape == shape;
}

bool ExecutionPlan::supersedes(const ExecutionPlan& other) const {
  return covers(other.first_, other.groups_.front().in_shape);
}

bool ExecutionPlan::fusion_compiled() const {
  if (!folds_.empty()) return true;
  for (const Group& g : groups_) {
    if (g.span_len > 1) return true;
  }
  return false;
}

void ExecutionPlan::refold_all() {
  for (Fold& f : folds_) {
    if (f.wf.empty()) {
      f.wf = Tensor{f.conv->weight().shape()};
      f.bf = Tensor{Shape{f.conv->out_channels()}};
    }
    fold_conv_bn(f.conv->weight(), f.conv->bias(), *f.bn, f.wf, f.bf);
  }
}

void ExecutionPlan::exec_step(Step& s, const Tensor& group_in, bool checked,
                              const tensor::abft::OpContext* ctx,
                              const tensor::abft::OpContext* inner_ctx) {
  const Tensor& in = s.in_buf < 0 ? group_in : s.in_view;
  switch (s.op) {
    case Step::Op::kForwardInto:
      if (checked) {
        // Block-inner layers inherit the deployment minus the flip list,
        // matching BasicBlock::forward's inner-context handoff.
        s.layer->set_compute_context(s.block_inner ? inner_ctx : ctx);
        s.layer->forward_into(in, s.out_view, ws_);
        s.layer->set_compute_context(nullptr);
      } else {
        s.layer->forward_into(in, s.out_view, ws_);
      }
      break;
    case Step::Op::kFoldedConv: {
      Fold& f = folds_[static_cast<std::size_t>(s.fold)];
      tensor::conv2d_forward_into(in, f.wf, f.bf, s.conv->spec(),
                                  tensor::abft::OpContext{}, s.out_view);
      if (s.relu_after) tensor::relu_inplace(s.out_view);
      break;
    }
    case Step::Op::kDenseRelu:
      s.layer->forward_into(in, s.out_view, ws_);
      tensor::relu_inplace(s.out_view);
      break;
    case Step::Op::kAdd:
      tensor::add_inplace(s.out_view, in);
      break;
    case Step::Op::kRelu:
      tensor::relu_inplace(s.out_view);
      break;
  }
}

const Tensor& ExecutionPlan::run(Network& net, std::size_t first_layer,
                                 const Tensor& input,
                                 const Network::ActivationHook& hook,
                                 bool fuse) {
  BDLFI_CHECK(covers(first_layer, input.shape()));
  const bool checked = net.checked();
  // Checked runs need the per-layer contexts of the unfused lowering.
  const bool use_fused = fuse && !checked;
  if (use_fused && !folds_.empty()) refold_all();

  const std::size_t entry = first_layer - first_;
  std::size_t g = entry;
  while (g < groups_.size()) {
    Group& grp = groups_[g];
    const Tensor& gin = (g == entry) ? input : groups_[g - 1].out_view;

    // Exact elision spans only run hook-free: hooks must observe every
    // top-level index. Values are identical either way.
    if (use_fused && !hook && grp.span_len > 1) {
      for (Step& s : grp.span_steps) {
        exec_step(s, gin, /*checked=*/false, nullptr, nullptr);
      }
      g += grp.span_len;
      continue;
    }

    tensor::abft::OpContext ctx, inner;
    const tensor::abft::OpContext* inner_ptr = nullptr;
    if (checked) {
      ctx = net.op_context(grp.layer);
      inner = ctx;
      inner.flips = nullptr;  // flips address top-level output geometry
      inner_ptr = &inner;
    }

    std::vector<Step>& steps =
        (use_fused && !grp.fused.empty()) ? grp.fused : grp.steps;
    for (Step& s : steps) exec_step(s, gin, checked, &ctx, inner_ptr);
    if (hook) hook(grp.layer, grp.out_view);
    ++g;
  }
  return groups_.back().out_view;
}

}  // namespace bdlfi::nn
