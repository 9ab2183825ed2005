#include "nn/network.h"

#include <algorithm>
#include <sstream>

#include "nn/plan.h"
#include "tensor/ops.h"
#include "util/check.h"

namespace bdlfi::nn {

// Out-of-line so the unique_ptr<ExecutionPlan> members see a complete type.
Network::Network() = default;
Network::~Network() = default;
Network::Network(Network&&) noexcept = default;
Network& Network::operator=(Network&&) noexcept = default;

void Network::add(std::string name, std::unique_ptr<Layer> layer) {
  BDLFI_CHECK(layer != nullptr);
  for (const auto& e : layers_) {
    BDLFI_CHECK_MSG(e.name != name, "duplicate layer name");
  }
  layers_.push_back({std::move(name), std::move(layer)});
  plans_.clear();
}

Tensor Network::forward(const Tensor& x, bool training,
                        const ActivationHook& hook) {
  BDLFI_CHECK_MSG(!layers_.empty(), "forward on empty network");
  if (!training) return forward_view(0, x, hook);
  // Training runs layer by layer. Unchecked layers run exactly the plain
  // forward — the bit-exact-parity guarantee of abft.h.
  const bool check = checked();
  Tensor act = x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    Layer& layer = *layers_[i].entry;
    if (check) {
      const tensor::abft::OpContext ctx = op_context(i);
      layer.set_compute_context(&ctx);
      act = layer.forward(act, /*training=*/true);
      layer.set_compute_context(nullptr);
    } else {
      act = layer.forward(act, /*training=*/true);
    }
    if (hook) hook(i, act);
  }
  return act;
}

Tensor Network::forward_from(std::size_t first_layer, const Tensor& act,
                             const ActivationHook& hook) {
  return forward_view(first_layer, act, hook);  // deep copy of the arena view
}

const Tensor& Network::forward_view(std::size_t first_layer, const Tensor& act,
                                    const ActivationHook& hook) {
  BDLFI_CHECK_MSG(first_layer <= layers_.size(),
                  "forward_view past the end of the network");
  if (first_layer == layers_.size()) return act;
  for (auto& plan : plans_) {
    if (plan->covers(first_layer, act.shape())) {
      return plan->run(*this, first_layer, act, hook);
    }
  }
  // Compile from the entry layer, so a replica whose first evals resume
  // mid-network gets a plan at once. A plan covers every later entry its
  // shapes pass through, so the ones it supersedes are dropped.
  std::unique_ptr<ExecutionPlan> plan =
      ExecutionPlan::compile(*this, act.shape(), first_layer);
  std::erase_if(plans_, [&](const std::unique_ptr<ExecutionPlan>& old) {
    return plan->supersedes(*old);
  });
  constexpr std::size_t kMaxPlans = 4;
  if (plans_.size() >= kMaxPlans) plans_.erase(plans_.begin());
  plans_.push_back(std::move(plan));
  return plans_.back()->run(*this, first_layer, act, hook);
}

const ExecutionPlan* Network::plan_for(const Shape& shape) const {
  for (const auto& plan : plans_) {
    if (plan->covers(0, shape)) return plan.get();
  }
  return nullptr;
}

bool Network::checked() const {
  return abft_.mode != tensor::abft::Mode::kOff ||
         (compute_plan_ != nullptr && !compute_plan_->empty());
}

tensor::abft::OpContext Network::op_context(std::size_t i) const {
  tensor::abft::OpContext ctx;
  ctx.config = abft_;
  // Layers outside a selective-placement restriction run unchecked (mode
  // off) but keep their flips: the fault still strikes, nothing notices.
  if (!abft_layer_checked(i)) ctx.config.mode = tensor::abft::Mode::kOff;
  ctx.stats = &abft_stats();
  if (compute_plan_ != nullptr) {
    const auto it = compute_plan_->find(i);
    if (it != compute_plan_->end()) ctx.flips = &it->second;
  }
  return ctx;
}

void Network::set_abft_layers(std::vector<std::size_t> layers) {
  std::sort(layers.begin(), layers.end());
  layers.erase(std::unique(layers.begin(), layers.end()), layers.end());
  abft_layers_ = std::move(layers);
}

bool Network::abft_layer_checked(std::size_t i) const {
  return abft_layers_.empty() ||
         std::binary_search(abft_layers_.begin(), abft_layers_.end(), i);
}

tensor::abft::Stats& Network::abft_stats() const {
  if (abft_stats_ == nullptr) {
    abft_stats_ = std::make_unique<tensor::abft::Stats>();
  }
  return *abft_stats_;
}

Tensor Network::backward(const Tensor& grad_logits) {
  Tensor grad = grad_logits;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    grad = layers_[i].entry->backward(grad);
  }
  return grad;
}

void Network::zero_grad() {
  for (auto& e : layers_) e.entry->zero_grad();
}

std::vector<ParamRef> Network::params() {
  std::vector<ParamRef> refs;
  for (auto& e : layers_) {
    e.entry->collect_params(e.name + ".", refs);
  }
  return refs;
}

std::vector<ParamRef> Network::buffers() {
  std::vector<ParamRef> refs;
  for (auto& e : layers_) {
    e.entry->collect_buffers(e.name + ".", refs);
  }
  return refs;
}

std::vector<CodeRef> Network::codes() {
  std::vector<CodeRef> refs;
  for (auto& e : layers_) {
    e.entry->collect_codes(e.name + ".", refs);
  }
  return refs;
}

std::vector<ParamRef> Network::state() {
  std::vector<ParamRef> refs = params();
  auto bufs = buffers();
  refs.insert(refs.end(), bufs.begin(), bufs.end());
  return refs;
}

std::int64_t Network::num_params() {
  std::int64_t n = 0;
  for (const auto& r : params()) n += r.value->numel();
  return n;
}

Network Network::clone() const {
  Network copy;
  for (const auto& e : layers_) {
    copy.layers_.push_back({e.name, e.entry->clone()});
  }
  // ABFT is a deployment property of the network, so replicas keep it; the
  // counters and any installed compute-fault plan are per-instance state and
  // start fresh (stats at zero, no plan). Compiled ExecutionPlans are not
  // copied: each replica compiles its own and therefore owns an independent
  // arena.
  copy.abft_ = abft_;
  copy.abft_layers_ = abft_layers_;
  return copy;
}

std::vector<std::int64_t> Network::predict(const Tensor& x) {
  return tensor::argmax_rows(forward(x, /*training=*/false));
}

double Network::accuracy(const Tensor& x,
                         const std::vector<std::int64_t>& labels) {
  const auto preds = predict(x);
  BDLFI_CHECK(preds.size() == labels.size());
  std::size_t hits = 0;
  for (std::size_t i = 0; i < preds.size(); ++i) {
    if (preds[i] == labels[i]) ++hits;
  }
  return preds.empty() ? 0.0
                       : static_cast<double>(hits) /
                             static_cast<double>(preds.size());
}

std::string Network::summary() {
  std::ostringstream out;
  std::int64_t total = 0;
  for (auto& e : layers_) {
    const std::int64_t n = e.entry->num_params();
    total += n;
    out << "  " << e.name << " (" << e.entry->kind() << "): " << n
        << " params\n";
  }
  out << "  total: " << total << " params\n";
  return out.str();
}

}  // namespace bdlfi::nn
