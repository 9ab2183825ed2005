#include "tensor/abft.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "fault/bits.h"
#include "obs/metrics.h"
#include "tensor/backend/backend.h"
#include "tensor/ops.h"
#include "util/check.h"

namespace bdlfi::tensor::abft {

namespace {

// Process-wide ABFT counters mirroring the per-network Stats, for live
// reporters and the JSONL metrics sink (EvalMetrics idiom).
struct AbftMetrics {
  obs::Counter& checks = obs::MetricsRegistry::global().counter("abft.checks");
  obs::Counter& detected =
      obs::MetricsRegistry::global().counter("abft.detected_rows");
  obs::Counter& corrected =
      obs::MetricsRegistry::global().counter("abft.corrected_rows");
  obs::Counter& injected =
      obs::MetricsRegistry::global().counter("abft.faults_injected");
  static AbftMetrics& get() {
    static AbftMetrics m;
    return m;
  }
};

}  // namespace

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::kOff: return "off";
    case Mode::kDetect: return "detect";
    case Mode::kCorrect: return "correct";
  }
  return "off";
}

bool parse_mode(const std::string& name, Mode* out) {
  if (name == "off") *out = Mode::kOff;
  else if (name == "detect") *out = Mode::kDetect;
  else if (name == "correct") *out = Mode::kCorrect;
  else return false;
  return true;
}

void Stats::reset() {
  checks.store(0, std::memory_order_relaxed);
  rows_checked.store(0, std::memory_order_relaxed);
  detected_rows.store(0, std::memory_order_relaxed);
  corrected_rows.store(0, std::memory_order_relaxed);
  faults_injected.store(0, std::memory_order_relaxed);
}

void gemm_checked(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
                  std::int64_t k, float alpha, const float* a,
                  std::int64_t lda, const float* b, std::int64_t ldb, float* c,
                  std::int64_t ldc, const OpContext& ctx,
                  std::int64_t elem_base) {
  gemm(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, 0.0f, c, ldc);
  check_product(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, c, ldc, ctx,
                elem_base);
}

void check_product(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
                   std::int64_t k, float alpha, const float* a,
                   std::int64_t lda, const float* b, std::int64_t ldb,
                   float* c, std::int64_t ldc, const OpContext& ctx,
                   std::int64_t elem_base) {
  if (m == 0 || n == 0) return;

  // Transient compute faults: flip the requested output bits between the raw
  // multiply and the checksum verification. `flips` addresses the op's full
  // output tensor; this call owns the [elem_base, elem_base + m*n) window.
  std::uint64_t injected = 0;
  if (ctx.flips != nullptr && !ctx.flips->empty()) {
    const std::int64_t numel = m * n;
    const auto lo = std::lower_bound(
        ctx.flips->begin(), ctx.flips->end(), elem_base,
        [](const std::pair<std::int64_t, int>& f, std::int64_t v) {
          return f.first < v;
        });
    for (auto it = lo; it != ctx.flips->end() && it->first < elem_base + numel;
         ++it) {
      const std::int64_t local = it->first - elem_base;
      float& cell = c[(local / n) * ldc + (local % n)];
      cell = fault::flip_bit(cell, it->second);
      ++injected;
    }
  }

  std::uint64_t detected = 0, corrected = 0;
  if (ctx.config.mode != Mode::kOff) {
    // The checksum reductions run through the active kernel table so SIMD
    // backends verify at SIMD speed; the double accumulation keeps them an
    // order of magnitude more precise than the float GEMM they audit.
    const backend::KernelBackend& be = backend::active();

    // Input checksums: w[l] = sum_j op(B)[l,j] and its magnitude companion,
    // one pass over B in double.
    std::vector<double> w(static_cast<std::size_t>(k), 0.0);
    std::vector<double> wabs(static_cast<std::size_t>(k), 0.0);
    be.abft_col_sums(trans_b, n, k, b, ldb, w.data(), wabs.data());

    const double eps = std::numeric_limits<float>::epsilon();
    const double tol_factor = ctx.config.tolerance_scale * eps *
                              static_cast<double>(k + 2);
    const double aalpha = std::fabs(static_cast<double>(alpha));
    for (std::int64_t i = 0; i < m; ++i) {
      double predicted = 0.0, magnitude = 0.0;
      be.abft_row_dot(trans_a ? a + i : a + i * lda, trans_a ? lda : 1,
                      w.data(), wabs.data(), k, &predicted, &magnitude);
      predicted *= static_cast<double>(alpha);
      magnitude *= aalpha;
      // Double accumulation of binary32 values cannot overflow, so a
      // non-finite row sum occurs iff the row holds a non-finite element —
      // and a non-finite row always fails the check (NaN compares would
      // poison the tolerance test otherwise: a NaN-producing exponent flip
      // must not slip through as "within tolerance").
      const double actual = be.abft_row_sum(c + i * ldc, n);
      const bool bad = !std::isfinite(actual) ||
                       std::fabs(actual - predicted) > tol_factor * magnitude;
      if (!bad) continue;
      if (ctx.config.mode == Mode::kCorrect) {
        // The inputs were never corrupted: one serial recompute of the row
        // restores it. Injected flips are transient and are NOT re-applied.
        be.gemm_rows(trans_a, trans_b, i, i + 1, n, k, alpha, a, lda, b, ldb,
                     0.0f, c, ldc);
        ++corrected;
      } else {
        ++detected;
      }
    }
  }

  if (ctx.stats != nullptr) {
    if (ctx.config.mode != Mode::kOff) {
      ctx.stats->checks.fetch_add(1, std::memory_order_relaxed);
      ctx.stats->rows_checked.fetch_add(static_cast<std::uint64_t>(m),
                                        std::memory_order_relaxed);
      if (detected > 0) {
        ctx.stats->detected_rows.fetch_add(detected,
                                           std::memory_order_relaxed);
      }
      if (corrected > 0) {
        ctx.stats->corrected_rows.fetch_add(corrected,
                                            std::memory_order_relaxed);
      }
    }
    if (injected > 0) {
      ctx.stats->faults_injected.fetch_add(injected,
                                           std::memory_order_relaxed);
    }
  }
  if (obs::enabled()) {
    AbftMetrics& metrics = AbftMetrics::get();
    if (ctx.config.mode != Mode::kOff) metrics.checks.add();
    if (detected > 0) metrics.detected.add(detected);
    if (corrected > 0) metrics.corrected.add(corrected);
    if (injected > 0) metrics.injected.add(injected);
  }
}

}  // namespace bdlfi::tensor::abft
