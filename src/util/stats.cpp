#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>

#include "util/check.h"

namespace bdlfi::util {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::sem() const {
  if (n_ < 2) return 0.0;
  return stddev() / std::sqrt(static_cast<double>(n_));
}

double SampleSet::mean() const {
  if (xs_.empty()) return 0.0;
  return std::accumulate(xs_.begin(), xs_.end(), 0.0) /
         static_cast<double>(xs_.size());
}

double SampleSet::variance() const {
  if (xs_.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (double x : xs_) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs_.size() - 1);
}

double SampleSet::stddev() const { return std::sqrt(variance()); }

void SampleSet::ensure_sorted() const {
  if (!sorted_) {
    std::sort(xs_.begin(), xs_.end());
    sorted_ = true;
  }
}

double SampleSet::quantile(double q) const {
  BDLFI_CHECK_MSG(!xs_.empty(), "quantile of empty SampleSet");
  BDLFI_CHECK(q >= 0.0 && q <= 1.0);
  ensure_sorted();
  if (xs_.size() == 1) return xs_[0];
  const double pos = q * static_cast<double>(xs_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs_[lo] * (1.0 - frac) + xs_[hi] * frac;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  BDLFI_CHECK(hi > lo && bins > 0);
}

void Histogram::add(double x) {
  const double t = (x - lo_) / (hi_ - lo_);
  auto idx = static_cast<std::ptrdiff_t>(t * static_cast<double>(counts_.size()));
  idx = std::clamp<std::ptrdiff_t>(idx, 0,
                                   static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

double Histogram::bin_center(std::size_t i) const {
  const double w = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + (static_cast<double>(i) + 0.5) * w;
}

std::string Histogram::ascii(std::size_t width) const {
  std::size_t peak = 0;
  for (auto c : counts_) peak = std::max(peak, c);
  std::ostringstream out;
  char buf[64];
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::size_t bar =
        peak == 0 ? 0 : counts_[i] * width / peak;
    std::snprintf(buf, sizeof buf, "%10.4g | ", bin_center(i));
    out << buf << std::string(bar, '#') << ' ' << counts_[i] << '\n';
  }
  return out.str();
}

double autocorrelation(const std::vector<double>& xs, std::size_t lag) {
  const std::size_t n = xs.size();
  if (lag >= n || n < 2) return 0.0;
  const double m = std::accumulate(xs.begin(), xs.end(), 0.0) /
                   static_cast<double>(n);
  double var = 0.0;
  for (double x : xs) var += (x - m) * (x - m);
  if (var <= 0.0) return lag == 0 ? 1.0 : 0.0;
  double cov = 0.0;
  for (std::size_t i = 0; i + lag < n; ++i) {
    cov += (xs[i] - m) * (xs[i + lag] - m);
  }
  return cov / var;
}

double effective_sample_size(const std::vector<double>& xs) {
  const std::size_t n = xs.size();
  if (n < 4) return static_cast<double>(n);
  // Geyer initial positive sequence: sum consecutive-lag-pair autocorrelations
  // while the pair sums stay positive.
  double rho_sum = 0.0;
  for (std::size_t lag = 1; lag + 1 < n; lag += 2) {
    const double pair = autocorrelation(xs, lag) + autocorrelation(xs, lag + 1);
    if (pair <= 0.0) break;
    rho_sum += pair;
  }
  const double ess = static_cast<double>(n) / (1.0 + 2.0 * rho_sum);
  return std::clamp(ess, 1.0, static_cast<double>(n));
}

double gelman_rubin(const std::vector<std::vector<double>>& chains) {
  std::vector<const std::vector<double>*> views;
  views.reserve(chains.size());
  for (const auto& c : chains) views.push_back(&c);
  return gelman_rubin(views);
}

double gelman_rubin(std::span<const std::vector<double>* const> chains) {
  const std::size_t m = chains.size();
  BDLFI_CHECK_MSG(m >= 2, "gelman_rubin needs at least two chains");
  std::size_t n = chains[0]->size();
  for (const auto* c : chains) n = std::min(n, c->size());
  BDLFI_CHECK_MSG(n >= 2, "gelman_rubin needs chains of length >= 2");

  std::vector<double> means(m), vars(m);
  double grand = 0.0;
  for (std::size_t j = 0; j < m; ++j) {
    RunningStats rs;
    for (std::size_t i = 0; i < n; ++i) rs.add((*chains[j])[i]);
    means[j] = rs.mean();
    vars[j] = rs.variance();
    grand += rs.mean();
  }
  grand /= static_cast<double>(m);

  double b = 0.0;  // between-chain variance * n
  for (double mu : means) b += (mu - grand) * (mu - grand);
  b *= static_cast<double>(n) / static_cast<double>(m - 1);

  double w = 0.0;  // within-chain variance
  for (double v : vars) w += v;
  w /= static_cast<double>(m);

  if (w <= 0.0) {
    // All chains constant: mixed iff they agree.
    return b <= 0.0 ? 1.0 : std::numeric_limits<double>::infinity();
  }
  const double nd = static_cast<double>(n);
  const double var_plus = (nd - 1.0) / nd * w + b / nd;
  return std::sqrt(var_plus / w);
}

namespace {

// Midranks: tied values share the average of the ranks they span.
std::vector<double> midranks(const std::vector<double>& v) {
  const std::size_t n = v.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
  std::vector<double> ranks(n);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && v[order[j + 1]] == v[order[i]]) ++j;
    const double mid = 0.5 * static_cast<double>(i + j) + 1.0;
    for (std::size_t k = i; k <= j; ++k) ranks[order[k]] = mid;
    i = j + 1;
  }
  return ranks;
}

}  // namespace

double spearman_correlation(const std::vector<double>& a,
                            const std::vector<double>& b) {
  BDLFI_CHECK(a.size() == b.size());
  if (a.size() < 2) return 0.0;
  const auto ra = midranks(a);
  const auto rb = midranks(b);
  RunningStats sa, sb;
  for (double r : ra) sa.add(r);
  for (double r : rb) sb.add(r);
  if (sa.variance() <= 0.0 || sb.variance() <= 0.0) return 0.0;
  double cov = 0.0;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    cov += (ra[i] - sa.mean()) * (rb[i] - sb.mean());
  }
  cov /= static_cast<double>(ra.size() - 1);
  return cov / (sa.stddev() * sb.stddev());
}

KsResult ks_two_sample(std::vector<double> a, std::vector<double> b) {
  BDLFI_CHECK(!a.empty() && !b.empty());
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  double d = 0.0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const double x = std::min(a[i], b[j]);
    while (i < a.size() && a[i] <= x) ++i;
    while (j < b.size() && b[j] <= x) ++j;
    d = std::max(d, std::abs(static_cast<double>(i) / na -
                             static_cast<double>(j) / nb));
  }
  KsResult result;
  result.statistic = d;
  // Asymptotic Kolmogorov distribution: Q(λ) = 2 Σ (-1)^{k-1} e^{-2k²λ²}.
  const double en = std::sqrt(na * nb / (na + nb));
  const double lambda = (en + 0.12 + 0.11 / en) * d;
  // The alternating series degenerates as λ → 0 where Q → 1 exactly.
  if (lambda < 1e-3) {
    result.p_value = 1.0;
    return result;
  }
  double q = 0.0;
  double sign = 1.0;
  for (int k = 1; k <= 100; ++k) {
    const double term = std::exp(-2.0 * k * k * lambda * lambda);
    q += sign * term;
    sign = -sign;
    if (term < 1e-12) break;
  }
  result.p_value = std::clamp(2.0 * q, 0.0, 1.0);
  return result;
}

double geweke_z(const std::vector<double>& xs, double first_frac,
                double last_frac) {
  const std::size_t n = xs.size();
  if (n < 20) return 0.0;
  const std::size_t na = std::max<std::size_t>(2, static_cast<std::size_t>(
                                                      first_frac * n));
  const std::size_t nb = std::max<std::size_t>(2, static_cast<std::size_t>(
                                                      last_frac * n));
  RunningStats a, b;
  for (std::size_t i = 0; i < na; ++i) a.add(xs[i]);
  for (std::size_t i = n - nb; i < n; ++i) b.add(xs[i]);
  const double denom = std::sqrt(a.variance() / static_cast<double>(na) +
                                 b.variance() / static_cast<double>(nb));
  if (denom <= 0.0) return 0.0;
  return (a.mean() - b.mean()) / denom;
}

}  // namespace bdlfi::util
