// Streaming and batch statistics used throughout campaign aggregation and
// MCMC diagnostics: Welford running moments, exact quantiles over retained
// samples, fixed-bin histograms, and autocorrelation estimation.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace bdlfi::util {

/// Numerically stable running mean/variance (Welford). O(1) memory.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 for n < 2.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  /// Standard error of the mean; 0 for n < 2.
  double sem() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Retains all samples; exact quantiles via nearest-rank with interpolation.
class SampleSet {
 public:
  void add(double x) { xs_.push_back(x); sorted_ = false; }
  void reserve(std::size_t n) { xs_.reserve(n); }
  std::size_t count() const { return xs_.size(); }
  double mean() const;
  double variance() const;
  double stddev() const;
  /// Linear-interpolated quantile, q in [0, 1]. Requires at least one sample.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  const std::vector<double>& samples() const { return xs_; }

 private:
  mutable std::vector<double> xs_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

/// Fixed-width histogram over [lo, hi]; out-of-range values clamp to the
/// boundary bins (fault-error distributions have hard [0,100] supports).
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);
  void add(double x);
  std::size_t bin_count(std::size_t i) const { return counts_.at(i); }
  std::size_t bins() const { return counts_.size(); }
  std::size_t total() const { return total_; }
  double bin_center(std::size_t i) const;
  /// Render as a compact multi-line ASCII bar chart (for bench output).
  std::string ascii(std::size_t width = 40) const;

 private:
  double lo_, hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

/// Biased (normalized by n) autocovariance-based autocorrelation at given lag.
double autocorrelation(const std::vector<double>& xs, std::size_t lag);

/// Effective sample size via Geyer's initial positive sequence estimator.
/// Returns n when the chain looks i.i.d.; far less when it mixes slowly.
double effective_sample_size(const std::vector<double>& xs);

/// Gelman–Rubin potential scale reduction factor (split-R-hat, rank-free
/// classic form) over m chains of equal length. Values near 1 indicate the
/// chains have mixed; the paper's "completeness" criterion thresholds this.
double gelman_rubin(const std::vector<std::vector<double>>& chains);
/// The same, over chains held elsewhere: the samples are not copied.
double gelman_rubin(std::span<const std::vector<double>* const> chains);

/// Spearman rank correlation with midranks for ties (Pearson correlation of
/// the rank vectors). Returns 0 for degenerate (constant) inputs.
double spearman_correlation(const std::vector<double>& a,
                            const std::vector<double>& b);

/// Two-sample Kolmogorov–Smirnov test: are `a` and `b` draws from the same
/// distribution? Used to check that BDLFI's sampled error distribution is
/// the same object traditional random FI measures — a stronger statement
/// than mean agreement.
struct KsResult {
  double statistic = 0.0;  // sup |F_a - F_b|
  /// Asymptotic p-value (Kolmogorov distribution; accurate for n ≳ 35).
  double p_value = 1.0;
};
KsResult ks_two_sample(std::vector<double> a, std::vector<double> b);

/// Geweke convergence z-score: compares the mean of the first `first_frac`
/// of a chain against the last `last_frac` using spectral-density-free
/// (batch-mean) variance estimates. |z| >~ 2 suggests non-convergence.
double geweke_z(const std::vector<double>& xs, double first_frac = 0.1,
                double last_frac = 0.5);

}  // namespace bdlfi::util
