#pragma once
// Metrics containers: counters, gauges and log-linear (HDR-style)
// histograms, collected in an insertion-ordered MetricsRegistry.
//
// Built for the single-writer hot path: Histogram::record() is a handful of
// integer operations on a fixed-size bucket array — no allocation, no
// locking, no atomics. Aggregation across writers is explicit: each thread
// owns its instance and merge() combines them afterwards (the service
// merges its per-worker registries this way). That split keeps the engines
// free of synchronization cost.
//
// Bucket layout and error bound. A histogram covers [2^min_exp, 2^max_exp)
// with S = 2^sub_bits linearly spaced sub-buckets per power of two, plus an
// underflow bucket (values < 2^min_exp, non-positive and NaN values
// included) and an overflow bucket (values >= 2^max_exp). Within the
// bucket [lo, hi) the width is lo/S at most, so hi <= lo * (1 + 1/S).
// quantile(q) reports the *upper bound* of the bucket holding rank
// ceil(q * count), clamped to the exact observed [min, max]: for an exact
// q-th percentile x of in-range samples, the reported value r satisfies
//
//     x <= r <= x * (1 + 1/S)        (relative error <= 2^-sub_bits,
//                                     3.125% at the default sub_bits = 5)
//
// count/sum/min/max/mean are exact regardless of bucketing.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

namespace hp::obs {

struct HistogramConfig {
  int min_exp = -20;  ///< values below 2^min_exp land in the underflow bucket
  int max_exp = 36;   ///< values >= 2^max_exp land in the overflow bucket
  int sub_bits = 5;   ///< 2^sub_bits linear sub-buckets per power of two

  friend bool operator==(const HistogramConfig&,
                         const HistogramConfig&) = default;
};

/// Log-linear histogram with exact count/sum/min/max. Single-writer;
/// merge() combines instances from different writers.
class Histogram {
 public:
  explicit Histogram(const HistogramConfig& config = {});

  void record(double value) noexcept {
    ++buckets_[index_of(value)];
    ++count_;
    sum_ += value;
    if (value < min_) min_ = value;
    if (value > max_) max_ = value;
  }

  /// Add `other`'s samples. Both histograms must share a config.
  void merge(const Histogram& other);

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  /// Exact smallest/largest recorded value; 0 when empty.
  [[nodiscard]] double min() const noexcept;
  [[nodiscard]] double max() const noexcept;
  [[nodiscard]] double mean() const noexcept;

  /// Upper bound of the bucket holding rank ceil(q * count), clamped to the
  /// observed [min, max] (see the error bound above). 0 when empty; q is
  /// clamped to [0, 1].
  [[nodiscard]] double quantile(double q) const noexcept;

  [[nodiscard]] const HistogramConfig& config() const noexcept {
    return config_;
  }
  /// Buckets including underflow ([0]) and overflow (last).
  [[nodiscard]] std::size_t num_buckets() const noexcept {
    return buckets_.size();
  }
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const noexcept {
    return buckets_[i];
  }
  /// Exclusive upper bound of bucket `i`: 2^min_exp for the underflow
  /// bucket, +infinity for the overflow bucket.
  [[nodiscard]] double bucket_upper(std::size_t i) const noexcept;

 private:
  [[nodiscard]] std::size_t index_of(double value) const noexcept;

  HistogramConfig config_;
  int sub_count_ = 0;  ///< 2^sub_bits
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;  ///< +inf sentinel while empty, see min()
  double max_ = 0.0;
};

/// Insertion-ordered collection of named metrics. References returned by
/// counter()/gauge()/histogram() stay valid for the registry's lifetime
/// (entries live in deques), so hot paths can look a metric up once and
/// write through the reference.
///
/// merge() semantics per family: counters add, gauges keep the maximum
/// (they record peaks: depths, high waters), histograms merge.
class MetricsRegistry {
 public:
  /// Find-or-create; counters start at 0 and only ever increase.
  [[nodiscard]] double& counter(std::string_view name);
  /// Find-or-create; gauges hold a last-written value.
  [[nodiscard]] double& gauge(std::string_view name);
  /// Find-or-create; `config` applies only on creation.
  [[nodiscard]] Histogram& histogram(std::string_view name,
                                     const HistogramConfig& config = {});

  [[nodiscard]] const double* find_counter(std::string_view name) const;
  [[nodiscard]] const double* find_gauge(std::string_view name) const;
  [[nodiscard]] const Histogram* find_histogram(std::string_view name) const;

  struct NamedValue {
    std::string name;
    double value = 0.0;
  };
  struct NamedHistogram {
    std::string name;
    Histogram histogram;
    NamedHistogram(std::string n, const HistogramConfig& config)
        : name(std::move(n)), histogram(config) {}
  };

  [[nodiscard]] const std::deque<NamedValue>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::deque<NamedValue>& gauges() const {
    return gauges_;
  }
  [[nodiscard]] const std::deque<NamedHistogram>& histograms() const {
    return histograms_;
  }

  [[nodiscard]] bool empty() const noexcept {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// Fold `other` in: counters add, gauges take the max, histograms merge
  /// (created here on demand with `other`'s config).
  void merge(const MetricsRegistry& other);

 private:
  std::deque<NamedValue> counters_;
  std::deque<NamedValue> gauges_;
  std::deque<NamedHistogram> histograms_;
};

}  // namespace hp::obs
