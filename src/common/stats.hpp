// Simulation statistics: latency histograms and accumulators, and a small
// fixed-format table printer used by the figure benches.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace steins {

/// Log-bucketed latency histogram (HDR-style): 16 sub-buckets per octave,
/// so every bucket is within ~6% of the true value. Mergeable, which is
/// what lets parallel KV clients keep private histograms and combine them
/// at the end of a run. Values at or above 2^32 cycles clamp into the last
/// bucket (max() stays exact).
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 4;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;  // 16
  static constexpr int kTopBits = 32;                              // clamp ceiling
  static constexpr std::size_t kBuckets = kSub + (kTopBits - kSubBits) * kSub;

  void add(std::uint64_t v) {
    ++count_;
    sum_ += v;
    if (v > max_) max_ = v;
    const std::size_t b = bucket_of(v);
    ++counts_[b];
    if (v > bucket_max_[b]) bucket_max_[b] = v;
  }

  /// Fold another histogram into this one (parallel clients merge here).
  /// Per-bucket observed maxima merge elementwise, so percentile
  /// interpolation stays bounded by values actually observed in the
  /// landing bucket even when shard histograms with different global
  /// maxima are combined.
  void merge(const LatencyHistogram& other) {
    count_ += other.count_;
    sum_ += other.sum_;
    if (other.max_ > max_) max_ = other.max_;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      counts_[i] += other.counts_[i];
      if (other.bucket_max_[i] > bucket_max_[i]) bucket_max_[i] = other.bucket_max_[i];
    }
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t max() const { return max_; }
  double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0;
  }

  /// Value at percentile `p` in [0, 100]: the rank is interpolated within
  /// its bucket's value range (exact below 16), and the top clamp bucket is
  /// bounded by the observed maximum, so outlier tails are reported rather
  /// than saturating at the 2^kTopBits ceiling.
  double percentile(double p) const;

  void reset() { *this = LatencyHistogram{}; }

  static std::size_t bucket_of(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int top = 63 - std::countl_zero(v);
    if (top >= kTopBits) return kBuckets - 1;
    const std::size_t sub =
        static_cast<std::size_t>(v >> (top - kSubBits)) & (kSub - 1);
    return kSub + static_cast<std::size_t>(top - kSubBits) * kSub + sub;
  }

  /// Midpoint of bucket `idx`'s value range (the percentile representative).
  static double bucket_mid(std::size_t idx);

  /// Inclusive bounds of bucket `idx`'s value range. Together the buckets
  /// tile [0, UINT64_MAX]: the last bucket is the >= 2^(kTopBits - 1) + ...
  /// clamp, so its upper bound is UINT64_MAX even though its nominal octave
  /// ends below 2^kTopBits.
  static std::uint64_t bucket_lower(std::size_t idx);
  static std::uint64_t bucket_upper(std::size_t idx);

  /// Samples recorded in bucket `idx`.
  std::uint64_t bucket_count(std::size_t idx) const { return counts_[idx]; }

  /// Largest value observed in bucket `idx` (0 when the bucket is empty).
  /// This is what bounds within-bucket percentile interpolation.
  std::uint64_t bucket_observed_max(std::size_t idx) const { return bucket_max_[idx]; }

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::array<std::uint64_t, kBuckets> bucket_max_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

/// Accumulates a stream of sample values (e.g. per-request latencies).
/// Mean/max are exact; the embedded histogram adds tail percentiles.
struct LatencyAccumulator {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  LatencyHistogram hist;

  void add(std::uint64_t v) {
    ++count;
    sum += v;
    if (v > max) max = v;
    hist.add(v);
  }
  /// Fold another accumulator in (per-worker locals merge at a barrier
  /// instead of sharing one accumulator under a lock).
  void merge(const LatencyAccumulator& other) {
    count += other.count;
    sum += other.sum;
    if (other.max > max) max = other.max;
    hist.merge(other.hist);
  }
  double mean() const { return count ? static_cast<double>(sum) / static_cast<double>(count) : 0.0; }
  double percentile(double p) const { return hist.percentile(p); }
  void reset() { *this = LatencyAccumulator{}; }
};

/// Escape a string for inclusion in a JSON string literal: quotes,
/// backslashes, and every control character (U+0000..U+001F) are escaped,
/// so arbitrary labels/paths survive the round trip.
std::string json_escape(const std::string& s);

/// A printable results table: row labels x column labels of doubles.
/// Used by every figure bench to emit the same rows/series the paper plots.
class ResultTable {
 public:
  ResultTable(std::string title, std::vector<std::string> columns);

  void add_row(const std::string& label, const std::vector<double>& values);

  /// Pretty-print (fixed width) to stdout; `precision` decimal places.
  void print(int precision = 3) const;

  /// Emit as CSV (e.g. for external plotting).
  std::string to_csv(int precision = 6) const;

  /// Emit as a JSON object:
  ///   {"title": ..., "columns": [...], "rows": [{"label": ..., "values": [...]}, ...]}
  /// Values use %.17g so a recorded table round-trips bit-exactly.
  std::string to_json() const;

  /// Append a geometric-mean row across all current rows (per column).
  void add_geomean_row(const std::string& label = "geomean");

  const std::vector<std::string>& columns() const { return columns_; }
  const std::vector<std::pair<std::string, std::vector<double>>>& rows() const { return rows_; }

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::pair<std::string, std::vector<double>>> rows_;
};

}  // namespace steins
