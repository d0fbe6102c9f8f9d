#include "common/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>

namespace steins {

double LatencyHistogram::bucket_mid(std::size_t idx) {
  if (idx < kSub) return static_cast<double>(idx);  // exact buckets
  const std::size_t oct = (idx - kSub) / kSub;      // octave above kSubBits
  const std::size_t sub = (idx - kSub) % kSub;
  const int top = static_cast<int>(oct) + kSubBits;
  const std::uint64_t width = std::uint64_t{1} << (top - kSubBits);
  const std::uint64_t lower = (std::uint64_t{1} << top) + sub * width;
  return static_cast<double>(lower) + static_cast<double>(width - 1) / 2.0;
}

std::uint64_t LatencyHistogram::bucket_lower(std::size_t idx) {
  if (idx >= kBuckets) idx = kBuckets - 1;
  if (idx < kSub) return idx;  // exact buckets
  const std::size_t oct = (idx - kSub) / kSub;
  const std::size_t sub = (idx - kSub) % kSub;
  const int top = static_cast<int>(oct) + kSubBits;
  const std::uint64_t width = std::uint64_t{1} << (top - kSubBits);
  return (std::uint64_t{1} << top) + sub * width;
}

std::uint64_t LatencyHistogram::bucket_upper(std::size_t idx) {
  // The last bucket also absorbs everything bucket_of clamps from above.
  if (idx >= kBuckets - 1) return ~std::uint64_t{0};
  return bucket_lower(idx + 1) - 1;
}

double LatencyHistogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  if (p <= 0.0) return 0.0;
  if (p > 100.0) p = 100.0;
  // Rank of the requested percentile (1-based, nearest-rank definition).
  const double exact = std::ceil(static_cast<double>(count_) * p / 100.0);
  const std::uint64_t target = exact < 1.0 ? 1 : static_cast<std::uint64_t>(exact);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (counts_[i] == 0) continue;
    cum += counts_[i];
    if (cum >= target) {
      // Interpolate the rank within the bucket's value range, bounded
      // above by the largest value actually observed in THIS bucket (not
      // just the global maximum): after merging shard histograms with
      // different maxima, the global max may live in a later bucket and
      // would no longer bound a sub-maximal shard's top bucket, letting
      // the interpolation overshoot to the bucket's nominal ceiling.
      const double lo = static_cast<double>(bucket_lower(i));
      const double hi = std::min(static_cast<double>(bucket_upper(i)),
                                 static_cast<double>(bucket_max_[i]));
      if (hi <= lo) return std::min(lo, static_cast<double>(bucket_max_[i]));
      const std::uint64_t before = cum - counts_[i];
      const double frac =
          static_cast<double>(target - before) / static_cast<double>(counts_[i]);
      return lo + frac * (hi - lo);
    }
  }
  return static_cast<double>(max_);
}

ResultTable::ResultTable(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {}

void ResultTable::add_row(const std::string& label, const std::vector<double>& values) {
  assert(values.size() == columns_.size());
  rows_.emplace_back(label, values);
}

void ResultTable::add_geomean_row(const std::string& label) {
  if (rows_.empty()) return;
  std::vector<double> gm(columns_.size(), 0.0);
  for (const auto& [name, vals] : rows_) {
    (void)name;
    for (std::size_t c = 0; c < vals.size(); ++c) gm[c] += std::log(vals[c]);
  }
  for (auto& v : gm) v = std::exp(v / static_cast<double>(rows_.size()));
  rows_.emplace_back(label, gm);
}

void ResultTable::print(int precision) const {
  std::printf("== %s ==\n", title_.c_str());
  // Compute label column width.
  std::size_t lw = 10;
  for (const auto& [name, vals] : rows_) {
    (void)vals;
    if (name.size() > lw) lw = name.size();
  }
  std::printf("%-*s", static_cast<int>(lw + 2), "workload");
  for (const auto& c : columns_) std::printf("%14s", c.c_str());
  std::printf("\n");
  for (const auto& [name, vals] : rows_) {
    std::printf("%-*s", static_cast<int>(lw + 2), name.c_str());
    for (double v : vals) std::printf("%14.*f", precision, v);
    std::printf("\n");
  }
  std::printf("\n");
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default: {
        const auto u = static_cast<unsigned char>(c);
        if (u < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", u);
          out += buf;
        } else {
          out += c;
        }
      }
    }
  }
  return out;
}

std::string ResultTable::to_json() const {
  std::ostringstream os;
  char buf[64];
  os << "{\"title\": \"" << json_escape(title_) << "\", \"columns\": [";
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    os << (c ? ", " : "") << '"' << json_escape(columns_[c]) << '"';
  }
  os << "], \"rows\": [";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    const auto& [name, vals] = rows_[r];
    os << (r ? ", " : "") << "{\"label\": \"" << json_escape(name) << "\", \"values\": [";
    for (std::size_t c = 0; c < vals.size(); ++c) {
      // JSON has no NaN or infinity; a non-finite cell reads as null.
      std::snprintf(buf, sizeof(buf), "%.17g", vals[c]);
      os << (c ? ", " : "") << (std::isfinite(vals[c]) ? buf : "null");
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

std::string ResultTable::to_csv(int precision) const {
  std::ostringstream os;
  os << "workload";
  for (const auto& c : columns_) os << "," << c;
  os << "\n";
  char buf[64];
  for (const auto& [name, vals] : rows_) {
    os << name;
    for (double v : vals) {
      std::snprintf(buf, sizeof(buf), ",%.*f", precision, v);
      os << buf;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace steins
