// Host-side tracing for the benchmark's traced run.
//
// The simulator itself carries no tracing: the benchmark times its own
// calls into each module's public functions. Every timed call feeds a
// per-call host-time histogram; only a fixed sample of requests also keeps
// its full spans (name, start, end, parent, request id), written out as
// JSON lines when the run ends.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// Exact percentile `p` in [0, 100] of `v` (linear interpolation between
/// closest ranks); 0 for an empty sample.
double percentile(std::vector<double> v, double p);

/// The public calls the traced run times, one histogram each.
enum class Call : unsigned {
  kTraceNext,     // TraceSource::next_batch
  kCacheAccess,   // CacheHierarchy::access
  kCacheFlush,    // CacheHierarchy::flush_block
  kSecureRead,    // SecureMemory::read_block
  kSecureWrite,   // SecureMemory::write_block
  kRecover,       // System::crash_and_recover
  kResync,        // ground-truth resync after a crash (read_block replay)
  kLsmPut,        // LsmStore::put
  kLsmGet,        // LsmStore::get
  kLsmOpen,       // LsmStore::open
  kLsmJoin,       // LsmStore::compact_join
  kKvPlan,        // kv::count_serving_accesses
  kKvServe,         // kv::run_sharded_serving at jobs = 1
  kKvServeParallel, // kv::run_sharded_serving at jobs = min(4, nproc)
  kCount,
};

const char* call_name(Call c);

class Tracer {
 public:
  /// Spans are kept for at most this many requests.
  static constexpr std::size_t kMaxSampled = 2000;

  /// Keep the spans of every n-th request id.
  void set_sample_every(std::uint64_t n) { sample_every_ = n; }

  /// Disabled, time() is a plain call: the untraced run pays nothing.
  void set_enabled(bool on) { enabled_ = on; }

  /// Open request `id` (spans of one request share it). Sampling is by id,
  /// so the same requests are kept on every run of a seed.
  void begin_request(std::uint64_t id);
  void end_request();

  template <class F>
  decltype(auto) time(Call c, F&& f) {
    if (!enabled_) return f();
    Scope scope(*this, c);
    return f();
  }

  /// Host nanoseconds per call of `c`.
  const steins::LatencyHistogram& hist(Call c) const {
    return hist_[static_cast<unsigned>(c)];
  }
  double total_ns(Call c) const {
    const steins::LatencyHistogram& h = hist(c);
    return h.mean() * static_cast<double>(h.count());
  }

  std::size_t spans_kept() const { return spans_.size(); }
  /// Write the sampled spans as JSON lines; false if the file can't be opened.
  bool write_spans(const std::string& path) const;

 private:
  struct Span {
    std::uint64_t request;
    std::uint32_t id;
    std::uint32_t parent;  // 0 = none
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };

  class Scope {
   public:
    Scope(Tracer& t, Call c);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    Call c_;
    std::uint64_t start_;
    std::size_t span_ = 0;  // index + 1 into spans_ when sampled
  };

  std::size_t open_span(const char* name, std::uint64_t start);

  bool enabled_ = false;
  std::uint64_t sample_every_ = 1;
  std::array<steins::LatencyHistogram, static_cast<unsigned>(Call::kCount)> hist_{};
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  // stack of open span indices (+1)
  std::uint64_t request_ = 0;
  bool sampled_ = false;
  std::size_t sampled_requests_ = 0;
  std::uint64_t origin_ns_ = now_ns();
};

}  // namespace perfbench
