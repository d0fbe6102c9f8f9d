#include "tracer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

const char* call_name(Call c) {
  switch (c) {
    case Call::kTraceNext: return "trace.next_batch";
    case Call::kCacheAccess: return "cache.access";
    case Call::kCacheFlush: return "cache.flush_block";
    case Call::kSecureRead: return "secure.read_block";
    case Call::kSecureWrite: return "secure.write_block";
    case Call::kRecover: return "schemes.crash_and_recover";
    case Call::kResync: return "sim.resync";
    case Call::kLsmPut: return "kv.lsm.put";
    case Call::kLsmGet: return "kv.lsm.get";
    case Call::kLsmOpen: return "kv.lsm.open";
    case Call::kLsmJoin: return "kv.lsm.compact_join";
    case Call::kKvPlan: return "kv.plan";
    case Call::kKvServe: return "kv.serve";
    case Call::kKvServeParallel: return "kv.serve_parallel";
    case Call::kCount: break;
  }
  return "?";
}

std::size_t Tracer::open_span(const char* name, std::uint64_t start) {
  const auto parent = open_.empty() ? 0u : static_cast<std::uint32_t>(open_.back());
  spans_.push_back(Span{request_, static_cast<std::uint32_t>(spans_.size() + 1), parent, name,
                        start - origin_ns_, 0});
  open_.push_back(spans_.size());
  return spans_.size();
}

void Tracer::begin_request(std::uint64_t id) {
  request_ = id;
  sampled_ = enabled_ && id % sample_every_ == 0 && sampled_requests_ < kMaxSampled;
  if (!sampled_) return;
  ++sampled_requests_;
  open_span("request", now_ns());
}

void Tracer::end_request() {
  if (!sampled_) return;
  spans_[open_.back() - 1].end_ns = now_ns() - origin_ns_;
  open_.pop_back();
  sampled_ = false;
}

Tracer::Scope::Scope(Tracer& t, Call c) : t_(t), c_(c), start_(now_ns()) {
  if (t_.sampled_) span_ = t_.open_span(call_name(c), start_);
}

Tracer::Scope::~Scope() {
  const std::uint64_t end = now_ns();
  t_.hist_[static_cast<unsigned>(c_)].add(end - start_);
  if (span_ != 0) {
    t_.spans_[span_ - 1].end_ns = end - t_.origin_ns_;
    t_.open_.pop_back();
  }
}

bool Tracer::write_spans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"request\": %llu, \"span\": %u, \"parent\": %u, \"name\": \"%s\", "
                 "\"start_ns\": %llu, \"end_ns\": %llu}\n",
                 static_cast<unsigned long long>(s.request), s.id, s.parent, s.name,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
