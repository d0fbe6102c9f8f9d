#include "nvm/write_queue.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "fault/fault.hpp"

namespace steins {

NvmChannel::NvmChannel(const SystemConfig& cfg, NvmDevice& dev)
    : dev_(dev),
      read_cycles_(cfg.nvm_read_cycles()),
      write_cycles_(cfg.nvm_write_cycles()),
      wtr_cycles_(cfg.ns_to_cycles(cfg.nvm.t_wtr_ns)),
      ring_(std::max<std::size_t>(cfg.nvm.write_queue_entries, 1)) {}

void NvmChannel::push_back(const Pending& w) {
  ring_[slot(size_)] = w;
  ++size_;
  ++bucket_count_[bucket_of(w.addr)];
}

void NvmChannel::pop_front() {
  --bucket_count_[bucket_of(ring_[head_].addr)];
  head_ = slot(1);
  --size_;
}

void NvmChannel::clear() {
  head_ = 0;
  size_ = 0;
  bucket_count_.fill(0);
}

const NvmChannel::Pending* NvmChannel::newest(Addr addr, bool need_tag) const {
  // No queued write shares the address's bucket: nothing to forward.
  if (bucket_count_[bucket_of(addr)] == 0) return nullptr;
  for (std::size_t i = size_; i-- > 0;) {
    const Pending& w = ring_[slot(i)];
    if (w.addr == addr && (w.has_tag || !need_tag)) return &w;
  }
  return nullptr;
}

void NvmChannel::issue_front(Cycle start) {
  const Pending& w = front();
  const std::size_t bank = bank_of(w.addr);
  const Cycle begin = std::max(start, free_at_[bank]);
  const Cycle done = begin + write_cycles_;
  dev_.write_block(w.addr, w.data);
  if (w.has_tag) dev_.write_tag(w.addr, w.tag);
  stats_.write_latency.add(done - w.enqueued);
  if (w.acc != nullptr) w.acc->add(done - w.birth);
  free_at_[bank] = done;
  last_was_write_[bank] = true;
  pop_front();
}

bool NvmChannel::queued(Addr addr) const { return newest(addr, false) != nullptr; }

bool NvmChannel::peek_queued_tag(Addr addr, std::uint64_t* tag) const {
  const Pending* w = newest(addr, true);
  if (w == nullptr) return false;
  if (tag != nullptr) *tag = w->tag;
  return true;
}

void NvmChannel::drain_until(Cycle t) {
  while (size_ > kDrainWatermark) {
    const std::size_t bank = bank_of(front().addr);
    const Cycle begin = std::max(front().enqueued, free_at_[bank]);
    if (begin >= t) break;  // this bank cannot start the write before t
    issue_front(begin);
  }
}

Cycle NvmChannel::drain_all(Cycle now) {
  while (size_ != 0) {
    issue_front(std::max(now, free_at_[bank_of(front().addr)]));
  }
  return std::max(now, device_free_at());
}

Cycle NvmChannel::crash_drain_all(Cycle now) {
  if (crash_hook_ == nullptr) return drain_all(now);
  std::vector<FaultInjector::QueuedWrite> entries;
  entries.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    const Pending& w = ring_[slot(i)];
    entries.push_back(FaultInjector::QueuedWrite{w.addr, w.data, w.has_tag, w.tag});
  }
  clear();
  crash_hook_->drain_crashed_queue(std::move(entries), dev_);
  return std::max(now, device_free_at());
}

Cycle NvmChannel::read(Addr addr, Cycle now, Block* out) {
  drain_until(now);
  // Store-forwarding: a read that hits a queued write is served from the
  // write queue (newest entry wins) without touching the array.
  if (const Pending* w = newest(addr, false)) {
    if (out != nullptr) *out = w->data;
    const Cycle done = now + kForwardCycles;
    stats_.read_latency.add(done - now);
    return done;
  }
  const std::size_t bank = bank_of(addr);
  Cycle begin = std::max(now, free_at_[bank]);
  if (last_was_write_[bank]) begin += wtr_cycles_;
  const Cycle done = begin + read_cycles_;
  const Block b = dev_.read_block(addr);
  if (out != nullptr) *out = b;
  free_at_[bank] = done;
  last_was_write_[bank] = false;
  stats_.read_latency.add(done - now);
  return done;
}

Cycle NvmChannel::write(Addr addr, const Block& data, Cycle now, LatencyAccumulator* acc,
                        Cycle birth, const std::uint64_t* tag) {
  drain_until(now);
  if (size_ == ring_.size()) {
    // Queue full: the producer stalls until one entry drains.
    ++stats_.write_queue_stalls;
    const std::size_t bank = bank_of(front().addr);
    issue_front(std::max(now, free_at_[bank]));
    now = std::max(now, free_at_[bank]);
  }
  push_back(Pending{addr, data, now, birth == 0 ? now : birth, acc, tag != nullptr,
                    tag != nullptr ? *tag : 0});
  return now;
}

}  // namespace steins
