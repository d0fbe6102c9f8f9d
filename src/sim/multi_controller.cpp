#include "sim/multi_controller.hpp"

#include <algorithm>

#include "common/status.hpp"
#include "common/thread_pool.hpp"
#include "fault/fault.hpp"

namespace steins {

MultiControllerMemory::MultiControllerMemory(const SystemConfig& cfg, Scheme scheme,
                                             unsigned controllers,
                                             std::size_t interleave_bytes)
    : interleave_(interleave_bytes) {
  STEINS_CHECK(controllers >= 1, "MultiControllerMemory needs at least one controller");
  SystemConfig per_mc = cfg;
  per_mc.nvm.capacity_bytes = cfg.nvm.capacity_bytes / controllers;
  for (unsigned i = 0; i < controllers; ++i) {
    mcs_.push_back(make_scheme(scheme, per_mc));
    frontier_.push_back(0);
    injectors_.push_back(nullptr);
  }
  leased_ = std::make_unique<std::atomic<bool>[]>(controllers);
  for (unsigned i = 0; i < controllers; ++i) leased_[i].store(false);
}

void MultiControllerMemory::set_fault_injector(unsigned controller, FaultInjector* injector) {
  STEINS_CHECK(controller < mcs_.size(), "fault injector controller index out of range");
  injectors_[controller] = injector;
  mcs_[controller]->set_fault_injector(injector);
}

Cycle MultiControllerMemory::read_block(Addr addr, Cycle now, Block* out) {
  const unsigned mc = route(addr);
  const Cycle done = mcs_[mc]->read_block(local_addr(addr), now, out);
  frontier_[mc] = std::max(frontier_[mc], done);
  return done;
}

Cycle MultiControllerMemory::write_block(Addr addr, const Block& data, Cycle now) {
  const unsigned mc = route(addr);
  const Cycle done = mcs_[mc]->write_block(local_addr(addr), data, now);
  frontier_[mc] = std::max(frontier_[mc], done);
  return done;
}

RecoveryResult MultiControllerMemory::crash_and_recover_all(unsigned jobs) {
  // Each controller is a self-contained scheme instance over its own DIMM,
  // so recoveries are independent; run them on the pool and merge in
  // controller order afterwards — byte-identical to the sequential path.
  std::vector<RecoveryResult> results(mcs_.size());
  const auto recover_one = [&](std::size_t i) {
    auto& mc = mcs_[i];
    mc->crash();
    if (injectors_[i] != nullptr) injectors_[i]->apply_post_crash(*mc);
    results[i] = mc->recover();
  };
  if (jobs > 1 && mcs_.size() > 1) {
    ThreadPool pool(std::min<unsigned>(jobs, static_cast<unsigned>(mcs_.size())));
    pool.for_each_index(mcs_.size(), recover_one);
  } else {
    for (std::size_t i = 0; i < mcs_.size(); ++i) recover_one(i);
  }
  RecoveryResult combined;
  for (const RecoveryResult& r : results) {
    if (!r.ok()) return r;
    combined.nodes_recovered += r.nodes_recovered;
    combined.nvm_reads += r.nvm_reads;
    combined.nvm_writes += r.nvm_writes;
    // Controllers recover in parallel: the slowest bounds the system.
    combined.seconds = std::max(combined.seconds, r.seconds);
  }
  return combined;
}

Cycle MultiControllerMemory::max_frontier() const {
  return *std::max_element(frontier_.begin(), frontier_.end());
}

std::uint64_t MultiControllerMemory::total_nvm_writes() const {
  std::uint64_t total = 0;
  for (const auto& mc : mcs_) {
    const SecureMemory& m = *mc;
    // Device stats include recovery; use the scheme's runtime stats.
    total += m.stats().nvm_writes();
  }
  return total;
}

}  // namespace steins
