#include "fault/differential.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>

#include "common/rng.hpp"
#include "schemes/steins.hpp"
#include "secure/secure_memory.hpp"

namespace steins {

namespace {

/// Same shape as the campaign pattern: the plaintext alone names the block
/// and the committed version it carries.
Block diff_pattern_block(Addr addr, std::uint64_t version) {
  Block b = zero_block();
  std::memcpy(b.data(), &addr, 8);
  std::memcpy(b.data() + 8, &version, 8);
  const std::uint64_t mix = version * 0x9e3779b97f4a7c15ULL ^ addr;
  std::memcpy(b.data() + 16, &mix, 8);
  return b;
}

struct Instance {
  std::unique_ptr<SecureMemory> mem;
  SecureMemoryBase* base = nullptr;
  std::map<Addr, std::uint64_t> versions;
  std::uint64_t capacity_bytes = 0;
};

/// Build one scheme instance, drive the seeded workload (mixed phase, full
/// metadata flush checkpoint, dirty burst), and crash it mid-burst-dirty.
/// Both trial runs call this with identical options, so they crash holding
/// bit-identical durable images.
Instance build_crashed_instance(const SchemeSpec& spec, const DifferentialOptions& opt) {
  SystemConfig cfg = default_config();
  cfg.nvm.capacity_bytes = opt.capacity_mb << 20;
  cfg.secure.metadata_cache.size_bytes = opt.mcache_kb * 1024;
  cfg.counter_mode = spec.mode;

  Instance inst;
  inst.capacity_bytes = cfg.nvm.capacity_bytes;
  inst.mem = make_scheme(spec.scheme, cfg);
  inst.base = dynamic_cast<SecureMemoryBase*>(inst.mem.get());
  STEINS_CHECK(inst.base != nullptr, "differential harness drives SecureMemoryBase schemes");

  SplitMix64 sm(opt.seed ^ 0x2545f4914f6cdd1dULL);
  Xoshiro256 rng(sm.next());
  Cycle now = 0;
  const auto pick = [&]() -> Addr { return rng.below(opt.footprint_blocks) * kBlockSize; };
  const auto do_op = [&](double write_frac) {
    const Addr addr = pick();
    if (rng.chance(write_frac)) {
      const std::uint64_t v = inst.versions[addr] + 1;
      now = inst.mem->write_block(addr, diff_pattern_block(addr, v), now);
      inst.versions[addr] = v;
    } else {
      Block got;
      now = inst.mem->read_block(addr, now, &got);
      const auto it = inst.versions.find(addr);
      const Block want =
          it == inst.versions.end() ? zero_block() : diff_pattern_block(addr, it->second);
      STEINS_CHECK(got == want, "differential workload read mismatch before any crash");
    }
  };

  for (std::uint64_t i = 0; i < opt.ops; ++i) do_op(0.75);
  inst.base->flush_all_metadata();  // checkpoint: everything so far durable
  for (std::uint64_t i = 0; i < opt.ops / 2; ++i) do_op(0.9);
  inst.mem->crash();
  return inst;
}

/// What one post-recovery read served: either plaintext, or a typed error.
struct ReadProbe {
  enum class Kind { kOk, kUnavailable, kIntegrity } kind = Kind::kOk;
  Block data{};
  ErrorCode code = ErrorCode::kOk;
};

ReadProbe probe_read(SecureMemory& mem, Addr addr, Cycle& now) {
  ReadProbe p;
  try {
    now = mem.read_block(addr, now, &p.data);
  } catch (const IntegrityViolation&) {
    p.kind = ReadProbe::Kind::kIntegrity;
  } catch (const StatusError& e) {
    p.kind = ReadProbe::Kind::kUnavailable;
    p.code = e.code();
  }
  return p;
}

/// Settle an instance to a canonical durable image: drain the Steins NV
/// parent buffer to its parents (bounded by tree height), flush every dirty
/// cached node, then crash once more so the channel/ADR queue reaches the
/// device. After this, peek_block() sees the complete image.
void settle_durable(Instance& inst) {
  if (auto* st = dynamic_cast<SteinsMemory*>(inst.mem.get())) {
    Cycle t = 0;
    for (int round = 0; round < 16; ++round) {
      st->drain_nv_buffer(t);
      inst.base->flush_all_metadata();
      if (st->nv_buffer_entries() == 0) break;
    }
  } else {
    inst.base->flush_all_metadata();
  }
  inst.mem->crash();
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

/// Compare the durable images of a half-open address window bit-for-bit:
/// same resident set, same stored block, same ECC-colocated tags.
bool compare_region(Instance& a, Instance& b, Addr lo, Addr hi, const char* what,
                    std::string* divergence) {
  const std::vector<Addr> ra = a.mem->device().resident_blocks(lo, hi);
  const std::vector<Addr> rb = b.mem->device().resident_blocks(lo, hi);
  if (ra != rb) {
    *divergence = std::string(what) + ": resident sets differ (" +
                  std::to_string(ra.size()) + " vs " + std::to_string(rb.size()) +
                  " blocks)";
    return false;
  }
  for (const Addr addr : ra) {
    if (a.mem->device().peek_block(addr) != b.mem->device().peek_block(addr)) {
      *divergence = std::string(what) + ": block image differs at " + hex(addr);
      return false;
    }
    if (a.mem->device().read_tag(addr) != b.mem->device().read_tag(addr) ||
        a.mem->device().read_tag2(addr) != b.mem->device().read_tag2(addr)) {
      *divergence = std::string(what) + ": stored tag differs at " + hex(addr);
      return false;
    }
  }
  return true;
}

bool compare_quarantine(const Instance& a, const Instance& b, std::string* divergence) {
  const auto& qa = a.base->quarantine().entries();
  const auto& qb = b.base->quarantine().entries();
  if (qa.size() != qb.size()) {
    *divergence = "quarantine maps differ: " + std::to_string(qa.size()) + " vs " +
                  std::to_string(qb.size()) + " entries";
    return false;
  }
  for (std::size_t i = 0; i < qa.size(); ++i) {
    if (qa[i].lo != qb[i].lo || qa[i].hi != qb[i].hi || qa[i].reason != qb[i].reason ||
        qa[i].line != qb[i].line || qa[i].remapped != qb[i].remapped ||
        qa[i].rewritten != qb[i].rewritten) {
      *divergence = "quarantine entry " + std::to_string(i) + " differs at " + hex(qa[i].lo);
      return false;
    }
  }
  return true;
}

}  // namespace

DifferentialResult run_differential_trial(const SchemeSpec& spec,
                                          const DifferentialOptions& opt) {
  DifferentialResult res;

  Instance clean = build_crashed_instance(spec, opt);
  Instance trial = build_crashed_instance(spec, opt);
  STEINS_CHECK(clean.versions == trial.versions,
               "differential workload diverged before the crash");

  // Clean reference recovery, with a disarmed injector riding along so the
  // boundary census comes for free.
  const FaultPlan none = FaultPlan::derive(FaultClass::kNone, opt.seed, 0);
  FaultInjector clean_inj(none);
  clean.mem->set_fault_injector(&clean_inj);
  clean_inj.begin_recovery_attempt();
  res.clean = clean.mem->recover();
  res.total_boundaries = clean_inj.recovery_persists();
  clean.mem->set_fault_injector(nullptr);

  // Nested-crash recovery, re-entered by recover_with_retry.
  FaultInjector trial_inj(none);
  if (opt.boundary != 0) trial_inj.arm_recovery_crash(opt.boundary, opt.rearm);
  trial.mem->set_fault_injector(&trial_inj);
  res.crashed = recover_with_retry(*trial.mem, &trial_inj, opt.policy);
  trial.mem->set_fault_injector(nullptr);

  // Verdict fields first: a recovery that gave up or changed its verdict
  // under the nested crash is a divergence in its own right.
  if (res.crashed.recovery_gave_up) {
    res.divergence = "nested-crash recovery gave up: " + res.crashed.status.message();
    return res;
  }
  if (res.clean.attack_detected != res.crashed.attack_detected) {
    res.divergence = "attack_detected verdict differs across re-entry";
    return res;
  }
  if (res.clean.tracking_degraded != res.crashed.tracking_degraded) {
    res.divergence = "tracking_degraded verdict differs across re-entry";
    return res;
  }
  if (res.clean.status.ok() != res.crashed.status.ok()) {
    res.divergence = "recovery status differs: clean=" + res.clean.status.message() +
                     " crashed=" + res.crashed.status.message();
    return res;
  }

  // Served-plaintext sweep over every block the workload wrote: both runs
  // must serve the same bytes, or fail with the same *typed* error.
  {
    Cycle na = 0, nb = 0;
    for (const auto& [addr, version] : clean.versions) {
      (void)version;
      const ReadProbe pa = probe_read(*clean.mem, addr, na);
      const ReadProbe pb = probe_read(*trial.mem, addr, nb);
      if (pa.kind != pb.kind || pa.code != pb.code) {
        res.divergence = "read outcome differs at " + hex(addr);
        return res;
      }
      if (pa.kind == ReadProbe::Kind::kOk && pa.data != pb.data) {
        res.divergence = "served plaintext differs at " + hex(addr);
        return res;
      }
      if (pa.kind == ReadProbe::Kind::kIntegrity) {
        res.divergence = "post-recovery read raised integrity at " + hex(addr);
        return res;
      }
    }
  }

  if (!compare_quarantine(clean, trial, &res.divergence)) return res;

  // Durable-image digests: settle both to canonical images, then compare.
  settle_durable(clean);
  settle_durable(trial);
  if (!compare_region(clean, trial, 0, clean.capacity_bytes, "data region",
                      &res.divergence)) {
    return res;
  }
  // The SIT metadata region is only bit-comparable for schemes whose node
  // images are pure functions of content (generated counters: Steins, SCUE).
  // Anubis/STAR self-increment on every persist, so their images depend on
  // persist *history*, which legitimately differs across re-entry.
  if (spec.scheme == Scheme::kSteins || spec.scheme == Scheme::kScue) {
    const SitGeometry& geo = clean.mem->geometry();
    if (!compare_region(clean, trial, geo.meta_base(), geo.aux_base(), "metadata region",
                        &res.divergence)) {
      return res;
    }
  }

  res.converged = true;
  return res;
}

std::uint64_t count_recovery_boundaries(const SchemeSpec& spec,
                                        const DifferentialOptions& opt) {
  Instance inst = build_crashed_instance(spec, opt);
  FaultInjector inj(FaultPlan::derive(FaultClass::kNone, opt.seed, 0));
  inst.mem->set_fault_injector(&inj);
  inj.begin_recovery_attempt();
  const RecoveryReport report = inst.mem->recover();
  inst.mem->set_fault_injector(nullptr);
  STEINS_CHECK(report.status.ok(), "boundary census recovery must succeed");
  return inj.recovery_persists();
}

}  // namespace steins
