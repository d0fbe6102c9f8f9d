#include "fault/campaign.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <sstream>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/stats.hpp"

namespace steins {

namespace {

/// Deterministic per-(block, version) plaintext so an audit can tell from
/// the content alone WHICH committed version a block rolled back to.
Block trial_pattern_block(Addr addr, std::uint64_t version) {
  Block b = zero_block();
  std::memcpy(b.data(), &addr, 8);
  std::memcpy(b.data() + 8, &version, 8);
  const std::uint64_t mix = version * 0x9e3779b97f4a7c15ULL ^ addr;
  std::memcpy(b.data() + 16, &mix, 8);
  return b;
}

std::uint64_t pattern_version(const Block& b) {
  std::uint64_t v = 0;
  std::memcpy(&v, b.data() + 8, 8);
  return v;
}

}  // namespace

std::string classify_detect_layer(const std::string& detail) {
  const auto has = [&](const char* needle) {
    return detail.find(needle) != std::string::npos;
  };
  if (has("LInc") || has("cache-tree") || has("root mismatch") || has("replay")) {
    return "recovery-linc";
  }
  if (has("HMAC") || has("hmac") || has("tamper") || has("parent verification") ||
      has("matched no counter")) {
    return "recovery-hmac";
  }
  return "recovery";
}

std::vector<SchemeSpec> campaign_schemes(CounterMode mode) {
  if (mode == CounterMode::kSplit) {
    return {{Scheme::kSteins, CounterMode::kSplit, scheme_name(Scheme::kSteins, mode)}};
  }
  return {
      {Scheme::kAnubis, mode, scheme_name(Scheme::kAnubis, mode)},
      {Scheme::kStar, mode, scheme_name(Scheme::kStar, mode)},
      {Scheme::kScue, mode, scheme_name(Scheme::kScue, mode)},
      {Scheme::kSteins, mode, scheme_name(Scheme::kSteins, mode)},
  };
}

TrialOutcome run_fault_trial(const SchemeSpec& spec, FaultClass cls,
                             std::uint64_t campaign_seed, std::uint64_t trial,
                             const FaultTrialOptions& workload) {
  return run_fault_trial_hooked(spec, cls, campaign_seed, trial, workload, nullptr);
}

TrialOutcome run_fault_trial_hooked(const SchemeSpec& spec, FaultClass cls,
                                    std::uint64_t campaign_seed, std::uint64_t trial,
                                    const FaultTrialOptions& workload,
                                    const TrialHooks* hooks) {
  TrialOutcome out;
  out.trial = trial;
  out.cls = cls;
  out.scheme = spec.label;

  SystemConfig cfg = default_config();
  cfg.nvm.capacity_bytes = workload.capacity_mb << 20;
  cfg.secure.metadata_cache.size_bytes = workload.mcache_kb * 1024;
  cfg.counter_mode = spec.mode;
  cfg.secure.ft = workload.ft;
  cfg.nvm.endurance_mean_writes = workload.endurance_mean_writes;
  cfg.nvm.endurance_sigma_writes = workload.endurance_sigma_writes;
  cfg.nvm.wear_seed = campaign_seed ^ (trial * 0x9e3779b97f4a7c15ULL) ^ 0x77ea7ULL;
  if (workload.remap_pool_lines.has_value()) {
    cfg.nvm.remap_pool_lines = *workload.remap_pool_lines;
  }
  std::unique_ptr<SecureMemory> mem = make_scheme(spec.scheme, cfg);
  auto* base = dynamic_cast<SecureMemoryBase*>(mem.get());

  // The workload stream is seeded independently of the fault plan so the
  // same trial index replays the same trace under every fault class.
  SplitMix64 sm(campaign_seed ^ (trial * 0x2545f4914f6cdd1dULL));
  Xoshiro256 rng(sm.next());

  std::map<Addr, std::uint64_t> versions;  // latest committed-or-posted version
  Cycle now = 0;

  // Detection-latency clock: demand accesses since the injection point.
  std::uint64_t accesses = 0;
  std::optional<std::uint64_t> injected_at;
  const auto latency = [&]() -> std::uint64_t {
    return injected_at.has_value() ? accesses - *injected_at : 0;
  };
  const auto detected = [&](std::string detail, std::string layer) {
    out.verdict = Verdict::kDetected;
    out.detail = std::move(detail);
    out.detect_layer = std::move(layer);
    out.detect_latency = latency();
  };
  const auto silent = [&](std::string detail) {
    out.verdict = Verdict::kSilent;
    out.detail = std::move(detail);
  };
  // Blast radius after the trial settled (whatever the verdict): retired
  // lines, quarantined subtree ranges, and resident data blocks a read
  // would now refuse.
  const auto fill_blast = [&]() {
    const QuarantineMap& qm = base->quarantine();
    out.blast_lines = qm.line_count();
    out.blast_subtrees = qm.range_count();
    if (!qm.empty()) {
      for (const Addr a : base->device().resident_blocks(0, cfg.nvm.capacity_bytes)) {
        if (qm.read_blocked(a)) ++out.blast_blocks;
      }
    }
  };

  const auto pick_addr = [&]() -> Addr {
    return rng.below(workload.footprint_blocks) * kBlockSize;
  };
  const auto do_write = [&](Addr addr) {
    const std::uint64_t v = versions[addr] + 1;
    now = mem->write_block(addr, trial_pattern_block(addr, v), now);
    versions[addr] = v;  // committed only once the write was accepted
    ++accesses;
  };
  // Pre-crash reads must always verify: until something is injected, a
  // mismatch here is a harness or scheme bug, not a fault outcome.
  const auto do_read_check = [&](Addr addr) -> bool {
    const auto it = versions.find(addr);
    Block got;
    now = mem->read_block(addr, now, &got);
    ++accesses;
    const Block want =
        it == versions.end() ? zero_block() : trial_pattern_block(addr, it->second);
    return got == want;
  };

  // Runtime phases tolerate *typed* unavailable errors (wear retirements,
  // scrub quarantines): degraded service during the run is a legal outcome,
  // not a harness crash. Integrity violations before anything was injected
  // stay fatal (scored silent below); after injection they are detection.
  bool runtime_degraded = false;
  std::uint64_t scrub_detected_base = 0;
  enum class OpResult { kOk, kMismatch, kDetected, kUnavailable };
  const auto run_op = [&](Addr addr, bool write) -> OpResult {
    try {
      if (write) {
        do_write(addr);
        return OpResult::kOk;
      }
      return do_read_check(addr) ? OpResult::kOk : OpResult::kMismatch;
    } catch (const IntegrityViolation& e) {
      if (injected_at.has_value()) {
        detected(std::string("runtime read raised: ") + e.what(), "read");
        return OpResult::kDetected;
      }
      throw;  // no fault armed yet: a genuine bug, let the caller see it
    } catch (const StatusError& e) {
      if (!is_unavailable(e.code())) throw;
      runtime_degraded = true;
      return OpResult::kUnavailable;
    }
  };
  // After each armed access: did the patrol scrub flag the mutation?
  const auto scrub_fired = [&]() -> bool {
    return injected_at.has_value() &&
           base->ft_stats().scrub_detected > scrub_detected_base;
  };

  const bool done = [&]() -> bool {  // true = verdict already set
    // Phase 1: mixed traffic, then a full metadata flush — the checkpoint.
    // Everything written before it is durably committed; recovery may not
    // roll any block back past its checkpoint version.
    for (std::uint64_t i = 0; i < workload.ops; ++i) {
      if (i == workload.ops / 2 && hooks != nullptr && hooks->mid_workload) {
        base->flush_all_metadata();  // the adversary's recording point
        hooks->mid_workload(*base);
      }
      const Addr addr = pick_addr();
      const OpResult res = run_op(addr, rng.chance(0.75));
      if (res == OpResult::kMismatch) {
        silent("pre-checkpoint read mismatch");
        return true;
      }
      if (res == OpResult::kDetected) return true;
    }
    base->flush_all_metadata();
    const std::map<Addr, std::uint64_t> checkpoint_flush = versions;
    if (hooks != nullptr && hooks->after_checkpoint) hooks->after_checkpoint(*base);

    // Phase 2: a dirty burst that the crash will interrupt — cached
    // metadata, queued persists, and ADR-resident tracking state all in
    // flight. Runtime adversary mutations (mid_burst) land here; a patrol
    // scrub epoch or a demand read may catch them before the crash does.
    for (std::uint64_t i = 0; i < workload.ops / 2; ++i) {
      if (hooks != nullptr && hooks->mid_burst && !injected_at.has_value()) {
        scrub_detected_base = base->ft_stats().scrub_detected;
        if (hooks->mid_burst(*base, i)) {
          injected_at = accesses;
          out.faults_injected = 1;
        }
      }
      const Addr addr = pick_addr();
      const OpResult res = run_op(addr, rng.chance(0.9));
      if (res == OpResult::kMismatch) {
        silent("pre-crash read mismatch");
        return true;
      }
      if (res == OpResult::kDetected) return true;
      if (scrub_fired()) {
        detected("patrol scrub flagged the mutated line", "scrub");
        return true;
      }
    }

    // Crash with the fault plan armed; post-crash media faults follow, then
    // any adversarial post-crash mutation (replay / forgery / tearing).
    const FaultPlan plan = FaultPlan::derive(cls, campaign_seed, trial);
    FaultInjector injector(plan);
    mem->set_fault_injector(&injector);
    mem->crash();
    injector.apply_post_crash(*mem);
    // The injector stays installed through recovery: a nested recovery
    // crash, when armed, fires at the chosen persist boundary inside it.
    out.faults_injected += injector.events().size();
    out.events = injector.event_summary();
    if (hooks != nullptr && hooks->post_crash) {
      std::string events;
      if (hooks->post_crash(*base, &events)) {
        if (!injected_at.has_value()) injected_at = accesses;
        ++out.faults_injected;
        if (!events.empty()) {
          out.events += out.events.empty() ? events : "; " + events;
        }
      }
    }

    // The audit window: [checkpoint, latest] for fault campaigns (a posted
    // write the crash destroyed was never acknowledged as durable), exactly
    // latest under hooks->strict_window (the adversary trials drain the
    // queue intact, so a rollback to any older version must be caught).
    const std::map<Addr, std::uint64_t>& checkpoint =
        (hooks != nullptr && hooks->strict_window) ? versions : checkpoint_flush;

    if (workload.recovery_crash_boundary != 0) {
      injector.arm_recovery_crash(workload.recovery_crash_boundary,
                                  workload.recovery_crash_rearm);
    }
    RecoveryResult r;
    try {
      r = recover_with_retry(*mem, &injector, workload.retry_policy);
    } catch (const IntegrityViolation& e) {
      mem->set_fault_injector(nullptr);
      detected(std::string("recovery raised: ") + e.what(), "recovery");
      return true;
    } catch (const std::exception& e) {
      mem->set_fault_injector(nullptr);
      silent(std::string("recovery crashed: ") + e.what());
      return true;
    }
    mem->set_fault_injector(nullptr);
    out.recovery_attempts = r.attempt_count();
    out.recovery_seconds = r.seconds;
    out.resume_cursor = r.resume_cursor;
    CrashVerdict cv;
    cv.faulted = cls != FaultClass::kNone || hooks != nullptr;
    if (classify_recovery(r, &cv)) {
      out.verdict = cv.verdict(spec.scheme);
      if (out.verdict == Verdict::kDetected) {
        detected(std::move(cv.detail),
                 r.supported ? classify_detect_layer(r.attack_detail) : "unsupported");
      } else {
        out.detail = std::move(cv.detail);
      }
      return true;
    }
    bool degraded = cv.salvaged || runtime_degraded;
    std::uint64_t unavailable_reads = 0;

    // Full audit: every block the workload ever wrote must read back as an
    // authentic committed version in [checkpoint, latest]. A *typed*
    // unavailable error (quarantined/uncorrectable) is the legal degraded
    // outcome for a block recovery wrote off — refusing service is the
    // opposite of serving wrong plaintext.
    now = 0;
    for (const auto& [addr, latest] : versions) {
      Block got;
      try {
        now = mem->read_block(addr, now, &got);
        ++accesses;
      } catch (const IntegrityViolation& e) {
        detected(std::string("post-recovery read raised: ") + e.what(), "read");
        return true;
      } catch (const StatusError& e) {
        if (is_unavailable(e.code())) {
          degraded = true;
          ++unavailable_reads;
          continue;
        }
        silent(std::string("post-recovery read crashed: ") + e.what());
        return true;
      } catch (const std::exception& e) {
        silent(std::string("post-recovery read crashed: ") + e.what());
        return true;
      }
      const auto cp_it = checkpoint.find(addr);
      const std::uint64_t cp = cp_it == checkpoint.end() ? 0 : cp_it->second;
      if (got == zero_block()) {
        if (cp != 0) {
          silent("block " + std::to_string(addr / kBlockSize) +
                 " rolled back to zero past checkpoint v" + std::to_string(cp));
          return true;
        }
        continue;
      }
      const std::uint64_t v = pattern_version(got);
      if (v < std::max<std::uint64_t>(cp, 1) || v > latest ||
          got != trial_pattern_block(addr, v)) {
        silent("block " + std::to_string(addr / kBlockSize) +
               " read unauthentic state (decoded v" + std::to_string(v) + ", window [" +
               std::to_string(cp) + ", " + std::to_string(latest) + "])");
        return true;
      }
    }

    // Functional epilogue: the recovered tree must accept and verify fresh
    // writes (a recovery that leaves the SIT wedged is not a recovery).
    // Quarantined targets may refuse with a typed error; that is degraded
    // service, not a wedge.
    std::uint64_t probes = 0;
    for (const auto& [addr, latest] : versions) {
      (void)latest;
      if (++probes > 4) break;
      try {
        do_write(addr);
        Block got;
        now = mem->read_block(addr, now, &got);
        ++accesses;
        if (got != trial_pattern_block(addr, versions[addr])) {
          silent("post-recovery write/read mismatch at block " +
                 std::to_string(addr / kBlockSize));
          return true;
        }
      } catch (const IntegrityViolation& e) {
        detected(std::string("post-recovery write path raised: ") + e.what(), "read");
        return true;
      } catch (const StatusError& e) {
        if (is_unavailable(e.code())) {
          degraded = true;
          continue;
        }
        silent(std::string("post-recovery write path crashed: ") + e.what());
        return true;
      } catch (const std::exception& e) {
        silent(std::string("post-recovery write path crashed: ") + e.what());
        return true;
      }
    }

    if (degraded) {
      out.verdict = Verdict::kSalvaged;
      out.detail = r.summary();
      if (unavailable_reads > 0) {
        out.detail +=
            "; " + std::to_string(unavailable_reads) + " audit reads unavailable (typed)";
      }
      return true;
    }
    if (out.recovery_attempts > 1) {
      out.verdict = Verdict::kRecoveredAfterRetry;
      out.detail = "converged after " + std::to_string(out.recovery_attempts) +
                   " recovery attempts";
      return true;
    }
    out.verdict = Verdict::kRecovered;
    return true;
  }();
  (void)done;

  fill_blast();
  return out;
}

MulticycleOutcome run_multicycle_trial(const SchemeSpec& spec, FaultClass cls,
                                       std::uint64_t campaign_seed, std::uint64_t trial,
                                       std::uint64_t cycles,
                                       const FaultTrialOptions& workload,
                                       const MulticycleHooks* hooks) {
  MulticycleOutcome out;
  out.trial = trial;
  out.scheme = spec.label;

  SystemConfig cfg = default_config();
  cfg.nvm.capacity_bytes = workload.capacity_mb << 20;
  cfg.secure.metadata_cache.size_bytes = workload.mcache_kb * 1024;
  cfg.counter_mode = spec.mode;
  cfg.secure.ft = workload.ft;
  std::unique_ptr<SecureMemory> mem = make_scheme(spec.scheme, cfg);
  auto* base = dynamic_cast<SecureMemoryBase*>(mem.get());

  SplitMix64 sm(campaign_seed ^ (trial * 0x2545f4914f6cdd1dULL) ^ 0xC1C1E5ULL);
  Xoshiro256 rng(sm.next());
  std::map<Addr, std::uint64_t> versions;
  Cycle now = 0;
  std::string events;

  const auto pick_addr = [&]() -> Addr {
    return rng.below(workload.footprint_blocks) * kBlockSize;
  };
  const auto do_write = [&](Addr addr) {
    const std::uint64_t v = versions[addr] + 1;
    now = mem->write_block(addr, trial_pattern_block(addr, v), now);
    versions[addr] = v;
  };
  // Degraded service (typed unavailability from earlier cycles' quarantine)
  // is a legal steady state across cycles, never a trial abort.
  bool degraded = false;
  bool retried = false;
  const auto run_op = [&](Addr addr, bool write) -> bool {
    try {
      if (write) {
        do_write(addr);
      } else {
        Block got;
        now = mem->read_block(addr, now, &got);
      }
      return true;
    } catch (const StatusError& e) {
      if (!is_unavailable(e.code())) throw;
      degraded = true;
      return true;
    }
  };

  for (std::uint64_t c = 0; c < cycles; ++c) {
    out.cycles_run = c + 1;
    // Workload: mixed phase, checkpoint flush, dirty burst — same anatomy
    // as a single-cycle trial, continuing the same version history.
    try {
      for (std::uint64_t i = 0; i < workload.ops; ++i) run_op(pick_addr(), rng.chance(0.75));
      base->flush_all_metadata();
    } catch (const IntegrityViolation& e) {
      out.verdict = Verdict::kSilent;
      out.detail = "cycle " + std::to_string(c) + " workload raised: " + e.what();
      return out;
    }
    const std::map<Addr, std::uint64_t> checkpoint = versions;
    try {
      for (std::uint64_t i = 0; i < workload.ops / 2; ++i) run_op(pick_addr(), rng.chance(0.9));
    } catch (const IntegrityViolation& e) {
      out.verdict = Verdict::kSilent;
      out.detail = "cycle " + std::to_string(c) + " burst raised: " + e.what();
      return out;
    }

    // Crash under this cycle's fault plan; adversarial mutation follows.
    const FaultPlan plan = FaultPlan::derive(cls, campaign_seed, trial * 31 + c);
    FaultInjector injector(plan);
    mem->set_fault_injector(&injector);
    mem->crash();
    injector.apply_post_crash(*mem);
    out.faults_injected += injector.events().size();
    if (hooks != nullptr && hooks->post_crash) {
      std::string ev;
      if (hooks->post_crash(*base, c, &ev)) {
        ++out.faults_injected;
        if (!ev.empty()) events += (events.empty() ? "" : "; ") + ev;
      }
    }
    if (workload.recovery_crash_boundary != 0) {
      injector.arm_recovery_crash(workload.recovery_crash_boundary,
                                  workload.recovery_crash_rearm);
    }
    const RecoveryResult r = recover_with_retry(*mem, &injector, workload.retry_policy);
    mem->set_fault_injector(nullptr);
    out.attempts_per_cycle.push_back(r.attempt_count());
    out.recovery_seconds_per_cycle.push_back(r.seconds);
    if (r.attempt_count() > 1) retried = true;
    CrashVerdict cv;
    cv.faulted = cls != FaultClass::kNone || hooks != nullptr;
    if (classify_recovery(r, &cv)) {
      out.verdict = cv.verdict(spec.scheme);
      out.detail = "cycle " + std::to_string(c) + ": " + cv.detail;
      if (out.verdict == Verdict::kDetected && !events.empty()) {
        out.detail += " [" + events + "]";
      }
      return out;
    }
    degraded = degraded || cv.salvaged;

    // Audit: every written block serves an authentic version from
    // [checkpoint, latest] (or refuses with a typed error when degraded).
    for (const auto& [addr, latest] : versions) {
      Block got;
      try {
        now = mem->read_block(addr, now, &got);
      } catch (const IntegrityViolation& e) {
        out.verdict = Verdict::kDetected;
        out.detail = "cycle " + std::to_string(c) + " audit read raised: " + e.what();
        return out;
      } catch (const StatusError& e) {
        if (is_unavailable(e.code())) {
          degraded = true;
          continue;
        }
        out.verdict = Verdict::kSilent;
        out.detail = "cycle " + std::to_string(c) + " audit read crashed: " + e.what();
        return out;
      }
      const auto cp_it = checkpoint.find(addr);
      const std::uint64_t cp = cp_it == checkpoint.end() ? 0 : cp_it->second;
      const std::uint64_t v = got == zero_block() ? 0 : pattern_version(got);
      const bool ok = (v == 0 && cp == 0) ||
                      (v >= std::max<std::uint64_t>(cp, 1) && v <= latest &&
                       got == trial_pattern_block(addr, v));
      if (!ok) {
        out.verdict = Verdict::kSilent;
        out.detail = "cycle " + std::to_string(c) + " block " +
                     std::to_string(addr / kBlockSize) + " read unauthentic state (v" +
                     std::to_string(v) + ", window [" + std::to_string(cp) + ", " +
                     std::to_string(latest) + "])";
        return out;
      }
      // Pin the audited version: later cycles may not roll behind it.
      versions[addr] = std::max<std::uint64_t>(v, cp);
    }
  }

  out.verdict = degraded  ? Verdict::kSalvaged
                : retried ? Verdict::kRecoveredAfterRetry
                          : Verdict::kRecovered;
  if (out.verdict == Verdict::kRecoveredAfterRetry) {
    std::uint64_t total_attempts = 0;
    for (const std::uint64_t a : out.attempts_per_cycle) total_attempts += a;
    out.detail = std::to_string(out.cycles_run) + " cycles, " +
                 std::to_string(total_attempts) + " recovery attempts total";
  }
  return out;
}

std::vector<std::uint64_t> campaign_trials(const char* what, std::uint64_t trials,
                                           std::optional<std::uint64_t> only_trial) {
  if (only_trial.has_value()) return {*only_trial};
  if (trials == 0) {
    throw std::invalid_argument(std::string(what) +
                                " with 0 trials would report vacuous success; "
                                "pass --trials >= 1 or reproduce one index with --trial");
  }
  std::vector<std::uint64_t> list(trials);
  for (std::uint64_t t = 0; t < trials; ++t) list[t] = t;
  return list;
}

CampaignResult run_fault_campaign(const CampaignOptions& opts) {
  const std::vector<std::uint64_t> trials =
      campaign_trials("fault campaign", opts.trials, opts.only_trial);
  CampaignResult result;
  result.options = opts;
  if (result.options.schemes.empty()) {
    result.options.schemes = campaign_schemes(CounterMode::kGeneral);
  }
  if (result.options.classes.empty()) result.options.classes = all_fault_classes();
  const CampaignOptions& o = result.options;
  result.outcomes = schedule_campaign<TrialOutcome>(
      trials, o.schemes, o.jobs, [&](std::uint64_t trial, const SchemeSpec& spec) {
        const FaultClass cls = o.classes[trial % o.classes.size()];
        return run_fault_trial(spec, cls, o.seed, trial, o.workload);
      });
  return result;
}

VerdictCounts CampaignResult::cell(const std::string& scheme, FaultClass cls) const {
  VerdictCounts c;
  for (const TrialOutcome& o : outcomes) {
    if (o.scheme == scheme && o.cls == cls) c.add(o.verdict);
  }
  return c;
}

VerdictCounts CampaignResult::totals() const {
  VerdictCounts c;
  for (const TrialOutcome& o : outcomes) c.add(o.verdict);
  return c;
}

std::vector<const TrialOutcome*> CampaignResult::silent_outcomes() const {
  std::vector<const TrialOutcome*> out;
  for (const TrialOutcome& o : outcomes) {
    if (o.verdict == Verdict::kSilent) out.push_back(&o);
  }
  return out;
}

void CampaignResult::print(bool verbose, std::FILE* out) const {
  std::fprintf(out,
               "verdict matrix: detected/recovered/salvaged/SILENT per (scheme, fault class)\n");
  int label_w = 10;
  for (const SchemeSpec& s : options.schemes) {
    label_w = std::max(label_w, static_cast<int>(s.label.size()) + 2);
  }
  std::fprintf(out, "%-*s", label_w, "");
  for (const FaultClass cls : options.classes) {
    std::fprintf(out, " %17s", fault_class_name(cls));
  }
  std::fprintf(out, "\n");
  for (const SchemeSpec& s : options.schemes) {
    std::fprintf(out, "%-*s", label_w, s.label.c_str());
    for (const FaultClass cls : options.classes) {
      const VerdictCounts c = cell(s.label, cls);
      char buf[48];
      // Retried-but-converged counts as recovered in the matrix; the
      // summary line below breaks the re-entry outcomes out separately.
      std::snprintf(buf, sizeof buf, "%llu/%llu/%llu/%llu",
                    static_cast<unsigned long long>(c[Verdict::kDetected]),
                    static_cast<unsigned long long>(c.converged()),
                    static_cast<unsigned long long>(c[Verdict::kSalvaged]),
                    static_cast<unsigned long long>(c.failed()));
      std::fprintf(out, " %17s", buf);
    }
    std::fprintf(out, "\n");
  }
  const VerdictCounts all = totals();
  const std::uint64_t silent = all[Verdict::kSilent];
  const std::uint64_t retried = all[Verdict::kRecoveredAfterRetry];
  const std::uint64_t unrecoverable = all[Verdict::kUnrecoverable];
  std::fprintf(out,
               "\ntrials: %llu x %zu schemes  salvaged: %llu  silent-corruption: %llu\n",
               static_cast<unsigned long long>(
                   options.only_trial.has_value() ? 1 : options.trials),
               options.schemes.size(),
               static_cast<unsigned long long>(all[Verdict::kSalvaged]),
               static_cast<unsigned long long>(silent));
  if (retried > 0 || unrecoverable > 0) {
    std::fprintf(out, "re-entrant recovery: recovered-after-retry: %llu  unrecoverable: %llu\n",
                 static_cast<unsigned long long>(retried),
                 static_cast<unsigned long long>(unrecoverable));
  }
  if (unrecoverable > 0) {
    for (const TrialOutcome& o : outcomes) {
      if (o.verdict != Verdict::kUnrecoverable) continue;
      std::fprintf(out, "UNRECOVERABLE trial %llu scheme %s class %s: %s (%llu attempts)\n",
                   static_cast<unsigned long long>(o.trial), o.scheme.c_str(),
                   fault_class_name(o.cls), o.detail.c_str(),
                   static_cast<unsigned long long>(o.recovery_attempts));
    }
  }
  if (silent > 0 || verbose) {
    for (const TrialOutcome* o : silent_outcomes()) {
      std::fprintf(out, "SILENT trial %llu scheme %s class %s: %s\n  faults: %s\n",
                   static_cast<unsigned long long>(o->trial), o->scheme.c_str(),
                   fault_class_name(o->cls), o->detail.c_str(), o->events.c_str());
    }
  }
  if (verbose) {
    for (const TrialOutcome& o : outcomes) {
      std::fprintf(out, "trial %llu %s %s -> %s%s%s%s%s\n",
                   static_cast<unsigned long long>(o.trial), o.scheme.c_str(),
                   fault_class_name(o.cls), verdict_name(o.verdict),
                   o.detail.empty() ? "" : " (", o.detail.c_str(),
                   o.detail.empty() ? "" : ")",
                   o.events.empty() ? "" : (" faults: " + o.events).c_str());
    }
  }
}

std::string CampaignResult::to_json() const {
  std::ostringstream os;
  os << "{\"trials\": " << (options.only_trial.has_value() ? 1 : options.trials)
     << ", \"seed\": " << options.seed << ", \"jobs\": " << options.jobs;
  if (options.only_trial.has_value()) os << ", \"only_trial\": " << *options.only_trial;
  os << ",\n \"schemes\": [";
  for (std::size_t i = 0; i < options.schemes.size(); ++i) {
    os << (i ? ", " : "") << '"' << json_escape(options.schemes[i].label) << '"';
  }
  os << "],\n \"classes\": [";
  for (std::size_t i = 0; i < options.classes.size(); ++i) {
    os << (i ? ", " : "") << '"' << fault_class_name(options.classes[i]) << '"';
  }
  os << "],\n \"matrix\": [";
  bool first = true;
  for (const SchemeSpec& s : options.schemes) {
    for (const FaultClass cls : options.classes) {
      const VerdictCounts c = cell(s.label, cls);
      if (c.total() == 0) continue;
      os << (first ? "" : ",") << "\n  {\"scheme\": \"" << json_escape(s.label)
         << "\", \"class\": \"" << fault_class_name(cls)
         << "\", \"detected\": " << c[Verdict::kDetected]
         << ", \"recovered\": " << c[Verdict::kRecovered]
         << ", \"salvaged\": " << c[Verdict::kSalvaged]
         << ", \"silent_corruption\": " << c[Verdict::kSilent]
         << ", \"recovered_after_retry\": " << c[Verdict::kRecoveredAfterRetry]
         << ", \"unrecoverable\": " << c[Verdict::kUnrecoverable] << "}";
      first = false;
    }
  }
  const VerdictCounts all = totals();
  os << "\n ],\n \"salvaged_total\": " << all[Verdict::kSalvaged]
     << ",\n \"retried_total\": " << all[Verdict::kRecoveredAfterRetry]
     << ",\n \"unrecoverable_total\": " << all[Verdict::kUnrecoverable]
     << ",\n \"silent_total\": " << all[Verdict::kSilent] << ",\n \"silent_trials\": [";
  const auto silents = silent_outcomes();
  for (std::size_t i = 0; i < silents.size(); ++i) {
    const TrialOutcome* o = silents[i];
    os << (i ? "," : "") << "\n  {\"trial\": " << o->trial << ", \"scheme\": \""
       << json_escape(o->scheme) << "\", \"class\": \"" << fault_class_name(o->cls)
       << "\", \"detail\": \"" << json_escape(o->detail) << "\", \"events\": \""
       << json_escape(o->events) << "\"}";
  }
  os << "\n ]}\n";
  return os.str();
}

}  // namespace steins
