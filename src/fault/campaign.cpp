#include "fault/campaign.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <numeric>
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
                             const FaultTrialOptions& workload, const TrialHooks* hooks) {
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
  // same trial index replays the same trace under every fault class; one
  // stream runs through every cycle.
  SplitMix64 sm(campaign_seed ^ (trial * 0x2545f4914f6cdd1dULL));
  Xoshiro256 rng(sm.next());

  // Latest committed-or-posted version per block; each audit pins it to
  // the version recovery kept (0 = the block reads back as zeros).
  std::map<Addr, std::uint64_t> versions;
  Cycle now = 0;
  const auto expected = [&](Addr addr, std::uint64_t v) {
    return v == 0 ? zero_block() : trial_pattern_block(addr, v);
  };

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
    return got == expected(addr, it == versions.end() ? 0 : it->second);
  };

  // Runtime phases tolerate *typed* unavailable errors (wear retirements,
  // scrub quarantines, an earlier cycle's write-offs): degraded service is
  // a legal outcome, not a harness crash. Integrity violations before
  // anything was injected stay fatal; after injection they are detection.
  bool degraded = false;
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
      if (out.faults_injected > 0) {
        detected(std::string("runtime read raised: ") + e.what(), "read");
        return OpResult::kDetected;
      }
      throw;  // no fault injected yet: a genuine bug, let the caller see it
    } catch (const StatusError& e) {
      if (!is_unavailable(e.code())) throw;
      degraded = true;
      return OpResult::kUnavailable;
    }
  };
  // After each armed access: did the patrol scrub flag the mutation?
  const auto scrub_fired = [&]() -> bool {
    return injected_at.has_value() &&
           base->ft_stats().scrub_detected > scrub_detected_base;
  };

  // One cycle: returns true once a terminal verdict is set.
  const auto run_cycle = [&](std::uint64_t c) -> bool {
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
    try {
      base->flush_all_metadata();
    } catch (const StatusError& e) {
      // Only a later cycle can get here: the flush had to fetch metadata an
      // earlier cycle's recovery wrote off. Refusing the checkpoint with a
      // typed error is degraded service, and it ends the trial.
      if (!is_unavailable(e.code()) || out.faults_injected == 0) throw;
      out.verdict = Verdict::kSalvaged;
      out.detail = std::string("checkpoint flush refused: ") + e.what();
      return true;
    }
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
    // Cycle 0 draws the single-crash plan; later cycles fold their index
    // into the plan seed.
    const FaultPlan plan = FaultPlan::derive(
        cls, c == 0 ? campaign_seed : campaign_seed ^ (c * 0xd1b54a32d192ed03ULL), trial);
    FaultInjector injector(plan);
    mem->set_fault_injector(&injector);
    mem->crash();
    injector.apply_post_crash(*mem);
    // The injector stays installed through recovery: a nested recovery
    // crash, when armed, fires at the chosen persist boundary inside it.
    out.faults_injected += injector.events().size();
    const auto log_events = [&](const std::string& events) {
      if (!events.empty()) out.events += out.events.empty() ? events : "; " + events;
    };
    log_events(injector.event_summary());
    if (hooks != nullptr && hooks->post_crash) {
      std::string events;
      if (hooks->post_crash(*base, &events)) {
        if (!injected_at.has_value()) injected_at = accesses;
        ++out.faults_injected;
        log_events(events);
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
    out.attempts_per_cycle.push_back(r.attempt_count());
    out.recovery_seconds_per_cycle.push_back(r.seconds);
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
    degraded = degraded || cv.salvaged;
    out.detail = r.summary();  // the salvage report, if this trial ends salvaged

    // Full audit: every block the workload ever wrote must read back as an
    // authentic committed version in [checkpoint, latest]. A *typed*
    // unavailable error (quarantined/uncorrectable) is the legal degraded
    // outcome for a block recovery wrote off — refusing service is the
    // opposite of serving wrong plaintext.
    std::uint64_t unavailable_reads = 0;
    now = 0;
    for (auto& [addr, latest] : versions) {
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
        latest = 0;
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
      latest = v;  // later cycles may not roll behind the audited version
    }
    if (unavailable_reads > 0) {
      out.detail +=
          "; " + std::to_string(unavailable_reads) + " audit reads unavailable (typed)";
    }
    return false;
  };

  // Functional epilogue: the recovered tree must accept and verify fresh
  // writes (a recovery that leaves the SIT wedged is not a recovery).
  // Quarantined targets may refuse with a typed error; that is degraded
  // service, not a wedge. Returns true once a terminal verdict is set.
  const auto probe_writes = [&]() -> bool {
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
    return false;
  };

  const std::uint64_t cycles = std::max<std::uint64_t>(workload.cycles, 1);
  const bool terminal = [&]() {
    for (std::uint64_t c = 0; c < cycles; ++c) {
      out.cycles_run = c + 1;
      if (run_cycle(c)) return true;
    }
    return probe_writes();
  }();

  if (!out.attempts_per_cycle.empty()) {  // else no recovery completed: keep 1 / 0.0
    out.recovery_attempts = std::accumulate(out.attempts_per_cycle.begin(),
                                            out.attempts_per_cycle.end(), std::uint64_t{0});
    out.recovery_seconds = std::accumulate(out.recovery_seconds_per_cycle.begin(),
                                           out.recovery_seconds_per_cycle.end(), 0.0);
  }
  if (!terminal) {
    const bool retried = std::any_of(out.attempts_per_cycle.begin(),
                                     out.attempts_per_cycle.end(),
                                     [](std::uint64_t a) { return a > 1; });
    if (degraded) {
      out.verdict = Verdict::kSalvaged;
    } else if (retried) {
      out.verdict = Verdict::kRecoveredAfterRetry;
      out.detail = "converged after " + std::to_string(out.recovery_attempts) +
                   " recovery attempts";
      if (cycles > 1) out.detail += " over " + std::to_string(cycles) + " cycles";
    } else {
      out.verdict = Verdict::kRecovered;
      out.detail.clear();
    }
  }
  if (terminal && cycles > 1 && !out.detail.empty()) {
    out.detail = "cycle " + std::to_string(out.cycles_run - 1) + ": " + out.detail;
  }

  // Blast radius after the trial settled (whatever the verdict): retired
  // lines, quarantined subtree ranges, and resident data blocks a read
  // would now refuse.
  const QuarantineMap& qm = base->quarantine();
  out.blast_lines = qm.line_count();
  out.blast_subtrees = qm.range_count();
  if (!qm.empty()) {
    for (const Addr a : base->device().resident_blocks(0, cfg.nvm.capacity_bytes)) {
      if (qm.read_blocked(a)) ++out.blast_blocks;
    }
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
