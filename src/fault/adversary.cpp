#include "fault/adversary.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/stats.hpp"

namespace steins {

namespace {

/// Reserved quarantine-map region at the top of the address space is out of
/// the attacker's scope (mutating it is a different experiment: it would
/// test the qmap loader, not the replay defenses).
Addr attack_limit(const NvmDevice& dev) { return dev.address_limit() - (Addr{1} << 16); }

AdversarySnapshot::Line read_line(NvmDevice& dev, Addr addr) {
  return {dev.peek_block(addr), dev.read_tag(addr), dev.read_tag2(addr)};
}

bool same_line(const AdversarySnapshot::Line& a, const AdversarySnapshot::Line& b) {
  return a.block == b.block && a.tag == b.tag && a.tag2 == b.tag2;
}

/// Restore a line to its snapshot state — or to blank, modeling the
/// destructive erase of a line the snapshot never saw.
void restore_line(NvmDevice& dev, Addr addr, const AdversarySnapshot& snap) {
  const auto it = snap.lines.find(addr);
  if (it != snap.lines.end()) {
    dev.poke_block(addr, it->second.block);
    dev.write_tag(addr, it->second.tag);
    dev.write_tag2(addr, it->second.tag2);
  } else {
    dev.poke_block(addr, zero_block());
    dev.write_tag(addr, 0);
    dev.write_tag2(addr, 0);
  }
}

/// Resident lines in [lo, hi) whose current state differs from the
/// snapshot (including lines born after it). Sorted by address, so every
/// downstream pick is deterministic.
std::vector<Addr> changed_lines(SecureMemoryBase& mem, const AdversarySnapshot& snap,
                                Addr lo, Addr hi) {
  std::vector<Addr> out;
  NvmDevice& dev = mem.device();
  for (const Addr a : dev.resident_blocks(lo, hi)) {
    const auto it = snap.lines.find(a);
    if (it == snap.lines.end() || !same_line(read_line(dev, a), it->second)) {
      out.push_back(a);
    }
  }
  return out;
}

std::string hex_addr(Addr a) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(a));
  return buf;
}

std::string node_label(const SitGeometry& geo, Addr addr) {
  const NodeId id = geo.node_at(addr);
  return "L" + std::to_string(id.level) + "#" + std::to_string(id.index);
}

void append_event(std::string* events, const std::string& e) {
  if (events == nullptr) return;
  if (!events->empty()) *events += "; ";
  *events += e;
}

/// True when `node` lies in the subtree rooted at `root`.
bool in_subtree(const SitGeometry& geo, NodeId node, NodeId root) {
  if (node.level > root.level) return false;
  NodeId cur = node;
  while (cur.level < root.level) cur = geo.parent_of(cur);
  return cur.index == root.index;
}

/// Data byte range [lo, hi) covered by `root`'s subtree.
std::pair<Addr, Addr> subtree_data_span(const SitGeometry& geo, NodeId root) {
  std::uint64_t leaves_per = 1;
  for (unsigned l = 0; l < root.level; ++l) leaves_per *= kTreeArity;
  const std::uint64_t first_leaf = root.index * leaves_per;
  const std::uint64_t end_leaf =
      std::min<std::uint64_t>(first_leaf + leaves_per, geo.level_count(0));
  return {first_leaf * geo.leaf_coverage() * kBlockSize,
          end_leaf * geo.leaf_coverage() * kBlockSize};
}

bool rollback_one_node(SecureMemoryBase& mem, const std::vector<Addr>& candidates,
                       Xoshiro256& rng, const AdversarySnapshot& snap,
                       const char* what, std::string* events) {
  if (candidates.empty()) return false;
  const Addr addr = candidates[rng.below(candidates.size())];
  restore_line(mem.device(), addr, snap);
  append_event(events, std::string(what) + " " + node_label(mem.geometry(), addr) +
                           " @" + hex_addr(addr));
  return true;
}

/// Tear `addr` between its snapshot image (old) and current image (new) at
/// 8-byte word granularity: the mask of new words is never zero and never
/// all-ones, and the ECC-colocated tag counts as the last word.
void tear_line(NvmDevice& dev, Addr addr, const AdversarySnapshot& snap,
               Xoshiro256& rng) {
  const auto it = snap.lines.find(addr);
  const AdversarySnapshot::Line oldv =
      it != snap.lines.end() ? it->second : AdversarySnapshot::Line{};
  const AdversarySnapshot::Line newv = read_line(dev, addr);
  const unsigned mask = 1 + static_cast<unsigned>(rng.below(254));  // (0, 255)
  Block mixed = oldv.block;
  for (unsigned w = 0; w < kBlockSize / 8; ++w) {
    if ((mask >> w) & 1u) {
      std::memcpy(mixed.data() + w * 8, newv.block.data() + w * 8, 8);
    }
  }
  dev.poke_block(addr, mixed);
  dev.write_tag(addr, rng.below(2) ? newv.tag : oldv.tag);
  dev.write_tag2(addr, rng.below(2) ? newv.tag2 : oldv.tag2);
}

/// dirty->clean record forgery: erase the resident aux tracking lines
/// (offset records / shadow table / dirty bitmap). The recovered dirty set
/// then understates the real one, which the LInc sums (Steins) or the
/// cache-tree root (ASIT/STAR) must catch.
bool forge_dirty_to_clean(SecureMemoryBase& mem, std::string* events) {
  NvmDevice& dev = mem.device();
  const std::vector<Addr> aux =
      dev.resident_blocks(mem.geometry().aux_base(), attack_limit(dev));
  if (aux.empty()) return false;
  for (const Addr a : aux) dev.poke_block(a, zero_block());
  append_event(events, "erased " + std::to_string(aux.size()) + " aux tracking lines");
  return true;
}

/// clean->dirty record forgery, Steins: plant the offsets of persisted,
/// UNCHANGED (clean) nodes into empty record slots. Recovery must shrug
/// these off — a clean node contributes increment 0 (§III-H).
bool forge_clean_to_dirty_steins(SecureMemoryBase& mem, const AdversarySnapshot& snap,
                                 Xoshiro256& rng, std::string* events) {
  NvmDevice& dev = mem.device();
  const SitGeometry& geo = mem.geometry();
  const std::vector<Addr> aux = dev.resident_blocks(geo.aux_base(), attack_limit(dev));
  if (aux.empty()) return false;
  // Clean candidates: resident node lines identical to their snapshot.
  std::vector<std::uint32_t> clean_offsets;
  for (const Addr a : dev.resident_blocks(geo.meta_base(), geo.aux_base())) {
    const auto it = snap.lines.find(a);
    if (it != snap.lines.end() && same_line(read_line(dev, a), it->second)) {
      clean_offsets.push_back(geo.offset_of(geo.node_at(a)));
    }
  }
  if (clean_offsets.empty()) return false;
  int planted = 0;
  for (const Addr laddr : aux) {
    Block line = dev.peek_block(laddr);
    bool changed = false;
    for (std::size_t s = 0; s < kBlockSize / 4 && planted < 3; ++s) {
      std::uint32_t off;
      std::memcpy(&off, line.data() + s * 4, 4);
      if (off != 0) continue;
      off = clean_offsets[rng.below(clean_offsets.size())] + 1;
      std::memcpy(line.data() + s * 4, &off, 4);
      ++planted;
      changed = true;
    }
    if (changed) dev.poke_block(laddr, line);
    if (planted >= 3) break;
  }
  if (planted == 0) return false;
  append_event(events, "planted " + std::to_string(planted) + " forged record offsets");
  return true;
}

/// clean->dirty record forgery, STAR: set the dirty-bitmap bits of
/// unchanged nodes.
bool forge_clean_to_dirty_star(SecureMemoryBase& mem, const AdversarySnapshot& snap,
                               Xoshiro256& rng, std::string* events) {
  NvmDevice& dev = mem.device();
  const SitGeometry& geo = mem.geometry();
  std::vector<std::uint32_t> clean_offsets;
  for (const Addr a : dev.resident_blocks(geo.meta_base(), geo.aux_base())) {
    const auto it = snap.lines.find(a);
    if (it != snap.lines.end() && same_line(read_line(dev, a), it->second)) {
      clean_offsets.push_back(geo.offset_of(geo.node_at(a)));
    }
  }
  if (clean_offsets.empty()) return false;
  int planted = 0;
  for (int tries = 0; tries < 8 && planted < 3; ++tries) {
    const std::uint32_t off = clean_offsets[rng.below(clean_offsets.size())];
    const Addr laddr = geo.aux_base() + (off / (kBlockSize * 8)) * kBlockSize;
    Block line = dev.peek_block(laddr);
    const std::size_t bit = off % (kBlockSize * 8);
    if ((line[bit / 8] >> (bit % 8)) & 1u) continue;  // already dirty
    line[bit / 8] = static_cast<std::uint8_t>(line[bit / 8] | (1u << (bit % 8)));
    dev.poke_block(laddr, line);
    ++planted;
  }
  if (planted == 0) return false;
  append_event(events, "set " + std::to_string(planted) + " forged dirty-bitmap bits");
  return true;
}

}  // namespace

const char* adversary_scenario_name(AdversaryScenario s) {
  switch (s) {
    case AdversaryScenario::kNodeRollback:
      return "node-rollback";
    case AdversaryScenario::kSubtreeRollback:
      return "subtree-rollback";
    case AdversaryScenario::kNvBypassReplay:
      return "nv-bypass-replay";
    case AdversaryScenario::kRecordForgery:
      return "record-forgery";
    case AdversaryScenario::kTornRecord:
      return "torn-record";
    case AdversaryScenario::kDataReplay:
      return "data-replay";
    case AdversaryScenario::kWearOut:
      return "wear-out";
  }
  return "?";
}

std::optional<AdversaryScenario> parse_adversary_scenario(std::string_view name) {
  for (const AdversaryScenario s : all_adversary_scenarios()) {
    if (name == adversary_scenario_name(s)) return s;
  }
  if (name == "node") return AdversaryScenario::kNodeRollback;
  if (name == "subtree") return AdversaryScenario::kSubtreeRollback;
  if (name == "bypass") return AdversaryScenario::kNvBypassReplay;
  if (name == "forge" || name == "forgery") return AdversaryScenario::kRecordForgery;
  if (name == "torn") return AdversaryScenario::kTornRecord;
  if (name == "data" || name == "replay") return AdversaryScenario::kDataReplay;
  if (name == "wear") return AdversaryScenario::kWearOut;
  return std::nullopt;
}

const std::vector<AdversaryScenario>& all_adversary_scenarios() {
  static const std::vector<AdversaryScenario> kAll = {
      AdversaryScenario::kNodeRollback,   AdversaryScenario::kSubtreeRollback,
      AdversaryScenario::kNvBypassReplay, AdversaryScenario::kRecordForgery,
      AdversaryScenario::kTornRecord,     AdversaryScenario::kDataReplay,
      AdversaryScenario::kWearOut,
  };
  return kAll;
}

AdversaryPlan AdversaryPlan::derive(AdversaryScenario s, std::uint64_t campaign_seed,
                                    std::uint64_t trial) {
  // The same mixing shape as FaultPlan::derive, displaced by a scenario tag
  // so adversary streams never collide with fault streams.
  SplitMix64 sm(campaign_seed ^ (trial * 0x9e3779b97f4a7c15ULL) ^
                (static_cast<std::uint64_t>(s) << 56) ^ 0xadea5a11ULL);
  AdversaryPlan p;
  p.scenario = s;
  p.seed = sm.next();
  return p;
}

AdversarySnapshot snapshot_device(SecureMemoryBase& mem) {
  AdversarySnapshot snap;
  NvmDevice& dev = mem.device();
  const SitGeometry& geo = mem.geometry();
  const Addr cap = mem.config().nvm.capacity_bytes;
  const auto capture = [&](Addr lo, Addr hi) {
    for (const Addr a : dev.resident_blocks(lo, hi)) {
      snap.lines.emplace(a, read_line(dev, a));
    }
    // Lines carrying only a tag sidecar still matter to a replay.
    for (const Addr a : dev.resident_tags(lo, hi)) {
      snap.lines.emplace(a, read_line(dev, a));
    }
  };
  capture(0, cap);                          // user data
  capture(geo.meta_base(), geo.aux_base()); // SIT nodes
  capture(geo.aux_base(), attack_limit(dev));  // tracking regions
  return snap;
}

bool apply_adversary_post_crash(SecureMemoryBase& mem, Scheme scheme,
                                const AdversaryPlan& plan,
                                const AdversarySnapshot& snap, std::string* events) {
  NvmDevice& dev = mem.device();
  const SitGeometry& geo = mem.geometry();
  Xoshiro256 rng(plan.seed);
  const std::vector<Addr> changed_nodes =
      changed_lines(mem, snap, geo.meta_base(), geo.aux_base());

  switch (plan.scenario) {
    case AdversaryScenario::kNodeRollback:
      return rollback_one_node(mem, changed_nodes, rng, snap, "rollback node", events);

    case AdversaryScenario::kSubtreeRollback: {
      // Prefer an internal root: the whole-subtree replay is the consistent
      // stale state a single-node check cannot see. Fall back to a leaf
      // (node + its covered data lines).
      std::vector<Addr> internals;
      for (const Addr a : changed_nodes) {
        if (geo.node_at(a).level >= 1) internals.push_back(a);
      }
      const std::vector<Addr>& pool = internals.empty() ? changed_nodes : internals;
      if (pool.empty()) return false;
      const Addr root_addr = pool[rng.below(pool.size())];
      const NodeId root = geo.node_at(root_addr);
      std::size_t reverted = 0;
      for (const Addr a : changed_nodes) {
        if (in_subtree(geo, geo.node_at(a), root)) {
          restore_line(dev, a, snap);
          ++reverted;
        }
      }
      const auto [dlo, dhi] = subtree_data_span(geo, root);
      for (const Addr a : changed_lines(mem, snap, dlo, dhi)) {
        restore_line(dev, a, snap);
        ++reverted;
      }
      append_event(events, "rollback subtree " + node_label(geo, root_addr) + " (" +
                               std::to_string(reverted) + " lines)");
      return reverted > 0;
    }

    case AdversaryScenario::kNvBypassReplay: {
      // Replay around the NV parent buffer: target a node whose generated
      // parent counter is still parked there, so the stale image races the
      // buffered update. Schemes without a buffer degrade to node rollback.
      std::vector<Addr> buffered;
      for (const Addr a : changed_nodes) {
        if (mem.pending_parent_counter(geo.node_at(a)).has_value()) {
          buffered.push_back(a);
        }
      }
      const std::vector<Addr>& pool = buffered.empty() ? changed_nodes : buffered;
      return rollback_one_node(mem, pool, rng, snap,
                               buffered.empty() ? "rollback node (no buffered target)"
                                                : "rollback buffered node",
                               events);
    }

    case AdversaryScenario::kRecordForgery: {
      // Direction from the seed; clean->dirty planting needs a scheme whose
      // tracking entries an attacker can synthesize (Steins offsets, STAR
      // bitmap bits) — otherwise the erase direction applies.
      const bool clean_to_dirty = rng.below(2) == 1;
      if (clean_to_dirty && scheme == Scheme::kSteins) {
        if (forge_clean_to_dirty_steins(mem, snap, rng, events)) return true;
      }
      if (clean_to_dirty && scheme == Scheme::kStar) {
        if (forge_clean_to_dirty_star(mem, snap, rng, events)) return true;
      }
      if (forge_dirty_to_clean(mem, events)) return true;
      // No aux region in play (SCUE/WB): the forgery degrades to a replay.
      return rollback_one_node(mem, changed_nodes, rng, snap,
                               "rollback node (no aux region)", events);
    }

    case AdversaryScenario::kTornRecord: {
      std::vector<Addr> targets =
          changed_lines(mem, snap, geo.aux_base(), attack_limit(dev));
      // A multi-line tear needs at least two lines; top up from the node
      // region (a torn multi-line metadata update) when records are scarce.
      if (targets.size() < 2) {
        for (const Addr a : changed_nodes) {
          targets.push_back(a);
          if (targets.size() >= 3) break;
        }
      }
      if (targets.empty()) return false;
      const std::size_t count = std::min<std::size_t>(targets.size(), 2 + rng.below(2));
      // Tear a deterministic selection: shuffle-free, stride from the seed.
      const std::size_t start = rng.below(targets.size());
      for (std::size_t k = 0; k < count; ++k) {
        tear_line(dev, targets[(start + k) % targets.size()], snap, rng);
      }
      append_event(events, "tore " + std::to_string(count) + " of " +
                               std::to_string(targets.size()) + " record/meta lines");
      return true;
    }

    case AdversaryScenario::kDataReplay:
    case AdversaryScenario::kWearOut:
      return false;  // runtime scenarios: nothing to do at the crash
  }
  return false;
}

bool apply_data_replay(SecureMemoryBase& mem, const AdversaryPlan& plan,
                       const AdversarySnapshot& snap, std::string* events) {
  const std::vector<Addr> changed =
      changed_lines(mem, snap, 0, mem.config().nvm.capacity_bytes);
  if (changed.empty()) return false;
  Xoshiro256 rng(plan.seed);
  const Addr addr = changed[rng.below(changed.size())];
  restore_line(mem.device(), addr, snap);
  append_event(events,
               "replayed data block " + std::to_string(addr / kBlockSize) + " mid-run");
  return true;
}

std::vector<SchemeSpec> attack_schemes() {
  std::vector<SchemeSpec> schemes = campaign_schemes(CounterMode::kGeneral);
  schemes.push_back({Scheme::kWriteBack, CounterMode::kGeneral,
                     scheme_name(Scheme::kWriteBack, CounterMode::kGeneral)});
  return schemes;
}

AttackOutcome run_attack_trial(const SchemeSpec& spec, AdversaryScenario scenario,
                               std::uint64_t campaign_seed, std::uint64_t trial,
                               const FaultTrialOptions& workload) {
  const AdversaryPlan plan = AdversaryPlan::derive(scenario, campaign_seed, trial);
  FaultTrialOptions w = workload;
  TrialHooks hooks;
  hooks.strict_window = true;
  auto snap = std::make_shared<AdversarySnapshot>();
  // Record mid-phase-1, right after the extra flush the hook triggers: the
  // later checkpoint flush then persists acknowledged-durable updates the
  // adversary can try to replay around. Snapshotting at the checkpoint
  // itself would leave almost nothing changed on the media by crash time
  // (burst metadata stays cached), making most rollbacks vacuous no-ops.
  hooks.mid_workload = [snap](SecureMemoryBase& m) { *snap = snapshot_device(m); };

  switch (scenario) {
    case AdversaryScenario::kDataReplay: {
      // Arm a few accesses into the burst, then re-try on a stride until a
      // data line has actually advanced past the snapshot.
      const std::uint64_t trigger = 4 + plan.seed % 24;
      hooks.mid_burst = [snap, plan, trigger](SecureMemoryBase& m, std::uint64_t i) {
        if (i < trigger || (i - trigger) % 8 != 0) return false;
        return apply_data_replay(m, plan, *snap, nullptr);
      };
      break;
    }
    case AdversaryScenario::kWearOut:
      // Accelerated endurance on a tiny hot footprint with a spare pool too
      // small to absorb it: lines wear-level, then run to failure, and the
      // retirements flow through scrub/quarantine. The latency clock arms
      // at the first observed casualty.
      // Tuned so the DATA lines themselves run to failure within a trial:
      // schemes that cache metadata write little else to the media, and a
      // footprint the stream revisits ~30x at a ~24-write limit retires
      // lines under every scheme, not just the shadow-table-heavy ones.
      w.endurance_mean_writes = 24;
      w.endurance_sigma_writes = 4;
      w.remap_pool_lines = 4;
      w.footprint_blocks = 12;
      // Floor the op count: below ~384 phase-1 accesses the stream cannot
      // push any line past its limit and the scenario degenerates to a
      // no-op for every caller that shrinks the workload (tests do).
      w.ops = std::max<std::uint64_t>(w.ops, 384);
      hooks.mid_burst = [](SecureMemoryBase& m, std::uint64_t) {
        return m.device().stats().lines_worn_out > 0 ||
               m.ft_stats().lines_quarantined > 0;
      };
      break;
    default:
      hooks.post_crash = [snap, plan, scheme = spec.scheme](SecureMemoryBase& m,
                                                           std::string* ev) {
        return apply_adversary_post_crash(m, scheme, plan, *snap, ev);
      };
      break;
  }

  AttackOutcome out;
  out.scenario = scenario;
  out.trial = run_fault_trial(spec, FaultClass::kNone, campaign_seed, trial, w, &hooks);
  return out;
}

AttackCampaignResult run_attack_campaign(const AttackCampaignOptions& opts) {
  const std::vector<std::uint64_t> trials =
      campaign_trials("attack campaign", opts.trials, opts.only_trial);
  AttackCampaignResult result;
  result.options = opts;
  if (result.options.schemes.empty()) result.options.schemes = attack_schemes();
  if (result.options.scenarios.empty()) {
    result.options.scenarios = all_adversary_scenarios();
  }
  const AttackCampaignOptions& o = result.options;
  result.outcomes = schedule_campaign<AttackOutcome>(
      trials, o.schemes, o.jobs, [&](std::uint64_t trial, const SchemeSpec& spec) {
        const AdversaryScenario sc = o.scenarios[trial % o.scenarios.size()];
        return run_attack_trial(spec, sc, o.seed, trial, o.workload);
      });
  return result;
}

std::uint64_t percentile(const std::vector<std::uint64_t>& sorted, unsigned p) {
  if (sorted.empty()) return 0;
  const std::size_t idx = (static_cast<std::size_t>(p) * (sorted.size() - 1) + 50) / 100;
  return sorted[std::min(idx, sorted.size() - 1)];
}

AttackCell AttackCampaignResult::cell(const std::string& scheme,
                                      AdversaryScenario s) const {
  AttackCell c;
  for (const AttackOutcome& o : outcomes) {
    if (o.trial.scheme != scheme || o.scenario != s) continue;
    c.verdicts.add(o.trial.verdict);
    if (o.trial.verdict == Verdict::kDetected) {
      c.latencies.push_back(o.trial.detect_latency);
      ++c.layers[o.trial.detect_layer];
    }
    if (o.trial.faults_injected > 0) ++c.injected;
    c.blast_lines.push_back(o.trial.blast_lines + o.trial.blast_subtrees);
    c.blast_blocks.push_back(o.trial.blast_blocks);
  }
  std::sort(c.latencies.begin(), c.latencies.end());
  std::sort(c.blast_lines.begin(), c.blast_lines.end());
  std::sort(c.blast_blocks.begin(), c.blast_blocks.end());
  return c;
}

std::uint64_t AttackCampaignResult::silent_total() const {
  std::uint64_t n = 0;
  for (const AttackOutcome& o : outcomes) {
    if (o.trial.verdict == Verdict::kSilent) ++n;
  }
  return n;
}

std::vector<const AttackOutcome*> AttackCampaignResult::silent_outcomes() const {
  std::vector<const AttackOutcome*> out;
  for (const AttackOutcome& o : outcomes) {
    if (o.trial.verdict == Verdict::kSilent) out.push_back(&o);
  }
  return out;
}

void AttackCampaignResult::print(bool verbose, std::FILE* out) const {
  std::fprintf(out,
               "verdict matrix: detected/recovered/salvaged/SILENT per (scheme, scenario)\n");
  int label_w = 10;
  for (const SchemeSpec& s : options.schemes) {
    label_w = std::max(label_w, static_cast<int>(s.label.size()) + 2);
  }
  std::fprintf(out, "%-*s", label_w, "");
  for (const AdversaryScenario s : options.scenarios) {
    std::fprintf(out, " %17s", adversary_scenario_name(s));
  }
  std::fprintf(out, "\n");
  for (const SchemeSpec& spec : options.schemes) {
    std::fprintf(out, "%-*s", label_w, spec.label.c_str());
    for (const AdversaryScenario s : options.scenarios) {
      const VerdictCounts c = cell(spec.label, s).verdicts;
      char buf[48];
      // Attack trials arm no nested recovery crash: a retried convergence
      // folds into recovered and a give-up into the failure bucket.
      std::snprintf(buf, sizeof buf, "%llu/%llu/%llu/%llu",
                    static_cast<unsigned long long>(c[Verdict::kDetected]),
                    static_cast<unsigned long long>(c.converged()),
                    static_cast<unsigned long long>(c[Verdict::kSalvaged]),
                    static_cast<unsigned long long>(c.failed()));
      std::fprintf(out, " %17s", buf);
    }
    std::fprintf(out, "\n");
  }
  std::fprintf(out, "\ndetection latency (accesses injection -> check) and blast radius:\n");
  for (const SchemeSpec& spec : options.schemes) {
    for (const AdversaryScenario s : options.scenarios) {
      const AttackCell c = cell(spec.label, s);
      if (c.verdicts.total() == 0) continue;
      std::string layers;
      for (const auto& [layer, n] : c.layers) {
        layers += (layers.empty() ? "" : ",") + layer + ":" + std::to_string(n);
      }
      std::fprintf(out,
                   "  %-12s %-17s injected %llu/%llu  lat p50/p95/max %llu/%llu/%llu"
                   "  blast-lines p95 %llu  blast-blocks p95 %llu  [%s]\n",
                   spec.label.c_str(), adversary_scenario_name(s),
                   static_cast<unsigned long long>(c.injected),
                   static_cast<unsigned long long>(c.verdicts.total()),
                   static_cast<unsigned long long>(percentile(c.latencies, 50)),
                   static_cast<unsigned long long>(percentile(c.latencies, 95)),
                   static_cast<unsigned long long>(
                       c.latencies.empty() ? 0 : c.latencies.back()),
                   static_cast<unsigned long long>(percentile(c.blast_lines, 95)),
                   static_cast<unsigned long long>(percentile(c.blast_blocks, 95)),
                   layers.c_str());
    }
  }
  const std::uint64_t silent = silent_total();
  std::fprintf(out, "\ntrials: %llu x %zu schemes  silent-corruption: %llu\n",
               static_cast<unsigned long long>(
                   options.only_trial.has_value() ? 1 : options.trials),
               options.schemes.size(), static_cast<unsigned long long>(silent));
  if (silent > 0 || verbose) {
    for (const AttackOutcome* o : silent_outcomes()) {
      std::fprintf(out, "SILENT trial %llu scheme %s scenario %s: %s\n  events: %s\n",
                   static_cast<unsigned long long>(o->trial.trial),
                   o->trial.scheme.c_str(), adversary_scenario_name(o->scenario),
                   o->trial.detail.c_str(), o->trial.events.c_str());
    }
  }
  if (verbose) {
    for (const AttackOutcome& o : outcomes) {
      std::fprintf(out, "trial %llu %s %s -> %s layer=%s lat=%llu blast=%llu/%llu/%llu%s%s%s\n",
                   static_cast<unsigned long long>(o.trial.trial), o.trial.scheme.c_str(),
                   adversary_scenario_name(o.scenario), verdict_name(o.trial.verdict),
                   o.trial.detect_layer.empty() ? "-" : o.trial.detect_layer.c_str(),
                   static_cast<unsigned long long>(o.trial.detect_latency),
                   static_cast<unsigned long long>(o.trial.blast_lines),
                   static_cast<unsigned long long>(o.trial.blast_subtrees),
                   static_cast<unsigned long long>(o.trial.blast_blocks),
                   o.trial.detail.empty() ? "" : " (", o.trial.detail.c_str(),
                   o.trial.detail.empty() ? "" : ")");
    }
  }
}

std::string AttackCampaignResult::to_json() const {
  std::ostringstream os;
  os << "{\"trials\": " << (options.only_trial.has_value() ? 1 : options.trials)
     << ", \"seed\": " << options.seed << ", \"jobs\": " << options.jobs;
  if (options.only_trial.has_value()) os << ", \"only_trial\": " << *options.only_trial;
  os << ",\n \"schemes\": [";
  for (std::size_t i = 0; i < options.schemes.size(); ++i) {
    os << (i ? ", " : "") << '"' << json_escape(options.schemes[i].label) << '"';
  }
  os << "],\n \"scenarios\": [";
  for (std::size_t i = 0; i < options.scenarios.size(); ++i) {
    os << (i ? ", " : "") << '"' << adversary_scenario_name(options.scenarios[i]) << '"';
  }
  os << "],\n \"matrix\": [";
  bool first = true;
  for (const SchemeSpec& spec : options.schemes) {
    for (const AdversaryScenario s : options.scenarios) {
      const AttackCell c = cell(spec.label, s);
      const VerdictCounts& v = c.verdicts;
      if (v.total() == 0) continue;
      os << (first ? "" : ",") << "\n  {\"scheme\": \"" << json_escape(spec.label)
         << "\", \"scenario\": \"" << adversary_scenario_name(s)
         << "\", \"detected\": " << v[Verdict::kDetected] << ", \"recovered\": " << v.converged()
         << ", \"salvaged\": " << v[Verdict::kSalvaged] << ", \"silent_corruption\": " << v.failed()
         << ", \"injected\": " << c.injected
         << ",\n   \"detect_latency\": {\"p50\": " << percentile(c.latencies, 50)
         << ", \"p95\": " << percentile(c.latencies, 95)
         << ", \"max\": " << (c.latencies.empty() ? 0 : c.latencies.back()) << "}"
         << ",\n   \"blast_lines\": {\"p50\": " << percentile(c.blast_lines, 50)
         << ", \"p95\": " << percentile(c.blast_lines, 95)
         << ", \"max\": " << (c.blast_lines.empty() ? 0 : c.blast_lines.back()) << "}"
         << ",\n   \"blast_blocks\": {\"p50\": " << percentile(c.blast_blocks, 50)
         << ", \"p95\": " << percentile(c.blast_blocks, 95)
         << ", \"max\": " << (c.blast_blocks.empty() ? 0 : c.blast_blocks.back()) << "}"
         << ",\n   \"layers\": {";
      bool lf = true;
      for (const auto& [layer, n] : c.layers) {
        os << (lf ? "" : ", ") << '"' << json_escape(layer) << "\": " << n;
        lf = false;
      }
      os << "}}";
      first = false;
    }
  }
  os << "\n ],\n \"silent_total\": " << silent_total() << ",\n \"silent_trials\": [";
  const auto silents = silent_outcomes();
  for (std::size_t i = 0; i < silents.size(); ++i) {
    const AttackOutcome* o = silents[i];
    os << (i ? "," : "") << "\n  {\"trial\": " << o->trial.trial << ", \"scheme\": \""
       << json_escape(o->trial.scheme) << "\", \"scenario\": \""
       << adversary_scenario_name(o->scenario) << "\", \"detail\": \""
       << json_escape(o->trial.detail) << "\", \"events\": \""
       << json_escape(o->trial.events) << "\"}";
  }
  os << "\n ]}\n";
  return os.str();
}

}  // namespace steins
