#include "fault/endurance.hpp"

#include <cstring>
#include <map>
#include <sstream>

#include "common/rng.hpp"
#include "common/stats.hpp"

namespace steins {

namespace {

constexpr double kSecondsPerYear = 365.25 * 24 * 3600;

Block endurance_pattern(Addr addr, std::uint64_t version) {
  Block b = zero_block();
  std::memcpy(b.data(), &addr, 8);
  std::memcpy(b.data() + 8, &version, 8);
  const std::uint64_t mix = version * 0x9e3779b97f4a7c15ULL ^ addr;
  std::memcpy(b.data() + 16, &mix, 8);
  return b;
}

}  // namespace

EnduranceReport run_endurance_campaign(const EnduranceOptions& opts) {
  EnduranceReport rep;
  rep.options = opts;

  SystemConfig cfg = default_config();
  cfg.nvm.capacity_bytes = 16ULL << 20;
  cfg.secure.metadata_cache.size_bytes = 16 * 1024;
  cfg.nvm.endurance_mean_writes = opts.accel_endurance_mean;
  cfg.nvm.endurance_sigma_writes = opts.accel_endurance_sigma;
  cfg.nvm.wear_seed = opts.seed * 0x9e3779b97f4a7c15ULL + 0x77ea7ULL;
  cfg.nvm.remap_pool_lines = opts.remap_pool_lines;
  cfg.secure.ft = FaultToleranceConfig{.ecc_enabled = true,
                                       .max_read_retries = 3,
                                       .retry_backoff_cycles = 32,
                                       .scrub_interval_accesses = 64,
                                       .scrub_lines_per_epoch = 8,
                                       .scrub_verify_macs = true};
  std::unique_ptr<SecureMemory> mem = make_scheme(opts.scheme, cfg);
  auto* base = dynamic_cast<SecureMemoryBase*>(mem.get());
  NvmDevice& dev = mem->device();

  SplitMix64 sm(opts.seed ^ 0xead12ea5e5eedULL);
  Xoshiro256 rng(sm.next());

  const std::uint64_t hot_count = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             static_cast<double>(opts.footprint_blocks) * opts.hot_fraction));
  const auto pick_addr = [&]() -> Addr {
    // A hot head of the footprint takes hot_weight of the stream — the
    // skew that makes wear-leveling earn its keep.
    const std::uint64_t block = rng.chance(opts.hot_weight)
                                    ? rng.below(hot_count)
                                    : rng.below(opts.footprint_blocks);
    return block * kBlockSize;
  };

  std::map<Addr, std::uint64_t> versions;
  Cycle now = 0;

  const auto audit_read = [&](Addr addr) {
    Block got;
    try {
      now = mem->read_block(addr, now, &got);
    } catch (const StatusError& e) {
      if (is_unavailable(e.code())) {
        ++rep.audit_unavailable;
        return;
      }
      ++rep.audit_mismatches;
      return;
    } catch (const std::exception&) {
      ++rep.audit_mismatches;  // integrity violation or crash: a real bug here
      return;
    }
    const auto it = versions.find(addr);
    const Block want =
        it == versions.end() ? zero_block() : endurance_pattern(addr, it->second);
    if (got != want) ++rep.audit_mismatches;
  };

  for (std::uint64_t i = 0; i < opts.max_writes; ++i) {
    const Addr addr = pick_addr();
    const std::uint64_t v = versions[addr] + 1;
    try {
      now = mem->write_block(addr, endurance_pattern(addr, v), now);
      versions[addr] = v;
      ++rep.writes_issued;
    } catch (const StatusError& e) {
      if (!is_unavailable(e.code())) throw;
      ++rep.writes_rejected;  // the line is retired; service is degraded
    }

    const NvmStats& ns = dev.stats();
    if (rep.writes_to_first_leveling == 0 && ns.lines_wear_leveled > 0) {
      rep.writes_to_first_leveling = rep.writes_issued;
    }
    if (rep.writes_to_first_wearout == 0 && ns.lines_worn_out > 0) {
      rep.writes_to_first_wearout = rep.writes_issued;
    }
    if (rep.writes_to_pool_exhaustion == 0 && dev.remap_pool_free() == 0) {
      rep.writes_to_pool_exhaustion = rep.writes_issued;
    }

    if (opts.audit_every > 0 && (i + 1) % opts.audit_every == 0) {
      for (int k = 0; k < 4; ++k) audit_read(pick_addr());
    }
    // Stop once the pool is dry and the first run-to-failure retirement
    // landed: every milestone is measured, further writes add nothing.
    if (rep.writes_to_pool_exhaustion != 0 && rep.writes_to_first_wearout != 0) break;
  }

  // Wear profile over the data region: the hottest surviving line tells how
  // close the device is to its next casualty.
  for (const auto& [addr, wear] : dev.wear_profile(0, cfg.nvm.capacity_bytes)) {
    if (wear > rep.hottest_wear) {
      rep.hottest_wear = wear;
      rep.hottest_line = addr;
    }
  }

  // End-of-life integrity: crash, recover, audit every block ever written.
  // Worn lines may only refuse with typed errors; wrong plaintext is a bug.
  mem->crash();
  const RecoveryReport r = mem->recover();
  rep.recovery_clean = r.supported && !r.attack_detected && r.status.ok();
  now = 0;
  for (const auto& [addr, v] : versions) {
    (void)v;
    audit_read(addr);
  }

  const NvmStats& ns = dev.stats();
  rep.lines_wear_leveled = ns.lines_wear_leveled;
  rep.lines_worn_out = ns.lines_worn_out;
  rep.lines_remapped = ns.lines_remapped;
  rep.lines_quarantined = base->ft_stats().lines_quarantined;
  rep.scrub_detected = base->ft_stats().scrub_detected;

  // Projection: the write distribution is fixed, so per-line wear is
  // proportional to total device writes and the milestone horizon scales by
  // the endurance ratio; leveling across the full real device (instead of
  // the accelerated footprint) stretches it again by the line-count ratio.
  rep.accel_factor =
      opts.real_endurance_writes / static_cast<double>(opts.accel_endurance_mean) *
      (opts.real_capacity_lines / static_cast<double>(opts.footprint_blocks));
  const auto project_years = [&](std::uint64_t milestone_writes) -> double {
    if (milestone_writes == 0 || opts.writes_per_second <= 0.0) return 0.0;
    return static_cast<double>(milestone_writes) * rep.accel_factor /
           opts.writes_per_second / kSecondsPerYear;
  };
  rep.projected_years_first_wearout = project_years(rep.writes_to_first_wearout);
  rep.projected_years_pool_exhaustion = project_years(rep.writes_to_pool_exhaustion);
  return rep;
}

std::string EnduranceReport::to_string() const {
  std::ostringstream os;
  os << "endurance: " << writes_issued << " writes (" << writes_rejected
     << " rejected), leveling@" << writes_to_first_leveling << " wearout@"
     << writes_to_first_wearout << " pool-dry@" << writes_to_pool_exhaustion
     << "\n  lines: leveled=" << lines_wear_leveled << " worn=" << lines_worn_out
     << " remapped=" << lines_remapped << " quarantined=" << lines_quarantined
     << " scrub-detected=" << scrub_detected << " hottest-wear=" << hottest_wear
     << "\n  audit: mismatches=" << audit_mismatches
     << " unavailable=" << audit_unavailable
     << " recovery=" << (recovery_clean ? "clean" : "flagged")
     << "\n  projection (x" << accel_factor << " @ " << options.writes_per_second
     << " w/s): first wear-out " << projected_years_first_wearout
     << " years, pool exhaustion " << projected_years_pool_exhaustion << " years";
  return os.str();
}

std::string EnduranceReport::to_json() const {
  std::ostringstream os;
  os << "{\"scheme\": \"" << scheme_name(options.scheme, CounterMode::kGeneral)
     << "\", \"seed\": " << options.seed
     << ", \"accel_endurance_mean\": " << options.accel_endurance_mean
     << ", \"accel_endurance_sigma\": " << options.accel_endurance_sigma
     << ", \"remap_pool_lines\": " << options.remap_pool_lines
     << ", \"footprint_blocks\": " << options.footprint_blocks
     << ",\n \"writes_issued\": " << writes_issued
     << ", \"writes_rejected\": " << writes_rejected
     << ", \"writes_to_first_leveling\": " << writes_to_first_leveling
     << ", \"writes_to_first_wearout\": " << writes_to_first_wearout
     << ", \"writes_to_pool_exhaustion\": " << writes_to_pool_exhaustion
     << ",\n \"lines_wear_leveled\": " << lines_wear_leveled
     << ", \"lines_worn_out\": " << lines_worn_out
     << ", \"lines_remapped\": " << lines_remapped
     << ", \"lines_quarantined\": " << lines_quarantined
     << ", \"scrub_detected\": " << scrub_detected
     << ", \"hottest_wear\": " << hottest_wear
     << ",\n \"audit_mismatches\": " << audit_mismatches
     << ", \"audit_unavailable\": " << audit_unavailable
     << ", \"recovery_clean\": " << (recovery_clean ? "true" : "false")
     << ",\n \"real_endurance_writes\": " << options.real_endurance_writes
     << ", \"real_capacity_lines\": " << options.real_capacity_lines
     << ", \"writes_per_second\": " << options.writes_per_second
     << ", \"accel_factor\": " << accel_factor
     << ", \"projected_years_first_wearout\": " << projected_years_first_wearout
     << ", \"projected_years_pool_exhaustion\": " << projected_years_pool_exhaustion
     << "}\n";
  return os.str();
}

}  // namespace steins
