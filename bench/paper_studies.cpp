// The studies behind the paper's claims beyond Figs. 9-17, in one run,
// optionally recorded as one JSON file (BENCH_studies.json):
//
//   paper_studies [accesses [warmup]] [--jobs N] [--json FILE]
//
//   storage           §IV-E storage overhead on 16 GB NVM (the JSON's "table")
//   update_policy     §II-C lazy vs eager SIT updates, WB-GC, every workload
//   cache_size        §IV metadata cache size sweep, mcf
//   steins_knobs      §III-C/§III-E record-line cache and NV buffer, mcf
//   sit_vs_bmt        §II-C SIT vs BMT write-path cost
//   recovery_scaling  §I/§II-D recovery time vs capacity, SCUE TB extrapolation
//   scalability       §IV-F multi-controller scaling, full and iso cache
//
// `accesses`/`warmup` size the trace-driven studies and the SIT/BMT write
// count; recovery scaling and scalability run the fixed sizes their claims
// are stated at. Every simulated cell of every study goes into one list and
// runs through one ThreadPool fan-out; cells share no state, so any --jobs
// gives the same output. `tools/ci/bench_gate.py studies` checks the file
// against BENCH_studies.json and the paper's bands.
#include <bit>
#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "schemes/bmt.hpp"
#include "schemes/scue.hpp"
#include "schemes/steins.hpp"
#include "schemes/writeback.hpp"
#include "sim/multi_controller.hpp"
#include "sit/geometry.hpp"

using namespace steins;

namespace {

// Every cell returns its metrics.
using Cells = bench::Cells<>;

// A study queues its cells, then (after Cells::run) prints its tables and
// returns its JSON section.
using Report = std::function<std::string(const Cells&)>;

std::string section(const ResultTable& table, int precision) {
  table.print(precision);
  return "{\"table\": " + table.to_json() + "}";
}

// The studies that drive a memory directly (BMT is not a System scheme).
using Make = std::unique_ptr<SecureMemory> (*)(const SystemConfig&);
template <typename Memory>
std::unique_ptr<SecureMemory> make(const SystemConfig& cfg) {
  return std::make_unique<Memory>(cfg);
}

double mb(std::uint64_t bytes) { return static_cast<double>(bytes) / (1024.0 * 1024.0); }

RunStats run_trace(const SystemConfig& cfg, Scheme scheme, const std::string& workload,
                   const bench::BenchOptions& opt) {
  System sys(cfg, scheme);
  auto trace = make_workload(workload, opt.accesses + opt.warmup);
  return sys.run(*trace, opt.warmup);
}

// §IV-E: every scheme stores the full SIT; they differ in the leaf-region
// size (GC 1/8 vs SC 1/64 of memory), the extra cache space of cache-trees
// (ASIT 1/8, STAR 1/64 of the metadata cache) and the on-chip registers.
ResultTable storage() {
  const SystemConfig cfg = default_config();
  const SitGeometry gc(cfg.nvm, CounterMode::kGeneral);
  const SitGeometry sc(cfg.nvm, CounterMode::kSplit);
  const double cache_kb = static_cast<double>(cfg.secure.metadata_cache.size_bytes) / 1024.0;
  // Steins keeps a 4 B record offset per metadata-cache line in NVM.
  const double records_kb = cache_kb / kBlockSize * 4;
  ResultTable t("§IV-E: storage overhead, 16 GB NVM, 256 KB metadata cache",
                {"levels", "SIT MB", "leaves MB", "cache-tree KB", "NV regs B", "records KB"});
  const auto row = [&](const char* name, const SitGeometry& geo, double extra_cache,
                       double nv_registers, double records) {
    t.add_row(name, {static_cast<double>(geo.height()), mb(geo.storage_bytes()),
                     mb(geo.leaf_storage_bytes()), extra_cache, nv_registers, records});
  };
  row("WB-GC", gc, 0, 64, 0);                    // tree root
  row("ASIT", gc, cache_kb / 8, 64 + 64, 0);     // 8 B HMAC per line; two roots
  row("STAR", gc, cache_kb / 64, 64 + 64, 0);    // 8 B set-MAC per 8-way set
  row("Steins-GC", gc, 0, 64 + 64 + 128, records_kb);  // root, LInc, NV buffer
  row("Steins-SC", sc, 0, 64 + 64 + 128, records_kb);
  return t;
}

// §II-C: eager updates walk every ancestor per write, lazy ones touch the
// leaf and defer propagation to evictions.
Report update_policy(Cells& cells, const bench::BenchOptions& opt) {
  std::vector<std::size_t> ids;  // lazy, eager per workload
  for (const auto& wl : workload_names()) {
    for (const auto policy : {UpdatePolicy::kLazy, UpdatePolicy::kEager}) {
      ids.push_back(cells.add([=, &opt] {
        SystemConfig cfg = default_config();
        cfg.update_policy = policy;
        const RunStats s = run_trace(cfg, Scheme::kWriteBack, wl, opt);
        return std::vector<double>{static_cast<double>(s.cycles),
                                   static_cast<double>(s.mem.meta_reads),
                                   static_cast<double>(s.mem.nvm_writes()),
                                   static_cast<double>(s.mem.hash_ops)};
      }));
    }
  }
  return [ids](const Cells& r) {
    ResultTable t("§II-C: eager SIT updates normalized to lazy (WB-GC)",
                  {"exec", "meta reads", "NVM writes", "hashes"});
    for (std::size_t w = 0; w < workload_names().size(); ++w) {
      const auto& lazy = r[ids[2 * w]];
      const auto& eager = r[ids[2 * w + 1]];
      std::vector<double> row;
      for (std::size_t c = 0; c < lazy.size(); ++c) row.push_back(eager[c] / lazy[c]);
      t.add_row(workload_names()[w], row);
    }
    t.add_geomean_row("gmean");
    return section(t, 3);
  };
}

// §IV: "larger cache sizes deliver higher performance". WB-GC and Steins-GC
// on mcf across 64 KB .. 1 MB, cycles normalized to the 256 KB row.
Report cache_size(Cells& cells, const bench::BenchOptions& opt) {
  static const std::size_t kSizes[] = {64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20};
  std::vector<std::size_t> ids;  // WB-GC, Steins-GC per size
  for (const std::size_t size : kSizes) {
    for (const Scheme scheme : {Scheme::kWriteBack, Scheme::kSteins}) {
      ids.push_back(cells.add([=, &opt] {
        SystemConfig cfg = default_config();
        cfg.secure.metadata_cache.size_bytes = size;
        const RunStats s = run_trace(cfg, scheme, "mcf", opt);
        return std::vector<double>{static_cast<double>(s.cycles), s.mcache_hit_rate * 100.0};
      }));
    }
  }
  return [ids](const Cells& r) {
    constexpr std::size_t kBase = 2;  // the 256 KB row
    ResultTable t("§IV: execution cycles vs metadata cache size (mcf, normalized to 256KB)",
                  {"WB-GC", "Steins-GC", "Steins hit%"});
    for (std::size_t i = 0; i < std::size(kSizes); ++i) {
      const auto& wb = r[ids[2 * i]];
      const auto& st = r[ids[2 * i + 1]];
      t.add_row(std::to_string(kSizes[i] / 1024) + "KB",
                {wb[0] / r[ids[2 * kBase]][0], st[0] / r[ids[2 * kBase + 1]][0], st[1]});
    }
    return section(t, 3);
  };
}

// §III-C/§III-E: ADR-cached record lines (at the 128 B buffer) and the NV
// parent-buffer size (at 16 record lines), Steins-GC on mcf.
Report steins_knobs(Cells& cells, const bench::BenchOptions& opt) {
  std::vector<std::pair<std::string, std::size_t>> rows;
  const auto add = [&](std::string label, std::size_t record_lines, std::size_t buffer_bytes) {
    rows.emplace_back(std::move(label), cells.add([=, &opt] {
      SystemConfig cfg = default_config();
      cfg.secure.record_lines_cached = record_lines;
      cfg.secure.nv_buffer_bytes = buffer_bytes;
      const RunStats s = run_trace(cfg, Scheme::kSteins, "mcf", opt);
      return std::vector<double>{static_cast<double>(s.cycles),
                                 static_cast<double>(s.mem.aux_write_bytes),
                                 static_cast<double>(s.mem.meta_reads), s.write_latency_cycles};
    }));
  };
  for (const std::size_t lines : {4u, 8u, 16u, 32u, 64u}) {
    add(std::to_string(lines) + " record lines", lines, 128);
  }
  for (const std::size_t bytes : {16u, 64u, 128u, 512u}) {
    add(std::to_string(bytes) + "B NV buffer", 16, bytes);
  }
  return [rows](const Cells& r) {
    ResultTable t("§III-C/§III-E: Steins record lines and NV buffer (mcf)",
                  {"exec cycles", "record bytes", "meta reads", "write latency"});
    for (const auto& [label, id] : rows) t.add_row(label, r[id]);
    return section(t, 0);
  };
}

// §II-C: SIT's lazy, level-parallel updates against the BMT's sequential
// branch recompute, on a cache-resident footprint so the update path itself
// is what differs. Writes arrive a fixed gap after the previous one was
// accepted: back to back, both schemes sit at the write queue's acceptance
// bound and the comparison degenerates (DESIGN.md §8, workload intensity).
Report sit_vs_bmt(Cells& cells, const bench::BenchOptions& opt) {
  constexpr Cycle kWriteGap = 3000;
  constexpr std::uint64_t kFootprintBlocks = 1 << 15;
  const auto drive = [writes = opt.accesses](Make make) {
    return [=] {
      SystemConfig cfg = default_config();
      cfg.nvm.capacity_bytes = 1ULL << 30;
      const std::unique_ptr<SecureMemory> mem = make(cfg);
      Xoshiro256 rng(11);
      Block data{};
      Cycle now = 0;
      for (std::uint64_t i = 0; i < writes; ++i) {
        data[0] = static_cast<std::uint8_t>(i);
        now = mem->write_block(rng.below(kFootprintBlocks) * kBlockSize, data,
                               i == 0 ? now : now + kWriteGap);
      }
      return std::vector<double>{
          mem->stats().write_latency.mean(),
          static_cast<double>(mem->stats().hash_ops) / static_cast<double>(writes),
          static_cast<double>(now)};
    };
  };
  const std::size_t sit = cells.add(drive(make<WriteBackMemory>));
  const std::size_t bmt = cells.add(drive(make<BmtMemory>));
  return [=](const Cells& r) {
    ResultTable t("§II-C: SIT (lazy) vs BMT (sequential branch updates), random writes",
                  {"write lat (cy)", "hashes/write", "frontier (cy)"});
    t.add_row("WB-SIT", r[sit]);
    t.add_row("BMT", r[bmt]);
    std::vector<double> ratio;
    for (std::size_t c = 0; c < r[sit].size(); ++c) ratio.push_back(r[bmt][c] / r[sit][c]);
    t.add_row("BMT/SIT", ratio);
    return section(t, 2);
  };
}

// §I/§II-D: SCUE (and BMT) rebuild the whole tree from every leaf, so their
// recovery grows with memory size, while Steins' depends only on the
// metadata cache. A fixed 10k-write workload per capacity; SCUE's cost is
// then extrapolated linearly to the paper's "hours for TB memory".
Report recovery_scaling(Cells& cells) {
  static const std::uint64_t kCapacities[] = {16ULL << 20, 64ULL << 20, 256ULL << 20};
  constexpr std::uint64_t kWrites = 10000;
  static const std::pair<const char*, Make> kSchemes[] = {
      {"Steins-GC", make<SteinsMemory>}, {"SCUE", make<ScueMemory>}, {"BMT", make<BmtMemory>}};
  std::vector<std::size_t> ids;  // capacity-major, schemes in kSchemes order
  for (const std::uint64_t cap : kCapacities) {
    for (const auto& [name, make] : kSchemes) {
      ids.push_back(cells.add([cap, make = make] {
        SystemConfig cfg = default_config();
        cfg.nvm.capacity_bytes = cap;
        const std::unique_ptr<SecureMemory> mem = make(cfg);
        Xoshiro256 rng(5);
        Block data{};
        Cycle now = 0;
        const std::uint64_t blocks = cap / kBlockSize;
        for (std::uint64_t i = 0; i < kWrites; ++i) {
          now = mem->write_block(rng.below(blocks) * kBlockSize, data, now);
        }
        mem->crash();
        const RecoveryResult rec = mem->recover();
        if (!rec.ok()) {
          throw std::runtime_error("unexpected recovery failure: " + rec.attack_detail);
        }
        return std::vector<double>{rec.seconds};
      }));
    }
  }
  return [ids](const Cells& r) {
    const std::size_t n = std::size(kSchemes);
    std::vector<std::string> columns;
    for (const auto& [name, make] : kSchemes) columns.push_back(std::string(name) + " (s)");
    ResultTable t("§I/§II-D: recovery time vs NVM capacity (10k writes)", columns);
    for (std::size_t c = 0; c < std::size(kCapacities); ++c) {
      std::vector<double> row;
      for (std::size_t s = 0; s < n; ++s) row.push_back(r[ids[c * n + s]][0]);
      t.add_row(std::to_string(kCapacities[c] >> 20) + "MB", row);
    }
    t.print(4);

    const std::size_t last = std::size(kCapacities) - 1;
    const double per_byte = r[ids[last * n + 1]][0] / static_cast<double>(kCapacities[last]);
    ResultTable x("SCUE recovery extrapolated linearly in capacity", {"seconds", "hours"});
    for (const double tb : {1.0, 4.0}) {
      const double secs = per_byte * tb * 1024 * 1024 * 1024 * 1024;
      x.add_row(std::to_string(static_cast<int>(tb)) + "TB", {secs, secs / 3600.0});
    }
    x.print(1);
    return "{\"table\": " + t.to_json() + ", \"extrapolation\": " + x.to_json() + "}";
  };
}

// §IV-F: six clients drive write streams at 1..6 Steins-GC controllers
// (Cascade Lake: 2 MCs x 3 DIMMs). Disjoint DIMM-sized regions scale with
// the controller count; a shared hot DIMM serializes. The full-cache column
// gives every controller the whole 256 KB metadata cache; the iso-cache one
// splits it, bit_floor(256 KB / N) each (set counts must be powers of two).
Report scalability(Cells& cells) {
  static const unsigned kControllers[] = {1, 2, 3, 6};
  constexpr unsigned kClients = 6;
  constexpr std::uint64_t kWritesPerClient = 3000;
  constexpr std::uint64_t kRegionBlocks = 1 << 18;  // 16 MB per client region = one DIMM
  const auto makespan = [](unsigned controllers, bool disjoint, bool iso_cache) {
    return [=] {
      SystemConfig cfg = default_config();
      cfg.nvm.capacity_bytes = 6ULL << 30;
      auto& cache = cfg.secure.metadata_cache.size_bytes;
      if (iso_cache) cache = std::bit_floor(cache / controllers);
      MultiControllerMemory mem(cfg, Scheme::kSteins, controllers, kRegionBlocks * kBlockSize);
      std::vector<Xoshiro256> rngs;
      for (unsigned c = 0; c < kClients; ++c) rngs.emplace_back(100 + c);
      // Round-robin issue; a client's own requests serialize on its issue
      // order. With interleave = DIMM size, client c's region lives on one
      // controller.
      std::vector<Cycle> client_now(kClients, 0);
      Block data{};
      for (std::uint64_t i = 0; i < kWritesPerClient; ++i) {
        for (unsigned c = 0; c < kClients; ++c) {
          const std::uint64_t region = disjoint ? c : 0;
          const Addr addr = (region * kRegionBlocks + rngs[c].below(kRegionBlocks)) * kBlockSize;
          client_now[c] = mem.write_block(addr, data, client_now[c]);
        }
      }
      return std::vector<double>{static_cast<double>(mem.max_frontier()),
                                 static_cast<double>(cache / 1024)};
    };
  };
  std::vector<std::size_t> ids;  // disjoint full, shared-hot full, disjoint iso per count
  for (const unsigned mcs : kControllers) {
    ids.push_back(cells.add(makespan(mcs, true, false)));
    ids.push_back(cells.add(makespan(mcs, false, false)));
    ids.push_back(cells.add(makespan(mcs, true, true)));
  }
  return [ids](const Cells& r) {
    ResultTable t("§IV-F: 6 clients x 3000 writes, Steins-GC per controller (makespan, cycles)",
                  {"full-cache cy", "full speedup", "shared-hot cy", "iso cache KB",
                   "iso-cache cy", "iso speedup"});
    const double base = r[ids[0]][0];
    for (std::size_t i = 0; i < std::size(kControllers); ++i) {
      const double full = r[ids[3 * i]][0];
      const double shared = r[ids[3 * i + 1]][0];
      const auto& iso = r[ids[3 * i + 2]];  // makespan, cache KB per controller
      t.add_row(std::to_string(kControllers[i]) + " MC",
                {full, base / full, shared, iso[1], iso[0], base / iso[0]});
    }
    return section(t, 2);
  };
}

}  // namespace

int main(int argc, char** argv) try {
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  Cells cells;
  const std::pair<const char*, Report> studies[] = {
      {"update_policy", update_policy(cells, opt)},
      {"cache_size", cache_size(cells, opt)},
      {"steins_knobs", steins_knobs(cells, opt)},
      {"sit_vs_bmt", sit_vs_bmt(cells, opt)},
      {"recovery_scaling", recovery_scaling(cells)},
      {"scalability", scalability(cells)},
  };
  std::printf("Paper studies: %llu accesses per trace cell + %llu warmup, %u job(s)\n\n",
              static_cast<unsigned long long>(opt.accesses),
              static_cast<unsigned long long>(opt.warmup), opt.jobs);
  const ResultTable storage_table = storage();
  storage_table.print(1);
  cells.run(opt.jobs);

  std::string json = ",\n \"studies\": {";
  const char* separator = "";
  for (const auto& [id, report] : studies) {
    json += separator;
    json += std::string("\n  \"") + id + "\": " + report(cells);
    separator = ",";
  }
  json += "}";
  if (!opt.json_path.empty()) {
    if (!bench::write_table_json(opt.json_path, storage_table, opt, json)) return 1;
    std::printf("wrote JSON results to %s\n", opt.json_path.c_str());
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
