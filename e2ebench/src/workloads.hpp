// The four workloads as spec text: what both benchmark binaries send
// into the library. The library never sees the workload seed itself,
// only the specs generated here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

/// Every registered family whose factory is a pure function of the spec
/// (all but "file" and the implicit ones) — the acceptance grid's axis.
inline const std::vector<std::string>& families() {
  static const std::vector<std::string> all = {
      "ring",     "path",   "complete",    "star",  "grid",      "torus",
      "hypercube", "binary-tree", "lollipop", "barbell", "caterpillar",
      "wheel",    "bipartite", "tree",     "random", "regular"};
  return all;
}

inline std::string joined(const std::vector<std::string>& items) {
  std::string out;
  for (const std::string& item : items) {
    if (!out.empty()) out += ',';
    out += item;
  }
  return out;
}

/// acceptance-cold: the ROADMAP acceptance grid, 16 families × 4
/// schedulers at n=12, k=4, scenario seed 1 — 64 rows on 4 workers. The
/// grid's seed is pinned: its per-seed cost varies by about a fifth, and
/// even its family order moves the 4-worker makespan by as much, so a
/// seed-dependent grid could not hold a 25% bound across seeds.
inline std::string acceptance_sweep_text() {
  return "families=" + joined(families()) +
         "\nschedulers=synchronous,adversarial-delay,semi-synchronous,"
         "crash-fault\nsizes=12\nk=4\nseeds=1\nthreads=4\nuse_result_cache=1\n";
}

/// sync-regimes: synchronous only, the two Theorem 16 k-regimes at
/// n in {24, 32}, scenario seeds {1,2,3} — 192 rows on one worker. Pinned
/// for the same reason: seeds 5..7 cost 40% of seeds 1..3.
inline std::string sync_sweep_text() {
  return "families=" + joined(families()) +
         "\nschedulers=synchronous\nsizes=24,32\nk_rules=4,n/2+1\n"
         "seeds=1,2,3\nthreads=1\nuse_result_cache=1\n";
}

/// The cheap synchronous slice each sweep workload runs once per set-up
/// (registries, graph builders, first-touch allocations).
inline std::string sweep_probe_text() {
  return "families=" + joined(families()) +
         "\nschedulers=synchronous\nsizes=12\nk=4\nseeds=1\nthreads=1\n";
}

inline constexpr std::size_t kAcceptanceRows = 64;
inline constexpr std::size_t kSyncRows = 192;

/// serve-zipf pool: 16 families × n in {12,16,20,24} × 3 placements ×
/// scenario seeds 1..32 at k=4, synchronous — 6144 specs, more than the
/// default result cache (4096) and graph cache (256) hold.
inline std::vector<std::string> serve_pool() {
  static const std::vector<std::size_t> sizes = {12, 16, 20, 24};
  static const std::vector<std::string> placements = {
      "adversarial", "dispersed", "undispersed"};
  std::vector<std::string> pool;
  for (const std::string& family : families()) {
    for (const std::size_t n : sizes) {
      for (const std::string& placement : placements) {
        for (std::uint64_t seed = 1; seed <= 32; ++seed) {
          pool.push_back("family=" + family + "\nn=" + std::to_string(n) +
                         "\nk=4\nplacement=" + placement +
                         "\nscheduler=synchronous\nseed=" +
                         std::to_string(seed) + "\n");
        }
      }
    }
  }
  return pool;
}

inline constexpr std::size_t kServeClients = 4;
inline constexpr std::size_t kServeWarmRanks = 4096;  ///< result cache size
inline constexpr double kZipfS = 1.0;

/// swarm-implicit: two bounded million-node probes, each on a fresh
/// service. They stop at the round cap without gathering, so their
/// check is determinism (one trace hash per probe), not a verdict.
inline std::vector<std::string> swarm_texts(std::uint64_t seed) {
  std::vector<std::string> texts;
  for (const char* placement : {"undispersed", "dispersed"}) {
    texts.push_back(std::string("family=implicit-grid\nn=1000000\nk=16384\n"
                                "sequence=lazy\nhard_cap=20000\ndecide_threads=4\n"
                                "placement=") +
                    placement + "\nseed=" + std::to_string(seed) + "\n");
  }
  return texts;
}

/// The small implicit probe each swarm set-up runs once.
inline std::string swarm_probe_text() {
  return "family=implicit-grid\nn=10000\nk=256\nsequence=lazy\n"
         "hard_cap=2000\nplacement=undispersed\nseed=1\n";
}

}  // namespace e2e
