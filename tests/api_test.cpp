// The embedding surface: gather::Service context isolation and the C
// ABI in include/libgather.h.
//
// Three contracts pinned here:
//   1. Two Services in one process are fully independent — separate
//      hit/miss counters, separate clear() — because there is no
//      process-wide cache behind them (the point of the api layer).
//   2. The C ABI is a faithful wrapper: gather_sweep_csv bytes are
//      identical to driving SweepRunner directly, at any thread count.
//   3. Exceptions never cross the boundary: every error class maps to
//      its documented gather_status, with the message in
//      gather_last_error(), and out parameters stay unwritten.
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/service.hpp"
#include "libgather.h"
#include "scenario/caches.hpp"
#include "scenario/scenario.hpp"
#include "scenario/sweep.hpp"

namespace {

using gather::Service;
namespace scenario = gather::scenario;

scenario::ScenarioSpec small_spec() {
  scenario::ScenarioSpec spec;
  spec.family = "ring";
  spec.n = 12;
  spec.k = 3;
  spec.seed = 5;
  return spec;
}

// The same instance as spec text, for the ABI side of round trips.
constexpr const char* kRunSpecText =
    "# small ring instance\n"
    "family=ring\n"
    "n=12\n"
    "k=3\n"
    "seed=5\n";

// ring/8/3 undispersed under adversarial-delay(max-delay=6) at seed 1
// deterministically breaks a robot protocol invariant (the misaligned
// helper misses its finder) — the canonical VIOLATION input.
constexpr const char* kViolationSpecText =
    "family=ring\n"
    "n=8\n"
    "k=3\n"
    "placement=undispersed\n"
    "scheduler=adversarial-delay\n"
    "scheduler_params=max-delay=6\n"
    "seed=1\n";

std::string golden_trace_path() {
  return std::string(GATHER_TEST_DATA_DIR) + "/golden_sync_star.trace";
}

// ---- 1. context isolation -------------------------------------------------

TEST(ServiceTest, TwoServicesHaveIndependentCaches) {
  Service a;
  Service b;
  const scenario::ScenarioSpec spec = small_spec();

  const Service::RunReport first = a.run(spec);
  EXPECT_FALSE(first.cache_hit);
  const Service::RunReport second = a.run(spec);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.outcome.result.metrics.trace_hash,
            first.outcome.result.metrics.trace_hash);
  EXPECT_EQ(second.realized_n, first.realized_n);

  const Service::CacheStats a_stats = a.cache_stats();
  EXPECT_EQ(a_stats.results.hits, 1u);
  EXPECT_EQ(a_stats.results.misses, 1u);
  EXPECT_EQ(a_stats.results.entries, 1u);

  // b observed none of a's traffic — and cannot serve from a's memo.
  const Service::CacheStats b_before = b.cache_stats();
  EXPECT_EQ(b_before.results.hits, 0u);
  EXPECT_EQ(b_before.results.misses, 0u);
  EXPECT_EQ(b_before.graphs.misses, 0u);
  const Service::RunReport b_first = b.run(spec);
  EXPECT_FALSE(b_first.cache_hit);
  EXPECT_EQ(b_first.outcome.result.metrics.trace_hash,
            first.outcome.result.metrics.trace_hash);

  // clear() drops a's entries and counters; b's survive untouched.
  a.clear_caches();
  const Service::CacheStats a_cleared = a.cache_stats();
  EXPECT_EQ(a_cleared.results.hits, 0u);
  EXPECT_EQ(a_cleared.results.entries, 0u);
  EXPECT_EQ(a_cleared.graphs.entries, 0u);
  const Service::CacheStats b_after = b.cache_stats();
  EXPECT_EQ(b_after.results.misses, 1u);
  EXPECT_EQ(b_after.results.entries, 1u);
}

TEST(ServiceTest, SweepInheritsConfiguredThreadDefault) {
  Service::Config config;
  config.sweep_threads = 2;
  Service service(config);
  scenario::SweepSpec sweep;
  sweep.base = small_spec();
  sweep.seeds = {1, 2, 3};
  const std::vector<scenario::SweepRow> rows = service.sweep(sweep);
  ASSERT_EQ(rows.size(), 3u);
  for (const scenario::SweepRow& row : rows) {
    EXPECT_EQ(row.realized_n, 12u);
  }
}

// ---- 2. C ABI round trips -------------------------------------------------

struct ServiceHandle {
  gather_service* ptr;
  ServiceHandle() : ptr(gather_service_new()) {}
  ~ServiceHandle() { gather_service_free(ptr); }
  ServiceHandle(const ServiceHandle&) = delete;
  ServiceHandle& operator=(const ServiceHandle&) = delete;
};

std::string abi_sweep_csv(const std::string& spec_text) {
  ServiceHandle service;
  char* csv = nullptr;
  const gather_status status =
      gather_sweep_csv(service.ptr, spec_text.c_str(), &csv);
  EXPECT_EQ(status, GATHER_STATUS_OK) << gather_last_error();
  if (csv == nullptr) return {};
  std::string out(csv);
  gather_free(csv);
  return out;
}

TEST(CAbiTest, SweepCsvMatchesSweepRunnerBytes) {
  // The reference: SweepRunner driven directly with the same grid and
  // the same harness policy parse_sweep_spec applies for CLI parity.
  scenario::SweepSpec sweep;
  sweep.base.k = 3;
  sweep.families = {"ring", "torus"};
  sweep.sizes = {9, 12};
  sweep.seeds = {1, 2};
  sweep.filter = [](const scenario::ScenarioSpec& s) {
    return s.k >= 2 && s.k <= s.n;
  };
  sweep.skip_infeasible = true;
  sweep.tolerate_protocol_violations = true;
  sweep.threads = 1;
  scenario::Caches caches;
  const std::vector<scenario::SweepRow> rows =
      scenario::SweepRunner::run(sweep, caches);
  std::ostringstream reference;
  scenario::SweepRunner::write_csv(reference, rows);

  const std::string grid =
      "families=ring,torus\n"
      "sizes=9,12\n"
      "seeds=1,2\n"
      "k=3\n";
  EXPECT_EQ(abi_sweep_csv(grid + "threads=1\n"), reference.str());
  EXPECT_EQ(abi_sweep_csv(grid + "threads=4\n"), reference.str());
}

TEST(CAbiTest, SweepCsvMatchesGoldenPolicyBytes) {
  // Byte referees, generated once and committed; CI cmps `gather_cli
  // --sweep` on the same grids against them.
  //  * golden_sweep_policy.csv — the sweep harness policy. The grid hits
  //    all three arms: 32 points, 24 after the k in [2, n] filter, 22
  //    rows after one infeasible skip per seed (hypercube n=10 realizes
  //    8 < k=9), and 9 rows recorded with violation=1.
  //  * golden_ssync_grid.csv — the semi-synchronous block-mask schedule
  //    and its exact wakes: all 16 acceptance-grid families at fairness
  //    3, 32 rows, none with violation=1 (every row matches naive
  //    stepping), runs of up to 506398 rounds.
  struct Golden {
    const char* file;
    const char* grid;
  };
  const Golden goldens[] = {
      {"golden_sweep_policy.csv",
       "families=ring,hypercube\n"
       "sizes=8,10\n"
       "k_rules=3,9\n"
       "placements=undispersed,adversarial\n"
       "scheduler=adversarial-delay\n"
       "scheduler_params=max-delay=6\n"
       "seeds=1,2\n"},
      {"golden_ssync_grid.csv",
       "families=ring,path,complete,star,grid,torus,hypercube,binary-tree,"
       "lollipop,barbell,caterpillar,wheel,bipartite,tree,random,regular\n"
       "sizes=6\n"
       "k=2\n"
       "scheduler=semi-synchronous\n"
       "scheduler_params=fairness=3\n"
       "seeds=1,2\n"},
  };
  for (const Golden& golden_case : goldens) {
    SCOPED_TRACE(golden_case.file);
    std::ifstream in(std::string(GATHER_TEST_DATA_DIR) + "/" +
                     golden_case.file);
    ASSERT_TRUE(in.good());
    std::ostringstream golden;
    golden << in.rdbuf();
    const std::string grid = golden_case.grid;
    EXPECT_EQ(abi_sweep_csv(grid + "threads=1\n"), golden.str());
    EXPECT_EQ(abi_sweep_csv(grid + "threads=4\n"), golden.str());
  }
}

TEST(CAbiTest, RepeatedRunsHitTheServiceResultCache) {
  ServiceHandle service;
  char* first = nullptr;
  ASSERT_EQ(gather_run_json(service.ptr, kRunSpecText, &first),
            GATHER_STATUS_OK)
      << gather_last_error();
  ASSERT_NE(first, nullptr);
  const std::string cold(first);
  gather_free(first);
  EXPECT_NE(cold.find("\"cache_hit\": false"), std::string::npos) << cold;

  char* second = nullptr;
  ASSERT_EQ(gather_run_json(service.ptr, kRunSpecText, &second),
            GATHER_STATUS_OK)
      << gather_last_error();
  ASSERT_NE(second, nullptr);
  const std::string warm(second);
  gather_free(second);
  EXPECT_NE(warm.find("\"cache_hit\": true"), std::string::npos) << warm;
  // Same payload up to the memo flag: the hit replays the stored outcome.
  EXPECT_EQ(warm.substr(0, warm.find("\"cache_hit\"")),
            cold.substr(0, cold.find("\"cache_hit\"")));

  gather_cache_stats_s stats;
  ASSERT_EQ(gather_cache_stats(service.ptr, &stats), GATHER_STATUS_OK);
  EXPECT_EQ(stats.result_hits, 1u);
  EXPECT_EQ(stats.result_misses, 1u);

  ASSERT_EQ(gather_service_clear_caches(service.ptr), GATHER_STATUS_OK);
  ASSERT_EQ(gather_cache_stats(service.ptr, &stats), GATHER_STATUS_OK);
  EXPECT_EQ(stats.result_hits, 0u);
  EXPECT_EQ(stats.result_entries, 0u);
  EXPECT_EQ(stats.graph_entries, 0u);
}

TEST(CAbiTest, RunJsonReportsFalseAnnouncement) {
  // ring/12/4 at seed 1 under crash-fault: the survivors announce
  // termination while a crashed robot sits elsewhere (`gather_cli
  // --replay` of the run's trace prints "false announce: true"). The
  // JSON says so on the cold run and on the cache hit, just before
  // cache_hit; the clean synchronous instance says false.
  ServiceHandle service;
  const char* crash_spec =
      "family=ring\n"
      "n=12\n"
      "k=4\n"
      "scheduler=crash-fault\n"
      "seed=1\n";
  for (int pass = 0; pass < 2; ++pass) {
    char* json = nullptr;
    ASSERT_EQ(gather_run_json(service.ptr, crash_spec, &json),
              GATHER_STATUS_OK)
        << gather_last_error();
    const std::string report(json);
    gather_free(json);
    EXPECT_NE(report.find("\"false_announcement\": true, \"cache_hit\""),
              std::string::npos)
        << report;
  }
  char* json = nullptr;
  ASSERT_EQ(gather_run_json(service.ptr, kRunSpecText, &json),
            GATHER_STATUS_OK)
      << gather_last_error();
  const std::string clean(json);
  gather_free(json);
  EXPECT_NE(clean.find("\"false_announcement\": false"), std::string::npos)
      << clean;
}

TEST(CAbiTest, ReplayOfGoldenTraceReportsCleanRun) {
  char* json = nullptr;
  ASSERT_EQ(gather_replay_trace(golden_trace_path().c_str(), &json),
            GATHER_STATUS_OK)
      << gather_last_error();
  ASSERT_NE(json, nullptr);
  const std::string report(json);
  gather_free(json);
  EXPECT_NE(report.find("\"violation\": false"), std::string::npos) << report;
  EXPECT_NE(report.find("\"trace_hash\": "), std::string::npos) << report;
}

// ---- 3. error classes map to documented status codes ----------------------

TEST(CAbiTest, BadSpecTextIsUsage) {
  ServiceHandle service;
  char* json = reinterpret_cast<char*>(static_cast<std::uintptr_t>(1));
  EXPECT_EQ(gather_run_json(service.ptr, "bogus_key=1\n", &json),
            GATHER_STATUS_USAGE);
  EXPECT_EQ(json, nullptr);  // out parameter cleared, never populated
  EXPECT_NE(std::string(gather_last_error()).find("bogus_key"),
            std::string::npos)
      << gather_last_error();

  EXPECT_EQ(gather_run_json(service.ptr, "family=nosuchfamily\n", &json),
            GATHER_STATUS_USAGE);
  EXPECT_EQ(gather_run_json(service.ptr, "not a key value line\n", &json),
            GATHER_STATUS_USAGE);
  EXPECT_EQ(gather_sweep_csv(service.ptr, "sizes=twelve\n", &json),
            GATHER_STATUS_USAGE);
  // A removed key fails like any unknown one (moves are recorded only
  // through trace_path, the binary trace).
  EXPECT_EQ(gather_run_json(service.ptr, "record_trace=1\n", &json),
            GATHER_STATUS_USAGE);
  EXPECT_NE(std::string(gather_last_error()).find("record_trace"),
            std::string::npos)
      << gather_last_error();
  // Narrowed keys are range-checked, never wrapped or overflowed, and
  // the error names the key.
  for (const std::string line :
       {"known_min_pair_distance=-2147483648", "known_min_pair_distance=4294967297",
        "decide_threads=4294967296", "id_exponent_b=4294967298"}) {
    EXPECT_EQ(gather_run_json(service.ptr, (line + "\n").c_str(), &json),
              GATHER_STATUS_USAGE)
        << line;
    EXPECT_NE(std::string(gather_last_error()).find(line.substr(0, line.find('='))),
              std::string::npos)
        << gather_last_error();
  }
  EXPECT_EQ(gather_sweep_csv(service.ptr, "threads=4294967296\n", &json),
            GATHER_STATUS_USAGE);
}

TEST(CAbiTest, ProtocolViolationRowIsViolation) {
  ServiceHandle service;
  char* json = nullptr;
  EXPECT_EQ(gather_run_json(service.ptr, kViolationSpecText, &json),
            GATHER_STATUS_VIOLATION);
  EXPECT_EQ(json, nullptr);
  EXPECT_NE(std::string(gather_last_error()).find("protocol"),
            std::string::npos)
      << gather_last_error();
  // A violation is never memoized — the retry re-runs and re-reports.
  EXPECT_EQ(gather_run_json(service.ptr, kViolationSpecText, &json),
            GATHER_STATUS_VIOLATION);
  gather_cache_stats_s stats;
  ASSERT_EQ(gather_cache_stats(service.ptr, &stats), GATHER_STATUS_OK);
  EXPECT_EQ(stats.result_entries, 0u);
  EXPECT_EQ(stats.result_hits, 0u);
}

TEST(CAbiTest, TruncatedTraceFileIsTraceStatus) {
  std::ifstream in(golden_trace_path(), std::ios::binary);
  ASSERT_TRUE(in.good());
  std::vector<char> head(12);
  in.read(head.data(), static_cast<std::streamsize>(head.size()));
  ASSERT_EQ(in.gcount(), static_cast<std::streamsize>(head.size()));
  const std::string truncated =
      testing::TempDir() + "api_test_truncated.trace";
  std::ofstream(truncated, std::ios::binary)
      .write(head.data(), static_cast<std::streamsize>(head.size()));

  char* json = nullptr;
  EXPECT_EQ(gather_replay_trace(truncated.c_str(), &json),
            GATHER_STATUS_TRACE);
  EXPECT_EQ(json, nullptr);
  EXPECT_EQ(gather_replay_trace("/nonexistent/api_test.trace", &json),
            GATHER_STATUS_TRACE);
  EXPECT_NE(std::string(gather_last_error()).size(), 0u);
}

TEST(CAbiTest, NullArgumentsAreArgumentStatus) {
  ServiceHandle service;
  char* json = nullptr;
  gather_cache_stats_s stats;
  EXPECT_EQ(gather_run_json(nullptr, kRunSpecText, &json),
            GATHER_STATUS_ARGUMENT);
  EXPECT_EQ(gather_run_json(service.ptr, nullptr, &json),
            GATHER_STATUS_ARGUMENT);
  EXPECT_EQ(gather_run_json(service.ptr, kRunSpecText, nullptr),
            GATHER_STATUS_ARGUMENT);
  EXPECT_EQ(gather_sweep_csv(nullptr, "k=3\n", &json),
            GATHER_STATUS_ARGUMENT);
  EXPECT_EQ(gather_replay_trace(nullptr, &json), GATHER_STATUS_ARGUMENT);
  EXPECT_EQ(gather_cache_stats(nullptr, &stats), GATHER_STATUS_ARGUMENT);
  EXPECT_EQ(gather_cache_stats(service.ptr, nullptr),
            GATHER_STATUS_ARGUMENT);
  EXPECT_EQ(gather_service_clear_caches(nullptr), GATHER_STATUS_ARGUMENT);
  EXPECT_NE(std::string(gather_last_error()).find("NULL"), std::string::npos);
  // NULL is a documented no-op, not a crash.
  gather_service_free(nullptr);
  gather_free(nullptr);
}

// ---- 4. version and status names ------------------------------------------

TEST(CAbiTest, VersionMatchesHeaderConstants) {
  EXPECT_STREQ(gather_version(), GATHER_VERSION_STRING);
  EXPECT_EQ(gather_version_major(), GATHER_VERSION_MAJOR);
  EXPECT_EQ(gather_version_minor(), GATHER_VERSION_MINOR);
  EXPECT_EQ(gather_version_patch(), GATHER_VERSION_PATCH);
}

TEST(CAbiTest, StatusNamesAreStable) {
  EXPECT_STREQ(gather_status_name(GATHER_STATUS_OK), "ok");
  EXPECT_STREQ(gather_status_name(GATHER_STATUS_VIOLATION), "violation");
  EXPECT_STREQ(gather_status_name(GATHER_STATUS_USAGE), "usage");
  EXPECT_STREQ(gather_status_name(GATHER_STATUS_INTERNAL), "internal");
  EXPECT_STREQ(gather_status_name(GATHER_STATUS_TRACE), "trace");
  EXPECT_STREQ(gather_status_name(GATHER_STATUS_ARGUMENT), "argument");
  EXPECT_STREQ(gather_status_name(static_cast<gather_status>(99)), "unknown");
}

}  // namespace
