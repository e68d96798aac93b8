// e2e_front — the untraced end-to-end benchmark. It drives libgather
// only through the two front doors of include/libgather.h
// (gather_sweep_csv and gather_run_json), checks every output, and
// prints one JSON object of raw measurements as its last stdout line.
//
//   e2e_front --workload <name> --seed <S> --seconds <T>
//
// Exit status: 0 when every operation passed its check, 1 when any
// failed (the JSON is still printed), 2 on a usage error.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "helpers.hpp"
#include "libgather.h"
#include "workloads.hpp"

namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
};

/// Failed operations against attempted ones, plus the first few reasons.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> reasons;

  void fail(std::uint64_t ops, const std::string& why) {
    failed += ops;
    if (reasons.size() < 8) reasons.push_back(why);
  }
};

/// Peak resident set of this process image. VmHWM, not ru_maxrss: the
/// latter keeps the high-water mark of the forked parent from before
/// exec, so it would report the launcher's memory, not the benchmark's.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

/// Lowers the peak resident set to the current one (Linux 4.0 and
/// later), so the next peak_rss_mb() is the peak of one operation. The
/// process-wide peak also holds the set-up probes and whichever malloc
/// arenas the library's threads happened to grow; the median of
/// per-operation peaks is the operation's own footprint. Where the
/// kernel refuses, the peaks are the process's and only ever grow.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

gather_cache_stats_s cache_stats(const gather_service* service) {
  gather_cache_stats_s stats{};
  if (gather_cache_stats(service, &stats) != GATHER_STATUS_OK) {
    std::memset(&stats, 0, sizeof stats);
  }
  return stats;
}

double ratio(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
}

/// Value of a top-level scalar field of a gather_run_json response.
std::string json_field(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return "";
  const std::size_t begin = at + needle.size();
  const std::size_t end = json.find_first_of(",}", begin);
  return json.substr(begin, end - begin);
}

/// A response minus its cache_hit flag: what must repeat for one spec.
std::string without_cache_hit(const std::string& json) {
  const std::size_t at = json.find(", \"cache_hit\": ");
  return at == std::string::npos ? json : json.substr(0, at);
}

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  char buf[64];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.9g", i == 0 ? "" : ",", values[i]);
    out += buf;
  }
  return out + "]";
}

std::int64_t clock_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// CPU time of every thread of this process, ended ones included. Unlike
/// wall time it leaves out the time a thread waits for a core (other
/// tenants, stolen vCPU time), which moved a 4-worker pass by a third
/// between runs of the same code.
std::int64_t cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

/// CPU time of the calling thread: one serve-zipf client's request.
std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(e2e::now_ns() - t0_ns) * 1e-9;
}

double cpu_seconds_since(std::int64_t c0_ns) {
  return static_cast<double>(cpu_ns() - c0_ns) * 1e-9;
}

/// Counters accumulated between two snapshots; sizes as of `after`.
gather_cache_stats_s since(const gather_cache_stats_s& after,
                           const gather_cache_stats_s& before) {
  gather_cache_stats_s d = after;
  d.graph_hits -= before.graph_hits;
  d.graph_misses -= before.graph_misses;
  d.graph_evictions -= before.graph_evictions;
  d.result_hits -= before.result_hits;
  d.result_misses -= before.result_misses;
  d.result_evictions -= before.result_evictions;
  return d;
}

/// The cache fields every workload reports (per-layer metrics).
void cache_fields(e2e::JsonObject& json, const gather_cache_stats_s& s) {
  json.num("result_cache_hit_ratio", ratio(s.result_hits, s.result_hits + s.result_misses))
      .integer("result_cache_evictions", s.result_evictions)
      .num("graph_cache_hit_ratio", ratio(s.graph_hits, s.graph_hits + s.graph_misses))
      .integer("graph_cache_evictions", s.graph_evictions)
      .num("graph_cache_resident_mb",
           static_cast<double>(s.graph_resident_bytes) / (1024.0 * 1024.0));
}

/// The CPU-time fields every workload reports, the gated ones; `cpu_s`
/// holds one CPU time per operation, sorted.
void cpu_fields(e2e::JsonObject& json, const std::vector<double>& setup_cpu_s,
                const std::vector<double>& cpu_s, double rows_per_cpu_s) {
  json.num("setup_s", e2e::median(setup_cpu_s))
      .num("cpu_rows_per_s", rows_per_cpu_s)
      .num("cpu_op_ms_p50", e2e::median(cpu_s) * 1e3)
      .num("cpu_op_ms_tail", e2e::tail_value(cpu_s, 99.0) * 1e3)
      .num("tail_percentile", e2e::tail_percentile(cpu_s.size(), 99.0));
}

/// The end-to-end fields of a pass-based workload (sweeps, swarm): the
/// CPU-time ones, then their wall-time counterparts.
void pass_fields(e2e::JsonObject& json, const std::vector<double>& setup_cpu_s,
                 std::vector<double> pass_s,
                 std::vector<double> pass_cpu_s, const std::vector<double>& pass_rss_mb,
                 std::size_t rows_per_pass) {
  const double median = e2e::median(pass_s);
  const std::string list = json_list(pass_s);
  const std::string cpu_list = json_list(pass_cpu_s);
  std::sort(pass_s.begin(), pass_s.end());
  std::sort(pass_cpu_s.begin(), pass_cpu_s.end());
  cpu_fields(json, setup_cpu_s, pass_cpu_s,
             static_cast<double>(rows_per_pass) / e2e::median(pass_cpu_s));
  json.num("peak_rss_mb", e2e::median(pass_rss_mb))
      .integer("ops", pass_s.size())
      .num("rows_per_s", static_cast<double>(rows_per_pass) / median)
      .num("op_ms_p50", median * 1e3)
      .num("op_ms_p99", e2e::tail_value(pass_s, 99.0) * 1e3)
      .num("pass_s_median", median)
      .raw("pass_s", list)
      .raw("pass_cpu_s", cpu_list);
}

/// Start passes until the next would run past the budget (at least
/// `min_passes`), so a run measures for about `seconds`. A pass costs
/// its set-up and checks too, so the estimate of the next one is the
/// mean wall time of the iterations so far.
bool another_pass(std::int64_t start_ns, std::size_t passes, double seconds,
                  std::size_t min_passes) {
  if (passes < min_passes) return true;
  const double spent = seconds_since(start_ns);
  return spent + spent / static_cast<double>(passes) <= seconds;
}

// ---------------------------------------------------------------------------
// acceptance-cold / sync-regimes: one gather_sweep_csv per pass, each on
// a fresh service.
// ---------------------------------------------------------------------------

std::string run_sweep(const Options& opt, Tally& tally) {
  const bool acceptance = opt.workload == "acceptance-cold";
  const std::size_t expected_rows = acceptance ? e2e::kAcceptanceRows : e2e::kSyncRows;

  // Set-up, repeated before every pass so its median spans the run:
  // generate the spec text and run the cheap probe slice on a fresh
  // service (registries, graph builders, first-touch allocations).
  std::string text;
  std::vector<double> setup_s;
  const auto setup = [&] {
    const std::int64_t c0 = cpu_ns();
    text = acceptance ? e2e::acceptance_sweep_text() : e2e::sync_sweep_text();
    gather_service* probe = gather_service_new();
    char* csv = nullptr;
    if (gather_sweep_csv(probe, e2e::sweep_probe_text().c_str(), &csv) !=
        GATHER_STATUS_OK) {
      tally.fail(1, std::string("set-up probe: ") + gather_last_error());
    }
    gather_free(csv);
    gather_service_free(probe);
    setup_s.push_back(cpu_seconds_since(c0));
  };

  std::vector<double> pass_s;
  std::vector<double> pass_cpu_s;
  std::vector<double> pass_rss_mb;
  std::string first_csv;
  std::uint64_t violation_rows = 0;
  gather_cache_stats_s stats{};
  const std::int64_t start = e2e::now_ns();
  while (another_pass(start, pass_s.size(), opt.seconds, 3)) {
    setup();
    reset_peak_rss();
    const std::int64_t c0 = cpu_ns();
    const std::int64_t t0 = e2e::now_ns();
    gather_service* service = gather_service_new();
    char* out = nullptr;
    const gather_status status = gather_sweep_csv(service, text.c_str(), &out);
    const std::int64_t t1 = e2e::now_ns();
    pass_cpu_s.push_back(cpu_seconds_since(c0));
    pass_rss_mb.push_back(peak_rss_mb());
    // Read before the next ABI call on this thread replaces it.
    const std::string error = status == GATHER_STATUS_OK ? "" : gather_last_error();
    stats = cache_stats(service);
    const std::string csv = out == nullptr ? "" : out;
    gather_free(out);
    gather_service_free(service);
    pass_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    tally.attempted += expected_rows;
    if (status != GATHER_STATUS_OK) {
      tally.fail(expected_rows, std::string("sweep status ") +
                                    gather_status_name(status) + ": " + error);
      continue;
    }
    if (first_csv.empty()) {
      first_csv = csv;
    } else if (csv != first_csv) {
      tally.fail(expected_rows, "pass CSV bytes differ from the first pass");
      continue;
    }
    try {
      const e2e::Csv table = e2e::Csv::parse(csv);
      if (table.rows() != expected_rows) {
        tally.fail(expected_rows, "pass has " + std::to_string(table.rows()) +
                                      " rows, want " +
                                      std::to_string(expected_rows));
        continue;
      }
      std::uint64_t violations = 0;
      for (std::size_t r = 0; r < table.rows(); ++r) {
        const bool violation = table.at(r, "violation") == "1";
        if (table.at(r, "scheduler") == "synchronous") {
          if (table.at(r, "gathered") != "1" || table.at(r, "detection") != "1" ||
              violation) {
            tally.fail(1, "synchronous row " + std::to_string(r) + " (" +
                              table.at(r, "family") + ") not gathered with detection");
          }
        } else if (violation) {
          ++violations;  // tolerated outcome under an adversarial scheduler
        }
      }
      violation_rows = violations;
    } catch (const std::exception& e) {
      tally.fail(expected_rows, std::string("CSV: ") + e.what());
    }
  }
  e2e::JsonObject json;
  pass_fields(json, setup_s, pass_s, pass_cpu_s, pass_rss_mb, expected_rows);
  json.integer("violation_rows", violation_rows)
      .str("csv_fnv1a", std::to_string(e2e::fnv1a(first_csv)))
      .integer("dup_sims", 0);
  cache_fields(json, stats);
  return json.text();
}

// ---------------------------------------------------------------------------
// serve-zipf: one long-lived service, closed-loop clients.
// ---------------------------------------------------------------------------

struct Miss {
  std::size_t spec;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

/// The first response seen for each pool spec (cache_hit stripped);
/// every later response for that spec must equal it.
class FirstResponses {
 public:
  explicit FirstResponses(std::size_t n) : first_(n) {}
  bool agrees(std::size_t spec, const std::string& response) {
    std::lock_guard<std::mutex> lock(stripes_[spec % kStripes]);
    std::string& first = first_[spec];
    if (first.empty()) {
      first = response;
      return true;
    }
    return first == response;
  }

 private:
  static constexpr std::size_t kStripes = 64;
  std::mutex stripes_[kStripes];
  std::vector<std::string> first_;
};

/// Latency samples kept per client; 4 x 65536 is enough for the p99 of
/// any run (2621 samples beyond it).
constexpr std::size_t kLatencySamples = 1 << 16;

struct ClientLog {
  explicit ClientLog(std::uint64_t seed)
      : latency_us(kLatencySamples, seed), cpu_us(kLatencySamples, seed) {}
  e2e::Reservoir<float> latency_us;
  e2e::Reservoir<float> cpu_us;
  double latency_sum_us = 0.0;
  std::vector<Miss> misses;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string reason;
};

/// One request through the front door, checked; returns false on failure.
bool serve_one(gather_service* service, const std::vector<std::string>& pool,
               std::size_t spec, FirstResponses& first, ClientLog& log,
               bool timed) {
  char* out = nullptr;
  const std::int64_t c0 = timed ? thread_cpu_ns() : 0;
  const std::int64_t t0 = e2e::now_ns();
  const gather_status status = gather_run_json(service, pool[spec].c_str(), &out);
  const std::int64_t t1 = e2e::now_ns();
  const std::int64_t c1 = timed ? thread_cpu_ns() : 0;
  const std::string json = out == nullptr ? "" : out;
  gather_free(out);
  ++log.attempted;
  std::string why;
  if (status != GATHER_STATUS_OK) {
    why = std::string("status ") + gather_status_name(status) + ": " +
          gather_last_error();
  } else if (json_field(json, "gathered") != "true" ||
             json_field(json, "detection_correct") != "true") {
    why = "not gathered with detection";
  } else if (!first.agrees(spec, without_cache_hit(json))) {
    why = "response differs from the first for its spec";
  }
  if (timed) {
    const double us = static_cast<double>(t1 - t0) * 1e-3;
    log.latency_us.add(static_cast<float>(us));
    log.cpu_us.add(static_cast<float>(static_cast<double>(c1 - c0) * 1e-3));
    log.latency_sum_us += us;
    if (json_field(json, "cache_hit") == "false") log.misses.push_back({spec, t0, t1});
  }
  if (!why.empty()) {
    ++log.failed;
    if (log.reason.empty()) log.reason = "spec " + std::to_string(spec) + ": " + why;
    return false;
  }
  return true;
}

/// Misses of one spec whose intervals overlap an earlier miss of the
/// same spec: simulations another client was already running.
std::uint64_t concurrent_duplicates(std::vector<Miss> misses) {
  std::sort(misses.begin(), misses.end(), [](const Miss& a, const Miss& b) {
    return a.spec != b.spec ? a.spec < b.spec : a.start_ns < b.start_ns;
  });
  std::uint64_t dups = 0;
  std::int64_t reach = 0;  // latest end among this spec's earlier misses
  for (std::size_t i = 0; i < misses.size(); ++i) {
    if (i > 0 && misses[i].spec == misses[i - 1].spec) {
      if (misses[i].start_ns < reach) ++dups;
      reach = std::max(reach, misses[i].end_ns);
    } else {
      reach = misses[i].end_ns;
    }
  }
  return dups;
}

std::string run_serve(const Options& opt, Tally& tally) {
  std::vector<std::string> pool;
  std::vector<std::size_t> perm;
  gather_service* service = nullptr;
  std::vector<ClientLog> logs;
  for (std::size_t c = 0; c < e2e::kServeClients; ++c) {
    logs.emplace_back(e2e::stream_seed(opt.seed, 100 + c));
  }
  // Shared by every set-up: a fresh service must answer as the last did.
  FirstResponses first(e2e::serve_pool().size());

  // Set-up: build the pool and the seeded rank -> spec map, open the
  // service, and warm its result cache with the kServeWarmRanks hottest
  // specs, split across the clients. Done three times; the last service
  // is the one measured.
  std::vector<double> setup_s;
  for (int rep = 0; rep < 3; ++rep) {
    const std::int64_t c0 = cpu_ns();
    gather_service_free(service);
    pool = e2e::serve_pool();
    perm = e2e::seeded_permutation(pool.size(), e2e::stream_seed(opt.seed, 0));
    service = gather_service_new();
    std::vector<std::thread> workers;
    for (std::size_t c = 0; c < e2e::kServeClients; ++c) {
      workers.emplace_back([&, c] {
        for (std::size_t r = c; r < e2e::kServeWarmRanks; r += e2e::kServeClients) {
          serve_one(service, pool, perm[r], first, logs[c], false);
        }
      });
    }
    for (std::thread& w : workers) w.join();
    setup_s.push_back(cpu_seconds_since(c0));
  }

  const gather_cache_stats_s before = cache_stats(service);
  const e2e::Zipf zipf(pool.size(), e2e::kZipfS);
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  reset_peak_rss();
  const std::int64_t c0 = cpu_ns();
  const std::int64_t t0 = e2e::now_ns();
  for (std::size_t c = 0; c < e2e::kServeClients; ++c) {
    clients.emplace_back([&, c] {
      e2e::Rng rng(e2e::stream_seed(opt.seed, 1 + c));
      while (!stop.load(std::memory_order_relaxed)) {
        serve_one(service, pool, perm[zipf.draw(rng)], first, logs[c], true);
      }
    });
  }
  const auto budget = std::chrono::duration<double>(opt.seconds);
  std::this_thread::sleep_for(budget);
  stop.store(true);
  for (std::thread& c : clients) c.join();
  const double window_s = seconds_since(t0);
  const double window_cpu_s = cpu_seconds_since(c0);
  const double window_rss_mb = peak_rss_mb();
  const gather_cache_stats_s window = since(cache_stats(service), before);
  gather_service_free(service);

  std::vector<float> latency;
  std::vector<double> cpu_s;
  std::vector<Miss> misses;
  std::uint64_t requests = 0;
  double latency_sum_us = 0.0;
  std::string per_client;
  for (const ClientLog& log : logs) {
    tally.attempted += log.attempted;
    if (log.failed > 0) tally.fail(log.failed, log.reason);
    const std::vector<float>& kept = log.latency_us.kept();
    latency.insert(latency.end(), kept.begin(), kept.end());
    for (const float us : log.cpu_us.kept()) cpu_s.push_back(us * 1e-6);
    misses.insert(misses.end(), log.misses.begin(), log.misses.end());
    requests += log.latency_us.seen();
    latency_sum_us += log.latency_sum_us;
    if (!per_client.empty()) per_client += ',';
    per_client += std::to_string(log.latency_us.seen());
  }
  std::sort(latency.begin(), latency.end());
  std::sort(cpu_s.begin(), cpu_s.end());

  e2e::JsonObject json;
  cpu_fields(json, setup_s, cpu_s, static_cast<double>(requests) / window_cpu_s);
  json.num("peak_rss_mb", window_rss_mb)
      .num("rows_per_s", static_cast<double>(requests) / window_s)
      .num("op_ms_p50", e2e::median(latency) * 1e-3)
      .num("op_ms_p99", e2e::tail_value(latency, 99.0) * 1e-3)
      .integer("ops", requests)
      .integer("latency_samples", latency.size())
      .num("mean_request_us",
           requests == 0 ? 0.0 : latency_sum_us / static_cast<double>(requests))
      .raw("requests_per_client", "[" + per_client + "]")
      .integer("violation_rows", 0)
      .integer("dup_sims", concurrent_duplicates(misses));
  cache_fields(json, window);
  return json.text();
}

// ---------------------------------------------------------------------------
// swarm-implicit: two bounded probes per pass, each on a fresh service.
// ---------------------------------------------------------------------------

std::string run_swarm(const Options& opt, Tally& tally) {
  // Set-up, repeated before every pass: the probe texts and one small
  // implicit-grid run on a fresh service.
  std::vector<std::string> texts;
  std::vector<double> setup_s;
  const auto setup = [&] {
    const std::int64_t c0 = cpu_ns();
    texts = e2e::swarm_texts(opt.seed);
    gather_service* probe = gather_service_new();
    char* out = nullptr;
    if (gather_run_json(probe, e2e::swarm_probe_text().c_str(), &out) !=
        GATHER_STATUS_OK) {
      tally.fail(1, std::string("set-up probe: ") + gather_last_error());
    }
    gather_free(out);
    gather_service_free(probe);
    setup_s.push_back(cpu_seconds_since(c0));
  };

  std::vector<double> pass_s;
  std::vector<double> pass_cpu_s;
  std::vector<double> pass_rss_mb;
  std::vector<std::string> first;
  gather_cache_stats_s stats{};
  const std::int64_t start = e2e::now_ns();
  while (another_pass(start, pass_s.size(), opt.seconds, 2)) {
    setup();
    first.resize(texts.size());
    double pass = 0.0;
    reset_peak_rss();
    const std::int64_t c0 = cpu_ns();
    for (std::size_t i = 0; i < texts.size(); ++i) {
      const std::int64_t t0 = e2e::now_ns();
      gather_service* service = gather_service_new();
      char* out = nullptr;
      const gather_status status = gather_run_json(service, texts[i].c_str(), &out);
      const std::int64_t t1 = e2e::now_ns();
      const std::string error = status == GATHER_STATUS_OK ? "" : gather_last_error();
      stats = cache_stats(service);
      const std::string json = out == nullptr ? "" : out;
      gather_free(out);
      gather_service_free(service);
      pass += static_cast<double>(t1 - t0) * 1e-9;
      ++tally.attempted;
      if (status != GATHER_STATUS_OK) {
        tally.fail(1, std::string("probe status ") + gather_status_name(status) +
                          ": " + error);
      } else if (first[i].empty()) {
        first[i] = without_cache_hit(json);
      } else if (without_cache_hit(json) != first[i]) {
        tally.fail(1, "probe " + std::to_string(i) + " response (trace_hash " +
                          json_field(json, "trace_hash") + ") differs across passes");
      }
    }
    pass_s.push_back(pass);
    pass_cpu_s.push_back(cpu_seconds_since(c0));
    pass_rss_mb.push_back(peak_rss_mb());
  }

  std::string hashes;
  for (const std::string& json : first) {
    if (!hashes.empty()) hashes += ',';
    hashes += "\"" + json_field(json, "trace_hash") + "\"";
  }
  e2e::JsonObject json;
  pass_fields(json, setup_s, pass_s, pass_cpu_s, pass_rss_mb, texts.size());
  json.integer("violation_rows", 0)
      .raw("trace_hashes", "[" + hashes + "]")
      .integer("dup_sims", 0);
  cache_fields(json, stats);
  return json.text();
}

bool parse_options(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt.workload.empty() && opt.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_options(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: e2e_front --workload <name> --seed <S> --seconds <T>\n");
    return 2;
  }
  Tally tally;
  std::string body;
  if (opt.workload == "acceptance-cold" || opt.workload == "sync-regimes") {
    body = run_sweep(opt, tally);
  } else if (opt.workload == "serve-zipf") {
    body = run_serve(opt, tally);
  } else if (opt.workload == "swarm-implicit") {
    body = run_swarm(opt, tally);
  } else {
    std::fprintf(stderr, "e2e_front: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  for (const std::string& why : tally.reasons) {
    std::fprintf(stderr, "e2e_front: FAILED %s\n", why.c_str());
  }
  // Splice the shared fields into the workload's object.
  e2e::JsonObject shared;
  shared.str("workload", opt.workload)
      .integer("attempted", tally.attempted)
      .integer("failed", tally.failed)
      .str("library_version", gather_version())
      .str("build_type", E2E_BUILD_TYPE)
      .str("compiler", E2E_COMPILER);
  const std::string head = shared.text();
  std::printf("%s, %s\n", head.substr(0, head.size() - 1).c_str(), body.substr(1).c_str());
  return tally.failed == 0 ? 0 : 1;
}
