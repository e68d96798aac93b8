// e2e_traced — the traced run of the end-to-end benchmark. It replays
// the operations e2e_front sends through the C ABI, but calls the
// public C++ layer functions itself, in the order gather::Service::run
// and scenario::SweepRunner::run call them:
//
//   api::parse_*_spec -> scenario::fingerprint -> ResultCache::lookup
//   -> scenario::resolve_graph -> scenario::resolve
//   -> scenario::run_resolved -> ResultCache::store
//   (sweeps: SweepRunner::enumerate before, SweepRunner::write_csv after)
//
// and records a span around each call. Spans are kept in memory, written
// to <out-dir>/spans-<workload>.tsv at exit, and reduced to
// per-layer self times and counters, printed as one JSON object on the
// last stdout line.
//
//   e2e_traced --workload <name> --seed <S> --out-dir <dir>
//              [--requests-per-client a,b,c,d]   (serve-zipf)
//
// Two deliberate differences from the untraced path, both visible in
// trace.overhead: resolve_graph calls are serialized behind one mutex so
// a graph-cache miss can be attributed from the cache's own counter, and
// the extra resolve_graph call makes resolve()'s internal lookup a hit,
// so resolve's span holds only the rest of resolution.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/service.hpp"
#include "api/spec_text.hpp"
#include "helpers.hpp"
#include "libgather.h"
#include "scenario/caches.hpp"
#include "scenario/scenario.hpp"
#include "scenario/sweep.hpp"
#include "support/assert.hpp"
#include "support/parallel_for.hpp"
#include "workloads.hpp"

namespace {

using gather::scenario::Caches;
using gather::scenario::ScenarioSpec;
using gather::scenario::SweepRow;

// ---------------------------------------------------------------------------
// Span recording
// ---------------------------------------------------------------------------

/// Every committed span of the run, in commit order.
class Trace {
 public:
  void commit(const std::vector<e2e::Span>& op_spans) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto base = static_cast<std::int64_t>(spans_.size());
    for (e2e::Span span : op_spans) {
      if (span.parent >= 0) span.parent += base;
      spans_.push_back(span);
    }
  }
  const std::vector<e2e::Span>& spans() const { return spans_; }

 private:
  std::mutex mutex_;
  std::vector<e2e::Span> spans_;
};

/// The spans of one operation, recorded on the thread running it and
/// committed whole when it ends.
struct OpRecorder {
  OpRecorder(Trace& trace, std::uint64_t op) : trace(trace), op(op) {}
  ~OpRecorder() { trace.commit(spans); }
  OpRecorder(const OpRecorder&) = delete;
  OpRecorder& operator=(const OpRecorder&) = delete;

  Trace& trace;
  std::uint64_t op;
  std::vector<e2e::Span> spans;
  std::int64_t current = -1;
};

/// A span from construction to destruction, nested under the
/// recorder's innermost open span.
class Scope {
 public:
  Scope(OpRecorder& rec, const char* name, const char* tag = "")
      : rec_(rec), index_(rec.spans.size()), parent_(rec.current) {
    rec.spans.push_back(e2e::Span{name, e2e::now_ns(), 0, parent_, rec.op, tag});
    rec.current = static_cast<std::int64_t>(index_);
  }
  ~Scope() {
    rec_.spans[index_].end_ns = e2e::now_ns();
    rec_.current = parent_;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void tag(const char* tag) { rec_.spans[index_].tag = tag; }

 private:
  OpRecorder& rec_;
  std::size_t index_;
  std::int64_t parent_;
};

const char* scheduler_tag(const std::string& name) {
  for (const char* known :
       {"synchronous", "adversarial-delay", "semi-synchronous", "crash-fault"}) {
    if (name == known) return known;
  }
  return "other";
}

/// One simulation's counters, keyed by scheduler.
struct SimRecord {
  const char* scheduler = "";
  std::int64_t ns = 0;
  bool violation = false;
  bool exact = true;  ///< part of a set that repeats exactly per seed
  gather::sim::RunMetrics metrics;
};

/// Shared state of a traced replay.
struct Context {
  Trace trace;
  std::mutex graph_gate;  ///< serializes resolve_graph for miss attribution
  std::mutex sims_mutex;
  std::vector<SimRecord> sims;
  std::atomic<std::uint64_t> next_op{0};
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
  std::mutex reason_mutex;
  std::string reason;

  void fail(const std::string& why) {
    ++failed;
    std::lock_guard<std::mutex> lock(reason_mutex);
    if (reason.empty()) reason = why;
  }
  void record(const SimRecord& sim) {
    std::lock_guard<std::mutex> lock(sims_mutex);
    sims.push_back(sim);
  }
};

std::shared_ptr<const gather::graph::Topology> traced_resolve_graph(
    Context& ctx, OpRecorder& rec, const ScenarioSpec& spec,
    gather::scenario::GraphCache& cache) {
  std::lock_guard<std::mutex> lock(ctx.graph_gate);
  const std::uint64_t misses = cache.stats().misses;
  Scope span(rec, "scenario.resolve_graph", "hit");
  auto graph = gather::scenario::resolve_graph(spec, cache);
  if (cache.stats().misses > misses) span.tag("miss");
  return graph;
}

/// run_resolved under a span; a tolerated ProtocolViolation (adversarial
/// scheduler, tolerance on) returns true, anything else propagates.
bool traced_run(Context& ctx, OpRecorder& rec,
                const gather::scenario::ResolvedScenario& resolved,
                const ScenarioSpec& spec, bool tolerate, bool exact,
                gather::core::RunOutcome& outcome) {
  SimRecord sim;
  sim.scheduler = scheduler_tag(spec.scheduler);
  sim.exact = exact;
  const std::int64_t t0 = e2e::now_ns();
  {
    Scope span(rec, "scenario.run_resolved", sim.scheduler);
    try {
      outcome = gather::scenario::run_resolved(resolved, "");
    } catch (const gather::ProtocolViolation&) {
      const gather::sim::Scheduler* sched = resolved.run_spec.scheduler.get();
      const bool benign = sched == nullptr || !sched->adversarial();
      if (!tolerate || benign) throw;
      sim.violation = true;
    }
  }
  sim.ns = e2e::now_ns() - t0;
  if (!sim.violation) sim.metrics = outcome.result.metrics;
  ctx.record(sim);
  return sim.violation;
}

// ---------------------------------------------------------------------------
// Sweeps: SweepRunner::run's per-point body, traced.
// ---------------------------------------------------------------------------

struct SweepResult {
  std::string csv;
  double pass_s = 0.0;
  /// Σ row wall ÷ (workers × pass wall), both from this one pass.
  double busy_ratio = 0.0;
};

SweepResult traced_sweep(Context& ctx, const std::string& text) {
  SweepResult result;
  Caches caches;  // a fresh service's caches
  std::vector<SweepRow> rows;
  std::vector<std::int64_t> row_ns;
  unsigned threads = 1;
  const std::int64_t t0 = e2e::now_ns();
  {
    OpRecorder pass(ctx.trace, ctx.next_op++);
    Scope root(pass, "sweep.pass");
    gather::scenario::SweepSpec sweep;
    {
      Scope span(pass, "api.parse_sweep_spec");
      sweep = gather::api::parse_sweep_spec(text);
    }
    std::vector<gather::scenario::SweepPoint> points;
    {
      Scope span(pass, "scenario.enumerate");
      points = gather::scenario::SweepRunner::enumerate(sweep);
    }
    threads =
        sweep.threads == 0 ? gather::support::default_thread_count() : sweep.threads;
    const bool memo = sweep.use_result_cache && sweep.trace_dir.empty();
    std::vector<char> infeasible(points.size(), 0);
    row_ns.assign(points.size(), 0);
    {
      Scope span(pass, "support.parallel_for");
      rows = gather::support::parallel_map_index<SweepRow>(
          points.size(), threads,
          [&](std::size_t i) {
            const gather::scenario::SweepPoint& point = points[i];
            SweepRow row;
            row.spec = point.spec;
            row.k_rule = point.k_rule;
            OpRecorder rec(ctx.trace, ctx.next_op++);
            Scope root_span(rec, "sweep.row");
            const std::int64_t r0 = e2e::now_ns();
            std::string fp;
            if (memo) {
              {
                Scope span(rec, "scenario.fingerprint");
                fp = gather::scenario::fingerprint(point.spec);
              }
              Scope span(rec, "scenario.result_cache.lookup");
              if (const auto hit = caches.results.lookup(fp)) {
                row.realized_n = hit->realized_n;
                row.min_pair_distance = hit->min_pair_distance;
                row.outcome = hit->outcome;
                row_ns[i] = e2e::now_ns() - r0;
                return row;
              }
            }
            gather::scenario::ResolvedScenario resolved;
            try {
              (void)traced_resolve_graph(ctx, rec, point.spec, caches.graphs);
              Scope span(rec, "scenario.resolve");
              resolved = gather::scenario::resolve(point.spec, caches.graphs);
            } catch (const gather::scenario::ScenarioError&) {
              if (!sweep.skip_infeasible) throw;
              infeasible[i] = 1;
              return row;
            } catch (const gather::ContractViolation&) {
              if (!sweep.skip_infeasible) throw;
              infeasible[i] = 1;
              return row;
            }
            row.realized_n = resolved.realized_n;
            row.min_pair_distance = resolved.min_pair_distance;
            row.protocol_violation =
                traced_run(ctx, rec, resolved, point.spec,
                           sweep.tolerate_protocol_violations, true, row.outcome);
            if (memo && !row.protocol_violation) {
              Scope span(rec, "scenario.result_cache.store");
              caches.results.store(fp, gather::scenario::CachedRun{
                                           row.realized_n, row.min_pair_distance,
                                           row.outcome});
            }
            row_ns[i] = e2e::now_ns() - r0;
            return row;
          },
          sweep.steal_chunk);
    }
    std::vector<SweepRow> kept;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (!infeasible[i]) kept.push_back(std::move(rows[i]));
    }
    rows = std::move(kept);
    std::ostringstream os;
    {
      Scope span(pass, "api.write_csv");
      gather::scenario::SweepRunner::write_csv(os, rows);
    }
    result.csv = os.str();
  }
  result.pass_s = static_cast<double>(e2e::now_ns() - t0) * 1e-9;
  double row_work_s = 0.0;
  for (const std::int64_t ns : row_ns) row_work_s += static_cast<double>(ns) * 1e-9;
  result.busy_ratio = row_work_s / (threads * result.pass_s);
  ctx.attempted += rows.size();
  return result;
}

// ---------------------------------------------------------------------------
// Service::run, traced (serve-zipf and swarm-implicit).
// ---------------------------------------------------------------------------

/// One request: parse, then Service::run's body. Returns the outcome.
gather::core::RunOutcome traced_request(Context& ctx, gather::Service& service,
                                        const std::string& text,
                                        const char* root_name, bool exact,
                                        std::int64_t* root_ns = nullptr) {
  OpRecorder rec(ctx.trace, ctx.next_op++);
  gather::core::RunOutcome outcome;
  const std::int64_t t0 = e2e::now_ns();
  {
    Scope root(rec, root_name);
    ScenarioSpec spec;
    {
      Scope span(rec, "api.parse_run_spec");
      spec = gather::api::parse_run_spec(text);
    }
    std::string fp;
    {
      Scope span(rec, "scenario.fingerprint");
      fp = gather::scenario::fingerprint(spec);
    }
    std::optional<gather::scenario::CachedRun> hit;
    {
      Scope span(rec, "scenario.result_cache.lookup");
      hit = service.caches().results.lookup(fp);
    }
    if (hit) {
      outcome = hit->outcome;
    } else {
      Caches& caches = service.caches();
      (void)traced_resolve_graph(ctx, rec, spec, caches.graphs);
      gather::scenario::ResolvedScenario resolved;
      {
        Scope span(rec, "scenario.resolve");
        resolved = gather::scenario::resolve(spec, caches.graphs);
      }
      (void)traced_run(ctx, rec, resolved, spec, false, exact, outcome);
      Scope span(rec, "scenario.result_cache.store");
      caches.results.store(fp, gather::scenario::CachedRun{
                                   resolved.realized_n, resolved.min_pair_distance,
                                   outcome});
    }
  }
  if (root_ns != nullptr) *root_ns = e2e::now_ns() - t0;
  ++ctx.attempted;
  return outcome;
}

struct ServeResult {
  double mean_request_us = 0.0;
  double boundary_us = 0.0;
};

ServeResult traced_serve(Context& ctx, std::uint64_t seed,
                         const std::vector<std::size_t>& requests_per_client) {
  const std::vector<std::string> pool = e2e::serve_pool();
  const std::vector<std::size_t> perm =
      e2e::seeded_permutation(pool.size(), e2e::stream_seed(seed, 0));
  gather::Service service;
  const auto check = [&](std::size_t spec, const gather::core::RunOutcome& o) {
    if (!o.result.gathered_at_end || !o.result.detection_correct) {
      ctx.fail("serve spec " + std::to_string(spec) + " not gathered with detection");
    }
  };
  const auto run_clients = [&](const auto& body) {
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < e2e::kServeClients; ++c) {
      clients.emplace_back([&, c] {
        try {
          body(c);
        } catch (const std::exception& e) {
          ctx.fail(std::string("serve client: ") + e.what());
        }
      });
    }
    for (std::thread& t : clients) t.join();
  };
  // The warm-up is traced too: its simulations are the exact sim.* set.
  run_clients([&](std::size_t c) {
    for (std::size_t r = c; r < e2e::kServeWarmRanks; r += e2e::kServeClients) {
      check(perm[r], traced_request(ctx, service, pool[perm[r]], "serve.warmup", true));
    }
  });
  const e2e::Zipf zipf(pool.size(), e2e::kZipfS);
  std::vector<std::int64_t> total_ns(e2e::kServeClients, 0);
  std::vector<std::size_t> count(e2e::kServeClients, 0);
  run_clients([&](std::size_t c) {
    e2e::Rng rng(e2e::stream_seed(seed, 1 + c));
    const std::size_t n = c < requests_per_client.size() ? requests_per_client[c] : 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t spec = perm[zipf.draw(rng)];
      std::int64_t ns = 0;
      check(spec, traced_request(ctx, service, pool[spec], "serve.request", false, &ns));
      total_ns[c] += ns;
      ++count[c];
    }
  });
  ServeResult result;
  std::int64_t ns = 0;
  std::size_t n = 0;
  for (std::size_t c = 0; c < e2e::kServeClients; ++c) {
    ns += total_ns[c];
    n += count[c];
  }
  result.mean_request_us = n == 0 ? 0.0 : static_cast<double>(ns) * 1e-3 / static_cast<double>(n);

  // api.boundary_us: gather_run_json minus Service::run on the same hits
  // (the hottest specs, resident in both services).
  constexpr std::size_t kHot = 64;
  constexpr int kRounds = 16;
  gather_service* abi = gather_service_new();
  std::vector<ScenarioSpec> specs;
  for (std::size_t r = 0; r < kHot; ++r) {
    char* out = nullptr;
    (void)gather_run_json(abi, pool[perm[r]].c_str(), &out);
    gather_free(out);
    specs.push_back(gather::api::parse_run_spec(pool[perm[r]]));
    (void)service.run(specs.back());
  }
  std::vector<std::int64_t> abi_ns;
  std::vector<std::int64_t> run_ns;
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t r = 0; r < kHot; ++r) {
      char* out = nullptr;
      std::int64_t t0 = e2e::now_ns();
      const gather_status status = gather_run_json(abi, pool[perm[r]].c_str(), &out);
      abi_ns.push_back(e2e::now_ns() - t0);
      gather_free(out);
      if (status != GATHER_STATUS_OK) ctx.fail("boundary probe status");
      t0 = e2e::now_ns();
      const gather::Service::RunReport report = service.run(specs[r]);
      run_ns.push_back(e2e::now_ns() - t0);
      if (!report.cache_hit) ctx.fail("boundary probe missed the result cache");
    }
  }
  gather_service_free(abi);
  result.boundary_us = (e2e::median(abi_ns) - e2e::median(run_ns)) * 1e-3;
  return result;
}

struct SwarmResult {
  double pass_s = 0.0;
  double decide_speedup = 0.0;
  std::vector<std::uint64_t> hashes;
};

SwarmResult traced_swarm(Context& ctx, std::uint64_t seed) {
  SwarmResult result;
  const std::vector<std::string> texts = e2e::swarm_texts(seed);
  std::int64_t parallel_ns = 0;
  std::int64_t serial_ns = 0;
  for (const std::string& text : texts) {
    gather::Service service;  // each probe on a fresh service
    std::int64_t ns = 0;
    const gather::core::RunOutcome outcome =
        traced_request(ctx, service, text, "swarm.call", true, &ns);
    result.pass_s += static_cast<double>(ns) * 1e-9;
    result.hashes.push_back(outcome.result.metrics.trace_hash);
    // The same instance once more at decide_threads=1, outside the span
    // tree: the reference for both the trace hash and the decide speed-up.
    parallel_ns += ctx.sims.back().ns;
    ScenarioSpec spec = gather::api::parse_run_spec(text);
    spec.decide_threads = 1;
    const gather::scenario::ResolvedScenario resolved = gather::scenario::resolve(spec);
    const std::int64_t t0 = e2e::now_ns();
    const gather::core::RunOutcome serial = gather::scenario::run_resolved(resolved, "");
    serial_ns += e2e::now_ns() - t0;
    ++ctx.attempted;
    if (serial.result.metrics.trace_hash != outcome.result.metrics.trace_hash) {
      ctx.fail("swarm trace_hash differs between decide_threads=1 and 4");
    }
  }
  result.decide_speedup =
      parallel_ns == 0 ? 0.0 : static_cast<double>(serial_ns) / static_cast<double>(parallel_ns);
  return result;
}

// ---------------------------------------------------------------------------
// Reduction
// ---------------------------------------------------------------------------

const char* layer_of(const std::string& name) {
  if (name.rfind("api.", 0) == 0) return "api";
  if (name == "scenario.resolve_graph") return "graph";
  if (name == "scenario.resolve") return "resolve";
  if (name == "scenario.run_resolved") return "sim";
  if (name.rfind("support.", 0) == 0) return "support";
  return "scenario";
}

struct Mean {
  double sum = 0.0;
  std::size_t n = 0;
  void add(double v) {
    sum += v;
    ++n;
  }
  double value() const { return n == 0 ? 0.0 : sum / static_cast<double>(n); }
};

void write_spans(const std::string& path, const std::vector<e2e::Span>& spans,
                 const std::vector<std::int64_t>& self) {
  std::ofstream out(path);
  out << "index\top\tparent\tname\ttag\tstart_ns\tend_ns\tself_ns\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const e2e::Span& s = spans[i];
    out << i << '\t' << s.op << '\t' << s.parent << '\t' << s.name << '\t' << s.tag
        << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << self[i] << '\n';
  }
}

void reduce(const Context& ctx, e2e::JsonObject& json, const std::string& spans_path) {
  const std::vector<e2e::Span>& spans = ctx.trace.spans();
  const std::vector<std::int64_t> self = e2e::self_times(spans);
  write_spans(spans_path, spans, self);

  std::map<std::string, double> layer_ns;
  Mean parse_us, csv_ms, fingerprint_us, lookup_us, build_ms, rest_ms;
  std::map<std::string, double> sim_s;
  for (const char* s : {"synchronous", "adversarial-delay", "semi-synchronous", "crash-fault"}) {
    sim_s[s] = 0.0;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    const double self_ns = static_cast<double>(self[i]);
    layer_ns[layer_of(name)] += self_ns;
    if (name == "api.parse_sweep_spec" || name == "api.parse_run_spec") parse_us.add(self_ns * 1e-3);
    if (name == "api.write_csv") csv_ms.add(self_ns * 1e-6);
    if (name == "scenario.fingerprint") fingerprint_us.add(self_ns * 1e-3);
    if (name == "scenario.result_cache.lookup") lookup_us.add(self_ns * 1e-3);
    if (name == "scenario.resolve_graph" && std::string(spans[i].tag) == "miss") build_ms.add(self_ns * 1e-6);
    if (name == "scenario.resolve") rest_ms.add(self_ns * 1e-6);
    if (name == "scenario.run_resolved") {
      sim_s[spans[i].tag] += static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9;
    }
  }
  double work_ns = 0.0;
  for (const char* layer : {"api", "scenario", "graph", "resolve", "sim"}) work_ns += layer_ns[layer];

  std::uint64_t decisions = 0, simulated = 0, global = 0, moves = 0;
  double ssync_ns = 0.0, ssync_rounds = 0.0, sync_ns = 0.0, sync_decisions = 0.0;
  double all_ns = 0.0, all_simulated = 0.0;
  for (const SimRecord& sim : ctx.sims) {
    if (sim.violation) continue;
    const auto& m = sim.metrics;
    if (sim.exact) {
      decisions += m.decision_calls;
      simulated += m.simulated_rounds;
      global += m.rounds;
      moves += m.total_moves;
    }
    all_ns += static_cast<double>(sim.ns);
    all_simulated += static_cast<double>(m.simulated_rounds);
    if (std::string(sim.scheduler) == "semi-synchronous") {
      ssync_ns += static_cast<double>(sim.ns);
      ssync_rounds += static_cast<double>(m.rounds);
    }
    if (std::string(sim.scheduler) == "synchronous") {
      sync_ns += static_cast<double>(sim.ns);
      sync_decisions += static_cast<double>(m.decision_calls);
    }
  }
  const auto per = [](double a, double b) { return b == 0.0 ? 0.0 : a / b; };
  json.num("api.parse_us", parse_us.value())
      .num("api.csv_ms", csv_ms.value())
      .num("scenario.fingerprint_us", fingerprint_us.value())
      .num("scenario.result_cache.lookup_us", lookup_us.value())
      .num("graph.build_ms", build_ms.value())
      .num("resolve.rest_ms", rest_ms.value());
  for (const auto& [scheduler, seconds] : sim_s) json.num("sim.run_s." + scheduler, seconds);
  json.integer("sim.decisions", decisions)
      .integer("sim.simulated_rounds", simulated)
      .integer("sim.global_rounds", global)
      .integer("sim.moves", moves)
      .num("sim.skip_ratio", per(static_cast<double>(global), static_cast<double>(simulated)))
      .num("sim.ns_per_global_round.semi-synchronous", per(ssync_ns, ssync_rounds))
      .num("sim.ns_per_decision.synchronous", per(sync_ns, sync_decisions))
      .num("sim.ns_per_simulated_round", per(all_ns, all_simulated));
  for (const char* layer : {"api", "scenario", "graph", "resolve", "sim"}) {
    json.num(std::string("trace.share.") + layer, per(layer_ns[layer], work_ns));
  }
  json.integer("spans", spans.size())
      .integer("unaccounted_ops", e2e::unaccounted_ops(spans, self))
      .str("spans_file", spans_path);
}

std::vector<std::size_t> parse_counts(const std::string& text) {
  std::vector<std::size_t> counts;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) counts.push_back(std::strtoull(item.c_str(), nullptr, 10));
  return counts;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string out_dir = ".";
  std::uint64_t seed = 1;
  std::vector<std::size_t> requests_per_client;
  bool usage_ok = argc % 2 == 1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--out-dir") {
      out_dir = value;
    } else if (key == "--requests-per-client") {
      requests_per_client = parse_counts(value);
    } else {
      usage_ok = false;
    }
  }
  if (!usage_ok || workload.empty()) {
    std::fprintf(stderr,
                 "usage: e2e_traced --workload <name> --seed <S> --out-dir <dir> "
                 "[--requests-per-client a,b,c,d]\n");
    return 2;
  }

  Context ctx;
  e2e::JsonObject json;
  json.str("workload", workload);
  try {
    if (workload == "acceptance-cold" || workload == "sync-regimes") {
      const SweepResult r = traced_sweep(
          ctx, workload == "acceptance-cold" ? e2e::acceptance_sweep_text()
                                             : e2e::sync_sweep_text());
      json.num("traced_s", r.pass_s)
          .num("scenario.sweep.busy_ratio", r.busy_ratio)
          .str("csv_fnv1a", std::to_string(e2e::fnv1a(r.csv)))
          .num("api.boundary_us", 0.0)
          .num("sim.decide_speedup", 0.0);
    } else if (workload == "serve-zipf") {
      const ServeResult r = traced_serve(ctx, seed, requests_per_client);
      json.num("traced_s", r.mean_request_us * 1e-6)
          .num("scenario.sweep.busy_ratio", 0.0)
          .num("api.boundary_us", r.boundary_us)
          .num("sim.decide_speedup", 0.0);
    } else if (workload == "swarm-implicit") {
      const SwarmResult r = traced_swarm(ctx, seed);
      std::string hashes;
      for (const std::uint64_t h : r.hashes) {
        if (!hashes.empty()) hashes += ',';
        hashes += "\"" + std::to_string(h) + "\"";
      }
      json.num("traced_s", r.pass_s)
          .num("scenario.sweep.busy_ratio", 0.0)
          .raw("trace_hashes", "[" + hashes + "]")
          .num("api.boundary_us", 0.0)
          .num("sim.decide_speedup", r.decide_speedup);
    } else {
      std::fprintf(stderr, "e2e_traced: unknown workload '%s'\n", workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    ctx.fail(std::string("traced run aborted: ") + e.what());
  }
  reduce(ctx, json, out_dir + "/spans-" + workload + ".tsv");
  json.integer("attempted", ctx.attempted.load()).integer("failed", ctx.failed.load());
  if (!ctx.reason.empty()) std::fprintf(stderr, "e2e_traced: FAILED %s\n", ctx.reason.c_str());
  std::printf("%s\n", json.text().c_str());
  return ctx.failed == 0 ? 0 : 1;
}
