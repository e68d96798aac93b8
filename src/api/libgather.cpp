// The C ABI over gather::Service (include/libgather.h).
//
// Exceptions never cross the boundary: every entry point routes its
// body through guarded(), the single catch-translate helper below,
// which maps the library's exception taxonomy to gather_status codes
// and stashes the message in a thread-local for gather_last_error().
// The gather_lint abi-no-throw rule enforces that this marked region
// is the ONLY place this file (or any extern "C" file in src/api/)
// touches throw/catch.
//
// The mapping is mechanical — exception class to status code, nothing
// contextual. In particular a ProtocolViolation is always
// GATHER_STATUS_VIOLATION: whether a violation under a benign scheduler
// is "really" a bug is harness policy (the CLI and SweepRunner apply
// it), and a flat mapping keeps the ABI predictable for C callers who
// cannot see scheduler adversarialness.
#include "libgather.h"

#include <cstdlib>
#include <cstring>
#include <exception>
#include <sstream>
#include <string>

#include "api/service.hpp"
#include "api/spec_text.hpp"
#include "support/json.hpp"

struct gather_service {
  gather::Service impl;

  explicit gather_service(const gather::Service::Config& config)
      : impl(config) {}
};

namespace {

thread_local std::string t_last_error;

// gather-lint: abi-translate-begin(guarded)
void set_last_error(const char* message) noexcept {
  try {
    t_last_error = message;
  } catch (...) {
    t_last_error.clear();  // keep the no-throw promise over the message
  }
}

/// The one place exceptions become status codes. Order matters only
/// within a hierarchy: TraceError before its base via distinct catch
/// arms; ProtocolViolation is caught by name while every other
/// ContractViolation (and EngineInvariantError, which is deliberately
/// not a ContractViolation) falls through to INTERNAL.
template <typename Fn>
gather_status guarded(Fn&& fn) noexcept {
  try {
    t_last_error.clear();
    return fn();
  } catch (const gather::ProtocolViolation& e) {
    set_last_error(e.what());
    return GATHER_STATUS_VIOLATION;
  } catch (const gather::sim::TraceError& e) {
    set_last_error(e.what());
    return GATHER_STATUS_TRACE;
  } catch (const gather::scenario::ScenarioError& e) {
    set_last_error(e.what());
    return GATHER_STATUS_USAGE;
  } catch (const std::exception& e) {
    set_last_error(e.what());
    return GATHER_STATUS_INTERNAL;
  } catch (...) {
    set_last_error("unknown non-standard exception");
    return GATHER_STATUS_INTERNAL;
  }
}
// gather-lint: abi-translate-end(guarded)

gather_status argument_error(const char* message) noexcept {
  set_last_error(message);
  return GATHER_STATUS_ARGUMENT;
}

/// malloc'd copy for char** out parameters (freed by gather_free);
/// NULL on allocation failure — throw-free so the abi-no-throw lint
/// region stays confined to guarded().
char* dup_string(const std::string& s) {
  char* out = static_cast<char*>(std::malloc(s.size() + 1));
  if (out != nullptr) std::memcpy(out, s.c_str(), s.size() + 1);
  return out;
}

gather_status publish(char** slot, const std::string& payload,
                      gather_status ok_status) {
  *slot = dup_string(payload);
  if (*slot == nullptr) {
    set_last_error("out of memory copying result buffer");
    return GATHER_STATUS_INTERNAL;
  }
  return ok_status;
}

void json_field(std::ostringstream& os, bool& first, const char* name) {
  if (!first) os << ", ";
  first = false;
  os << '"' << name << "\": ";
}

std::string run_report_json(const gather::Service::RunReport& report) {
  const auto& result = report.outcome.result;
  std::ostringstream os;
  bool first = true;
  os << '{';
  json_field(os, first, "realized_n");
  os << report.realized_n;
  json_field(os, first, "min_pair_distance");
  os << report.min_pair_distance;
  json_field(os, first, "gathered");
  os << (result.gathered_at_end ? "true" : "false");
  json_field(os, first, "detection_correct");
  os << (result.detection_correct ? "true" : "false");
  json_field(os, first, "rounds");
  os << result.metrics.rounds;
  json_field(os, first, "total_moves");
  os << result.metrics.total_moves;
  json_field(os, first, "message_bits");
  os << result.metrics.total_message_bits;
  json_field(os, first, "stage_hop");
  os << report.outcome.gathered_stage_hop;
  json_field(os, first, "peak_map_bits");
  os << report.outcome.peak_map_bits;
  json_field(os, first, "trace_hash");
  os << result.metrics.trace_hash;
  json_field(os, first, "false_announcement");
  os << (result.false_announcement ? "true" : "false");
  json_field(os, first, "cache_hit");
  os << (report.cache_hit ? "true" : "false");
  os << "}\n";
  return os.str();
}

std::string replay_report_json(const gather::Service::ReplayReport& report) {
  const auto& replay = report.replay;
  std::ostringstream os;
  bool first = true;
  os << '{';
  json_field(os, first, "robots");
  os << report.trace.robots.size();
  json_field(os, first, "nodes");
  os << report.trace.num_nodes;
  json_field(os, first, "rounds");
  os << replay.result.metrics.rounds;
  json_field(os, first, "total_moves");
  os << replay.result.metrics.total_moves;
  json_field(os, first, "trace_hash");
  os << replay.result.metrics.trace_hash;
  json_field(os, first, "violation");
  os << (replay.violation ? "true" : "false");
  if (replay.violation) {
    json_field(os, first, "violation_round");
    os << replay.violation_round;
    json_field(os, first, "violation_message");
    os << '"' << gather::support::json_escape(replay.violation_message) << '"';
  } else {
    json_field(os, first, "gathered");
    os << (replay.result.gathered_at_end ? "true" : "false");
    json_field(os, first, "detection_correct");
    os << (replay.result.detection_correct ? "true" : "false");
  }
  os << "}\n";
  return os.str();
}

}  // namespace

extern "C" {

GATHER_API gather_service* gather_service_new(void) {
  return gather_service_new_with(0, 0, 0);
}

GATHER_API gather_service* gather_service_new_with(
    size_t graph_cache_capacity, size_t result_cache_capacity,
    unsigned sweep_threads) {
  gather_service* service = nullptr;
  (void)guarded([&] {
    gather::Service::Config config;
    config.graph_cache_capacity = graph_cache_capacity;
    config.result_cache_capacity = result_cache_capacity;
    config.sweep_threads = sweep_threads;
    service = new gather_service(config);
    return GATHER_STATUS_OK;
  });
  return service;
}

GATHER_API void gather_service_free(gather_service* service) {
  delete service;
}

GATHER_API gather_status gather_service_clear_caches(gather_service* service) {
  if (service == nullptr) {
    return argument_error("gather_service_clear_caches: NULL service");
  }
  return guarded([&] {
    service->impl.clear_caches();
    return GATHER_STATUS_OK;
  });
}

GATHER_API gather_status gather_run_json(gather_service* service,
                                         const char* spec_text,
                                         char** out_json) {
  if (service == nullptr || spec_text == nullptr || out_json == nullptr) {
    return argument_error("gather_run_json: NULL argument");
  }
  *out_json = nullptr;
  return guarded([&] {
    const gather::scenario::ScenarioSpec spec =
        gather::api::parse_run_spec(spec_text);
    const gather::Service::RunReport report = service->impl.run(spec);
    return publish(out_json, run_report_json(report), GATHER_STATUS_OK);
  });
}

GATHER_API gather_status gather_sweep_csv(gather_service* service,
                                          const char* spec_text,
                                          char** out_csv) {
  if (service == nullptr || spec_text == nullptr || out_csv == nullptr) {
    return argument_error("gather_sweep_csv: NULL argument");
  }
  *out_csv = nullptr;
  return guarded([&] {
    const gather::scenario::SweepSpec sweep =
        gather::api::parse_sweep_spec(spec_text);
    const std::vector<gather::scenario::SweepRow> rows =
        service->impl.sweep(sweep);
    std::ostringstream os;
    gather::scenario::SweepRunner::write_csv(os, rows);
    return publish(out_csv, os.str(), GATHER_STATUS_OK);
  });
}

GATHER_API gather_status gather_replay_trace(const char* trace_path,
                                             char** out_json) {
  if (trace_path == nullptr || out_json == nullptr) {
    return argument_error("gather_replay_trace: NULL argument");
  }
  *out_json = nullptr;
  return guarded([&] {
    const gather::Service::ReplayReport report =
        gather::Service::replay(trace_path);
    // A violation-terminated trace replays fine (the partial run IS the
    // recorded evidence) but its verdict is the violation, so the
    // status says so while the JSON carries the detail.
    return publish(out_json, replay_report_json(report),
                   report.replay.violation ? GATHER_STATUS_VIOLATION
                                           : GATHER_STATUS_OK);
  });
}

GATHER_API gather_status gather_cache_stats(const gather_service* service,
                                            gather_cache_stats_s* out) {
  if (service == nullptr || out == nullptr) {
    return argument_error("gather_cache_stats: NULL argument");
  }
  return guarded([&] {
    const gather::Service::CacheStats stats = service->impl.cache_stats();
    out->graph_hits = stats.graphs.hits;
    out->graph_misses = stats.graphs.misses;
    out->graph_evictions = stats.graphs.evictions;
    out->graph_entries = stats.graphs.entries;
    out->graph_resident_bytes = stats.graphs.resident_bytes;
    out->result_hits = stats.results.hits;
    out->result_misses = stats.results.misses;
    out->result_evictions = stats.results.evictions;
    out->result_entries = stats.results.entries;
    out->result_resident_bytes = stats.results.resident_bytes;
    return GATHER_STATUS_OK;
  });
}

GATHER_API void gather_free(char* buffer) { std::free(buffer); }

GATHER_API const char* gather_last_error(void) {
  return t_last_error.c_str();
}

GATHER_API const char* gather_version(void) { return GATHER_VERSION_STRING; }

GATHER_API int gather_version_major(void) { return GATHER_VERSION_MAJOR; }

GATHER_API int gather_version_minor(void) { return GATHER_VERSION_MINOR; }

GATHER_API int gather_version_patch(void) { return GATHER_VERSION_PATCH; }

GATHER_API const char* gather_status_name(gather_status status) {
  switch (status) {
    case GATHER_STATUS_OK:
      return "ok";
    case GATHER_STATUS_VIOLATION:
      return "violation";
    case GATHER_STATUS_USAGE:
      return "usage";
    case GATHER_STATUS_INTERNAL:
      return "internal";
    case GATHER_STATUS_TRACE:
      return "trace";
    case GATHER_STATUS_ARGUMENT:
      return "argument";
  }
  return "unknown";
}

}  // extern "C"
