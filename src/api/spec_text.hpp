// Text form of ScenarioSpec/SweepSpec: the one parser that turns user
// input into a spec, for the C ABI and for gather_cli alike.
//
// One `key=value` pair per line, keys named exactly after the spec
// fields ("family=torus", "n=16", "families=ring,torus"); '#' starts a
// comment line, blank lines are skipped. The value is everything after
// the FIRST '=', so param bags keep their CLI spelling
// ("family_params=rows=4,cols=5"). Unknown keys and malformed or
// out-of-range values throw ScenarioError naming the key, which the ABI
// translates to GATHER_STATUS_USAGE and gather_cli to exit 2 — a
// caller's typo is a usage error, never UB.
//
// parse_sweep_spec holds the one copy of the sweep harness policy
// (k in [2, n] pre-filter, skip_infeasible, tolerated protocol
// violations). gather_cli writes its flags as this text and calls the
// same parser, so `gather_cli --sweep` and gather_sweep_csv emit the
// same CSV bytes for the same grid — pinned by tests/api_test.cpp
// against tests/data/golden_sweep_policy.csv.
//
// Not part of the extern "C" surface: this file may throw (the ABI's
// translate helper is the only place exceptions become status codes).
#pragma once

#include <string>

#include "scenario/scenario.hpp"
#include "scenario/sweep.hpp"

namespace gather::api {

/// Parse a single-run spec. Every ScenarioSpec field is addressable:
/// family, family_params, placement, placement_params, labeling,
/// algorithm, sequence, scheduler, scheduler_params, n, k,
/// id_exponent_b, seed, delta_aware, known_min_pair_distance, hard_cap,
/// decide_threads, trace_path. Moves are recorded through trace_path
/// (the binary trace) only.
[[nodiscard]] scenario::ScenarioSpec parse_run_spec(const std::string& text);

/// Parse a sweep spec: all run-spec keys (the base point) plus the axis
/// lists families, sizes, k_rules, placements, algorithms, schedulers,
/// seeds (comma-separated) and the execution knobs threads, steal_chunk,
/// use_result_cache, trace_dir.
[[nodiscard]] scenario::SweepSpec parse_sweep_spec(const std::string& text);

}  // namespace gather::api
