// Run metrics and results reported by the engine.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace gather::sim {

struct RunMetrics {
  /// Round counter at the end of the run (the paper's time complexity).
  Round rounds = 0;
  /// First round at whose END all robots were co-located (kNoRound if never).
  Round first_gathered = kNoRound;
  /// Round at which the first / last robot terminated (kNoRound if none).
  Round first_termination = kNoRound;
  Round last_termination = kNoRound;
  /// Total edge traversals (the "cost" metric mentioned in related work).
  std::uint64_t total_moves = 0;
  std::vector<std::uint64_t> moves_per_robot;
  /// Bits of co-located public state read at decision points — a proxy
  /// for the F2F message complexity (the paper's closing future-work item
  /// asks about restricted message sizes). Each received state counts as
  /// bit_width(id) + bit_width(group_id) + 3 tag bits.
  std::uint64_t total_message_bits = 0;
  /// Engine efficiency counters (not part of the model).
  std::uint64_t decision_calls = 0;
  std::uint64_t simulated_rounds = 0;
  /// Order-sensitive hash over all (round, robot, from, to) move events
  /// and termination events (xor-multiply-shift per word, seeded with the
  /// FNV offset basis) — identical across skip/naive modes and across
  /// reruns; the determinism fingerprint. Only equality is meaningful.
  std::uint64_t trace_hash = 1469598103934665603ULL;
};

// The trace-hash fold, shared by the engine (which accumulates it) and
// the trace replayer (which must land on the same value bit for bit).
// xor-multiply-shift per word: one multiply instead of FNV-1a's eight
// byte steps, since it runs three times per move on the round loop's
// critical path. Only equality of fingerprints is meaningful.
namespace detail {
inline void hash_word(std::uint64_t& h, std::uint64_t w) noexcept {
  h ^= w;
  h *= 1099511628211ULL;
  h ^= h >> 47;
}
}  // namespace detail

static_assert(sizeof(NodeId) == 4, "hash_move packs (from << 32) | to");

/// Fold one move into a trace hash: round, label, (from << 32) | to.
inline void hash_move(std::uint64_t& h, Round r, RobotId id, NodeId from,
                      NodeId to) noexcept {
  detail::hash_word(h, r);
  detail::hash_word(h, id);
  detail::hash_word(h, (static_cast<std::uint64_t>(from) << 32) | to);
}

/// Fold one termination into a trace hash: ~round, label.
inline void hash_termination(std::uint64_t& h, Round r, RobotId id) noexcept {
  detail::hash_word(h, ~r);
  detail::hash_word(h, id);
}

struct RunResult {
  bool all_terminated = false;
  bool hit_round_cap = false;
  /// All robots on one node at the end of the run.
  bool gathered_at_end = false;
  /// All robots terminated in the same round, on one node, and gathering
  /// was complete at that moment — the falsifiable statement of
  /// "gathering with detection".
  bool detection_correct = false;
  /// Some robot announced termination (claimed gathering complete) in a
  /// round where the full robot set — dormant and crashed robots
  /// included — was not co-located. Never true for the paper's
  /// algorithms under the synchronous scheduler; the crash-fault
  /// adversary exists to show when it becomes true.
  bool false_announcement = false;
  /// Adversary-view node where the run ended gathered (undefined if not).
  NodeId gather_node = 0;
  RunMetrics metrics;
};

}  // namespace gather::sim
