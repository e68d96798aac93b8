#include "sim/engine.hpp"

#include <algorithm>

#include "sim/trace.hpp"
#include "support/assert.hpp"
#include "support/math.hpp"
#include "support/parallel_for.hpp"

namespace gather::sim {

// 32-bit index audit (see also graph/graph.cpp): slots and nodes are
// uint32 with all-ones sentinels, and the trace hash packs a move's
// (from, to) pair into one 64-bit word (sim/metrics.hpp hash_move).
static_assert(kNoRound == static_cast<Round>(-1),
              "wake arithmetic saturates against the all-ones Round sentinel");

Engine::Engine(const graph::Topology& graph, EngineConfig config)
    : graph_(graph),
      csr_(graph.as_csr()),
      imp_(graph.as_implicit()),
      config_(std::move(config)) {
  GATHER_EXPECTS(config_.hard_cap > 0);
  // num_nodes() - 1 must be a representable NodeId distinct from the
  // kEmpty/kNoSlot sentinels — part of the 32-bit index audit.
  GATHER_EXPECTS(graph.num_nodes() <=
                 static_cast<std::size_t>(static_cast<NodeId>(-1)));
  nodes_.init(graph.num_nodes(), config_.dense_node_limit);
  sched_ = config_.scheduler.get();
  rec_ = config_.trace_recorder;
  suppressing_ = sched_ != nullptr && sched_->fairness_bound() > 0;
}

void Engine::add_robot(std::unique_ptr<Robot> robot, NodeId start) {
  GATHER_EXPECTS(!ran_);
  GATHER_EXPECTS(robot != nullptr);
  GATHER_EXPECTS(start < graph_.num_nodes());
  GATHER_EXPECTS(robots_.size() < static_cast<std::size_t>(kNoSlot));
  const RobotId id = robot->id();
  GATHER_EXPECTS(id >= 1);
  const auto it = std::lower_bound(
      slots_by_id_.begin(), slots_by_id_.end(), id,
      [this](std::uint32_t s, RobotId target) { return ids_[s] < target; });
  GATHER_EXPECTS(it == slots_by_id_.end() || ids_[*it] != id);

  const auto slot = static_cast<std::uint32_t>(robots_.size());
  const Round release = sched_ != nullptr ? sched_->release_round(slot, id) : 0;
  const Round crash = sched_ != nullptr ? sched_->crash_round(slot, id)
                                        : kNoRound;
  any_delay_ = any_delay_ || release > 0;
  any_crash_ = any_crash_ || crash != kNoRound;

  robots_.push_back(std::move(robot));
  ids_.push_back(id);
  pos_.push_back(start);
  entry_port_.push_back(kNoPort);
  wake_.push_back(0);
  active_stamp_.push_back(kNoRound);
  move_count_.push_back(0);
  terminated_.push_back(0);
  release_.push_back(release);
  crash_at_.push_back(crash);
  local_.push_back(0);
  synced_to_.push_back(release);
  occ_next_.push_back(kNoSlot);
  slots_by_id_.insert(it, slot);

  occupants_insert(start, slot);
  // A robot's first wake is its first activation at or after its release
  // round; until then it is dormant (present, Init-tagged, never
  // activated).
  heap_push(activation_wake(slot, release, 1), slot);
}

NodeId Engine::position_of(RobotId id) const { return pos_[slot_of(id)]; }

std::uint32_t Engine::find_slot(RobotId id) const {
  const auto it = std::lower_bound(
      slots_by_id_.begin(), slots_by_id_.end(), id,
      [this](std::uint32_t s, RobotId target) { return ids_[s] < target; });
  if (it == slots_by_id_.end() || ids_[*it] != id) return kNoSlot;
  return *it;
}

std::uint32_t Engine::slot_of(RobotId id) const {
  const std::uint32_t slot = find_slot(id);
  GATHER_EXPECTS(slot != kNoSlot);
  return slot;
}

// The wake machinery and carry pass run inside every simulated round;
// gather_lint keeps them allocation-free (reserve-backed emplace on the
// pre-sized members is the one sanctioned growth path).
// gather-lint: hot-path-begin(wake-machinery)
void Engine::heap_push(Round round, std::uint32_t slot) {
  wake_[slot] = round;
  heap_.emplace_back(round, slot);
  std::push_heap(heap_.begin(), heap_.end(),
                 std::greater<std::pair<Round, std::uint32_t>>{});
}

bool Engine::heap_pop_next(Round& round) {
  // Pop stale entries (slot terminated, or wake was moved earlier/later).
  while (!heap_.empty()) {
    const auto [r, slot] = heap_.front();
    if (terminated_[slot] != 0 || wake_[slot] != r) {
      std::pop_heap(heap_.begin(), heap_.end(),
                    std::greater<std::pair<Round, std::uint32_t>>{});
      heap_.pop_back();
      continue;
    }
    round = r;
    return true;
  }
  return false;
}

Round Engine::activation_wake(std::uint32_t s, Round from, Round n) const {
  // The n-th activation comes no earlier than from + n − 1, and exactly
  // then when every round is one (non-suppressing schedulers). A wake past
  // the hard cap is never popped, so it needs no exact round — which keeps
  // a Stay toward kNoRound from scanning the schedule.
  const Round earliest = support::sat_add(from, n - 1);
  if (!suppressing_ || earliest > config_.hard_cap) return earliest;
  return sched_->nth_activation(s, ids_[s], from, n);
}

// Suppression only; kept out of line (noinline) so it does not grow the
// synchronous path's hot apply loop it is called from.
[[gnu::noinline]] Round Engine::follow_wake(std::uint32_t s, Round r) const {
  // The follower's promise ends n activations after r (n = 1: none).
  const Round n = std::max(decisions_[s].stay_until, r + 1) - r;
  if (n == 1) return activation_wake(s, r + 1, 1);
  // Resolution validated the leader. A crashed leader, or one leaving
  // without its followers (the arrival/departure wakes the follower
  // anyway), keeps the follower on the next-activation rule.
  const std::uint32_t leader = find_slot(decisions_[s].leader);
  if ((any_crash_ && r >= crash_at_[leader]) ||
      resolved_[leader].kind != ActionKind::Stay) {
    return activation_wake(s, r + 1, 1);
  }
  // The leader's state changes only when it acts, at wake_[leader] or
  // later; an occupancy change at the shared node wakes both. A leader
  // still to be handled in this round's apply loop holds wake_ == r, and
  // the bound r + 1 is early (always safe: naive stepping re-decides at
  // every activation), never late.
  const Round lead = activation_wake(s, std::max(wake_[leader], r + 1), 1);
  // The own-promise wake is the n-th activation after r; look it up only
  // when it falls before `lead` — the scan costs one block per 64 rounds.
  // Rounds past the hard cap are never popped, which bounds the count.
  const Round bound = std::min(lead, support::sat_add(config_.hard_cap, 1));
  if (support::sat_add(r, n) < bound &&
      sched_->count_activations(s, ids_[s], r + 1, bound) >= n) {
    return activation_wake(s, r + 1, n);
  }
  return lead;
}

bool Engine::resolve_carry(std::uint32_t s, Round r) {
  // The memo stamp doubles as the in-progress mark: a standing-follow
  // cycle re-enters a stamped slot whose carry_has_ is still 0 and
  // resolves to "not carried" for the whole cycle.
  if (carry_stamp_[s] == r) return carry_has_[s] != 0;
  carry_stamp_[s] = r;
  carry_has_[s] = 0;
  // The slot's most recent decision is its standing order.
  if (decisions_[s].kind != ActionKind::Follow) return false;
  const std::uint32_t leader = find_slot(decisions_[s].leader);
  if (leader == kNoSlot) return false;
  if (pos_[leader] != pos_[s]) return false;  // leader already departed
  if (terminated_[leader] != 0) return false;
  if (any_crash_ && r >= crash_at_[leader]) return false;
  graph::HalfEdge edge{};
  if (decision_stamp_[leader] == r) {
    // Active leader: the follower mirrors its resolved concrete action.
    const Action& act = resolved_[leader];
    if (act.kind != ActionKind::Move || !act.take_followers) return false;
    edge = traverse_at(pos_[leader], act.port);
  } else {
    // Suppressed leader: carried iff it is itself carried.
    if (!resolve_carry(leader, r)) return false;
    edge = carry_edge_[leader];
  }
  carry_edge_[s] = edge;
  carry_has_[s] = 1;
  return true;
}

void Engine::collect_carried(Round r) {
  // Slot order — deterministic across skip and naive stepping.
  carried_.clear();
  const std::size_t num_slots = decisions_.size();
  for (std::uint32_t s = 0; s < num_slots; ++s) {
    if (decision_stamp_[s] == r || terminated_[s] != 0) continue;
    if (any_crash_ && r >= crash_at_[s]) continue;
    if (decisions_[s].kind != ActionKind::Follow) continue;
    if (resolve_carry(s, r)) carried_.push_back(s);
  }
}

void Engine::move_slot(std::uint32_t s, graph::HalfEdge h, Round r,
                       std::uint64_t& trace_hash) {
  const NodeId from = pos_[s];
  occupants_erase(from, s);
  occupants_insert(h.to, s);
  pos_[s] = h.to;
  entry_port_[s] = h.to_port;
  ++move_count_[s];
  touched_nodes_.push_back(from);
  touched_nodes_.push_back(h.to);
  hash_move(trace_hash, r, ids_[s], from, h.to);
}

std::size_t Engine::apply_carried(Round r, RunResult& result) {
  // Same bookkeeping as an active move; hashed after the active set, in
  // slot order, so skip and naive stepping fingerprint identically. The
  // forced move voids any sleep promise — the robot re-decides at its next
  // activation.
  for (const std::uint32_t s : carried_) {
    move_slot(s, carry_edge_[s], r, result.metrics.trace_hash);
    if (rec_ != nullptr) rec_->record_carried(s, carry_edge_[s].to);
    if (!config_.naive_stepping) heap_push(activation_wake(s, r + 1, 1), s);
  }
  return carried_.size();
}

void Engine::occupants_insert(NodeId node, std::uint32_t slot) {
  // Splice into the node's list keeping label order (views are sorted).
  // In sparse mode ref() creates the target node's record; the round
  // loop always erases before inserting, so the table never grows here.
  const RobotId id = ids_[slot];
  std::uint32_t* link = &nodes_.ref(node).head;
  while (*link != kNoSlot && ids_[*link] < id) link = &occ_next_[*link];
  occ_next_[slot] = *link;
  *link = slot;
}

void Engine::occupants_erase(NodeId node, std::uint32_t slot) {
  NodeRec* rec = nodes_.find(node);
  GATHER_INVARIANT(rec != nullptr);
  std::uint32_t* link = &rec->head;
  while (*link != kNoSlot && *link != slot) link = &occ_next_[*link];
  GATHER_INVARIANT(*link == slot);
  *link = occ_next_[slot];
  occ_next_[slot] = kNoSlot;
  // Sparse mode: hand the emptied record back so resident memory stays
  // O(robots). Safe even though it voids the node's view memo — views of
  // round r are fully consumed before any round-r move erases occupants.
  nodes_.release_if_empty(node);
}
// gather-lint: hot-path-end(wake-machinery)

bool Engine::all_colocated() const {
  if (pos_.empty()) return true;
  const NodeId node = pos_.front();
  return std::all_of(pos_.begin(), pos_.end(),
                     [node](NodeId p) { return p == node; });
}

RunResult Engine::run() {
  GATHER_EXPECTS(!ran_);
  GATHER_EXPECTS(!robots_.empty());
  ran_ = true;

  RunResult result;
  auto& m = result.metrics;
  const std::size_t num_slots = robots_.size();
  m.moves_per_robot.assign(num_slots, 0);

  // Size the reusable per-round scratch buffers — the last allocations
  // before the round loop.
  decisions_.assign(num_slots, Action{});
  decision_stamp_.assign(num_slots, kNoRound);
  resolved_.assign(num_slots, Action{});
  resolved_stamp_.assign(num_slots, kNoRound);
  resolve_mark_.assign(num_slots, 0);
  if (suppressing_) {
    state_stamp_.assign(num_slots, kNoRound);
    carry_stamp_.assign(num_slots, kNoRound);
    carry_has_.assign(num_slots, 0);
    carry_edge_.assign(num_slots, graph::HalfEdge{});
    carried_.reserve(num_slots);
  }
  view_arena_.resize(num_slots);
  views_.resize(num_slots);
  if (config_.decide_threads > 1) decide_bits_.assign(num_slots, 0);
  active_.reserve(num_slots);
  touched_nodes_.reserve(2 * num_slots);
  heap_.reserve(4 * num_slots);

  // Trace preamble: pos_ still holds the start nodes here (no round has
  // run), and the per-slot schedule was sampled in add_robot.
  if (rec_ != nullptr) {
    rec_->begin_run(graph_.num_nodes(), config_.naive_stepping,
                    config_.hard_cap, ids_, pos_, release_, crash_at_);
  }

  std::size_t alive = num_slots;
  Round r = 0;
  bool first_round = true;

  // Hoisted scheduler gates: locals stay in registers across the round
  // loop (the members would be reloaded after every opaque robot call),
  // so the synchronous path pays one predicted branch per activation.
  const bool any_delay = any_delay_;
  const bool any_crash = any_crash_;
  const bool suppressing = suppressing_;
  const bool filtered = any_delay || any_crash || suppressing;

  // A robot counts as alive while it can still act in some future round,
  // i.e. it neither terminated nor crashes by round r+1.
  const auto count_alive = [&](Round now) {
    std::size_t count = 0;
    for (std::uint32_t s = 0; s < num_slots; ++s) {
      if (terminated_[s] == 0 && (!any_crash || crash_at_[s] > now + 1))
        ++count;
    }
    return count;
  };

  // gather-lint: hot-path-begin(round-loop)
  while (alive > 0) {
    if (config_.naive_stepping) {
      r = first_round ? 0 : r + 1;
    } else {
      Round next = 0;
      if (!heap_pop_next(next)) {
        // With a crash adversary the heap can legitimately run dry: the
        // remaining un-terminated robots all crashed (their entries were
        // dropped below), so nobody will ever act again.
        if (any_crash) break;
        throw SimError("engine deadlock: live robots but no wake deadline");
      }
      GATHER_INVARIANT(first_round || next > r);
      r = next;
    }
    first_round = false;
    if (r > config_.hard_cap) {
      result.hit_round_cap = true;
      break;
    }

    // ---- collect this round's active robots -----------------------------
    // The scheduler filters the candidates: crashed slots are dropped for
    // good, dormant slots defer to their release round, suppressed slots
    // sit the round out (pure predicates — see sim/scheduler.hpp — so skip
    // and naive stepping agree). All three gates are off (false) for the
    // synchronous model and cost nothing.
    active_.clear();
    if (config_.naive_stepping) {
      for (std::uint32_t s = 0; s < num_slots; ++s) {
        if (terminated_[s] != 0) continue;
        if (filtered) {
          if (any_crash && r >= crash_at_[s]) continue;
          if (any_delay && r < release_[s]) continue;
          if (suppressing && !sched_->activates(r, s, ids_[s])) continue;
        }
        active_.push_back(s);
      }
    } else {
      // Drain every heap entry scheduled at round r (dedupe via stamp),
      // then collect the stamped slots with one ordered scan — cheaper
      // than sorting and independent of how the heap interleaved them.
      bool any = false;
      for (;;) {
        Round next = 0;
        if (!heap_pop_next(next) || next != r) break;
        const std::uint32_t slot = heap_.front().second;
        std::pop_heap(heap_.begin(), heap_.end(),
                      std::greater<std::pair<Round, std::uint32_t>>{});
        heap_.pop_back();
        if (filtered) {
          if (any_crash && r >= crash_at_[slot]) continue;  // crashed for good
          if (any_delay && r < release_[slot]) {
            // Dormant: woken by arrivals.
            heap_push(activation_wake(slot, release_[slot], 1), slot);
            continue;
          }
          if (suppressing) {
            // Every wake is pushed at one of the slot's activation rounds,
            // so the popped slot is active; its local clock catches up over
            // the rounds skipped since its anchor.
            local_[slot] += sched_->count_activations(slot, ids_[slot],
                                                      synced_to_[slot], r);
            synced_to_[slot] = r;
          }
        }
        active_stamp_[slot] = r;
        any = true;
      }
      if (any) {
        for (std::uint32_t s = 0; s < num_slots; ++s) {
          if (active_stamp_[s] == r) active_.push_back(s);
        }
      }
    }
    if (active_.empty()) {
      // Only an adversary can empty a round (everyone dormant, suppressed,
      // or crashed); the round is not simulated, but robots that can still
      // act later keep the run alive.
      GATHER_INVARIANT(filtered);
      alive = count_alive(r);
      continue;
    }

    if (rec_ != nullptr) rec_->begin_round(r, active_);
    const std::size_t movers = simulate_round(r, result);

    // ---- post-round bookkeeping -----------------------------------------
    if (suppressing) {
      // Every consulted slot experienced round r as one activation, which
      // moves its clock anchor past r. In naive mode active_ is exactly the
      // adversary-activated set, so the clocks stay exact; in skip mode a
      // sleeping slot's clock catches up when it next pops.
      for (const std::uint32_t s : active_) {
        local_[s] += 1;
        synced_to_[s] = r + 1;
      }
    }
    m.rounds = r;
    ++m.simulated_rounds;
    alive = count_alive(r);
    if ((movers > 0 || m.simulated_rounds == 1) &&
        m.first_gathered == kNoRound && all_colocated()) {
      m.first_gathered = r;
    }
    if (config_.stop_when_gathered && m.first_gathered != kNoRound) break;
    (void)movers;
  }
  // gather-lint: hot-path-end(round-loop)

  result.all_terminated = true;
  for (std::uint32_t s = 0; s < num_slots; ++s) {
    if (terminated_[s] == 0) result.all_terminated = false;
  }
  result.gathered_at_end = all_colocated();
  if (result.gathered_at_end) result.gather_node = pos_.front();
  result.detection_correct =
      result.all_terminated &&
      m.first_termination == m.last_termination &&
      result.gathered_at_end;
  for (std::uint32_t s = 0; s < num_slots; ++s) {
    m.total_moves += move_count_[s];
    m.moves_per_robot[s] = move_count_[s];
  }
  if (rec_ != nullptr) rec_->finish(result, pos_);
  return result;
}

// View materialization, follow-chain resolution, the decision loops, and
// the move/termination application are the per-round critical path.
// gather-lint: hot-path-begin(round-simulation)
std::span<const RobotPublicState> Engine::view_for(NodeId node, Round r) {
  NodeRec* rec = nodes_.find(node);
  GATHER_INVARIANT(rec != nullptr);  // only nodes hosting robots are viewed
  if (rec->view_stamp == r) {
    const ViewRef ref = views_[rec->view];
    return {view_arena_.data() + ref.begin, ref.size};
  }
  // Materialize the node's snapshot at the arena's write head. Capacity
  // is exact (each robot sits at one node), so no reallocation — spans
  // handed to robots stay valid for the whole round.
  const auto begin = static_cast<std::uint32_t>(arena_used_);
  for (std::uint32_t occ = rec->head; occ != kNoSlot; occ = occ_next_[occ]) {
    GATHER_INVARIANT(arena_used_ < view_arena_.size());
    view_arena_[arena_used_++] = robots_[occ]->public_state();
  }
  const ViewRef ref{begin, static_cast<std::uint32_t>(arena_used_) - begin};
  views_[views_used_] = ref;
  rec->view = static_cast<std::uint32_t>(views_used_++);
  rec->view_stamp = r;
  return {view_arena_.data() + ref.begin, ref.size};
}

std::span<const RobotPublicState> Engine::view_cached(NodeId node,
                                                      Round r) const {
  const NodeRec* rec = nodes_.find(node);
  GATHER_INVARIANT(rec != nullptr && rec->view_stamp == r);
  const ViewRef ref = views_[rec->view];
  return {view_arena_.data() + ref.begin, ref.size};
}

Action Engine::resolve_action(std::uint32_t s, Round r) {
  // Concrete (non-Follow) action for slot s this round; sleeping robots
  // implicitly Stay until their wake deadline. Iterative chain walk with
  // cycle detection via resolve_mark_.
  if (resolved_stamp_[s] == r) return resolved_[s];
  if (resolve_mark_[s] != 0)
    throw EngineInvariantError("follow cycle detected at round " +
                               std::to_string(r));
  resolve_mark_[s] = 1;
  Action out;
  if (decision_stamp_[s] != r) {
    // Sleeping robot: implied promise is Stay until its wake deadline
    // (already a global round — translated when it was decided).
    out = Action::stay_until_round(wake_[s]);
  } else if (decisions_[s].kind != ActionKind::Follow) {
    out = decisions_[s];
  } else {
    // The engine builds the views robots pick leaders from, so a Follow
    // naming an absent, non-co-located, or terminated robot means engine
    // state is inconsistent (or the robot invented a label): an
    // EngineInvariantError, never a recordable protocol outcome.
    const std::uint32_t leader = find_slot(decisions_[s].leader);
    if (leader == kNoSlot)
      throw EngineInvariantError("robot follows unknown label");
    if (pos_[leader] != pos_[s])
      throw EngineInvariantError("robot follows non-co-located leader");
    if (terminated_[leader] != 0)
      throw EngineInvariantError("robot follows terminated leader");
    if (any_crash_ && r >= crash_at_[leader]) {
      // A crashed leader does nothing; the follower stays put and
      // re-decides next round. (Resolved here rather than through the
      // implicit-stay branch because a crashed slot's wake deadline is
      // meaningless and differs between stepping modes.)
      resolve_mark_[s] = 0;
      resolved_[s] = Action::stay_one(r);
      resolved_stamp_[s] = r;
      return resolved_[s];
    }
    const Action leader_action = resolve_action(leader, r);
    switch (leader_action.kind) {
      case ActionKind::Move:
        out = leader_action.take_followers
                  ? Action::move(leader_action.port, true)
                  : Action::stay_one(r);
        break;
      case ActionKind::Stay:
        out = leader_action;
        break;
      case ActionKind::Terminate:
        out = Action::terminate();
        break;
      case ActionKind::Follow:
        GATHER_INVARIANT(!"unreachable: resolve returns concrete actions");
        break;
    }
  }
  resolve_mark_[s] = 0;
  resolved_[s] = out;
  resolved_stamp_[s] = r;
  return out;
}

// One decision loop for every scheduler; only the robot's LOCAL time
// differs. Non-suppressing schedulers: local = r − τ, a bijection (the
// paper's synchronous model is τ = 0, an identity). Suppressing ones: the
// activation-count clock maintained per slot.
std::uint64_t Engine::decide_one(std::uint32_t s, Round r) {
  RoundView view;
  view.round = suppressing_ ? local_[s] : r - release_[s];
  view.degree = degree_at(pos_[s]);
  view.entry_port = entry_port_[s];
  // Read-only lookup: the simulate_round pre-pass materialized every
  // active node's view, so decide workers never touch the memo.
  view.colocated = view_cached(pos_[s], r);
  std::uint64_t bits = 0;
  const RobotId self = ids_[s];
  for (const RobotPublicState& other : view.colocated) {
    if (other.id == self) continue;
    bits += support::bit_width_u64(other.id) +
            support::bit_width_u64(other.group_id) + 3;
  }
  // Under suppression a changed broadcast (role or group id) changes
  // every co-located view from the next round on; the apply step wakes
  // those robots. Before on_round, the robot shows what its node's view
  // of round r holds.
  RobotPublicState before;
  if (suppressing_) before = robots_[s]->public_state();
  decisions_[s] = robots_[s]->on_round(view);
  if (suppressing_) {
    const RobotPublicState& now = robots_[s]->public_state();
    if (now.tag != before.tag || now.group_id != before.group_id) {
      state_stamp_[s] = r;
    }
  }
  const ActionKind kind = decisions_[s].kind;
  if (kind == ActionKind::Stay ||
      (kind == ActionKind::Follow && suppressing_)) {
    // A deadline n local rounds ahead becomes global round r + n: exact
    // when every later round is an activation, the earliest possible wake
    // under suppression (the apply step finds the n-th activation). A
    // Follow promise is read only under suppression (follow_wake).
    const Round until = decisions_[s].stay_until;
    decisions_[s].stay_until =
        until > view.round ? support::sat_add(r, until - view.round) : r + 1;
  }
  decision_stamp_[s] = r;
  return bits;
}

void Engine::decide_all(Round r, RunMetrics& m) {
  const std::size_t count = active_.size();
  // Parallel fan-out: each robot reads the immutable round views and
  // writes only its own slots, so partitioning is invisible; the two
  // metric sums are reduced serially (below) in slot order, making the
  // whole phase byte-identical to the serial loop at any thread count.
  if (config_.decide_threads > 1 && count >= config_.decide_min_active) {
    support::parallel_for_index(count, config_.decide_threads,
                                [this, r](std::size_t i) {
                                  decide_bits_[i] = decide_one(active_[i], r);
                                });
    std::uint64_t bits = 0;
    for (std::size_t i = 0; i < count; ++i) bits += decide_bits_[i];
    m.total_message_bits += bits;
    m.decision_calls += count;
    return;
  }
  for (const std::uint32_t s : active_) {
    m.total_message_bits += decide_one(s, r);
    ++m.decision_calls;
  }
}

std::size_t Engine::simulate_round(Round r, RunResult& result) {
  auto& m = result.metrics;
  const bool suppressing = suppressing_;

  // ---- build communication views (per node hosting an active robot) ----
  // Views snapshot the public states as of the END of the previous round;
  // they are materialized before any on_round call so that decisions are
  // simultaneous. One arena pass; views_used_/arena_used_ reset here.
  views_used_ = 0;
  arena_used_ = 0;
  for (const std::uint32_t s : active_) (void)view_for(pos_[s], r);

  // ---- decisions --------------------------------------------------------
  decide_all(r, m);

  // ---- resolve follow chains ---------------------------------------------
  for (const std::uint32_t s : active_) (void)resolve_action(s, r);

  // Trace the round's Follow decisions (resolution above has already
  // validated every named leader, so find_slot cannot fail here).
  if (rec_ != nullptr) {
    for (const std::uint32_t s : active_) {
      if (decisions_[s].kind == ActionKind::Follow) {
        rec_->record_follow(s, find_slot(decisions_[s].leader));
      }
    }
  }

  // Standing-follow carry scan (suppression only): a suppressed follower
  // cannot re-issue Follow in the round its leader moves; its most
  // recent decision (decisions_ keeps it) is a standing order that the
  // leader's take-followers move executes. Scanned against pre-move
  // positions — identical in skip and naive stepping. Under every
  // non-suppressing scheduler an un-terminated follower is re-activated
  // each round and handled by normal resolution, so this pass is
  // unreachable there.
  if (suppressing) collect_carried(r);

  // ---- apply moves and terminations simultaneously ----------------------
  std::size_t movers = 0;
  bool terminated_this_round = false;
  touched_nodes_.clear();
  for (const std::uint32_t s : active_) {
    const Action action = resolved_[s];
    // Under suppression co-located clocks drift apart, so a robot may
    // change its broadcast while its neighbours sleep on a promise made
    // against the old one: treat the change like an occupancy change.
    if (suppressing && (state_stamp_[s] == r ||
                        action.kind == ActionKind::Terminate)) {
      touched_nodes_.push_back(pos_[s]);
    }
    switch (action.kind) {
      case ActionKind::Move: {
        // A robot handing back an out-of-range port broke its own
        // contract — robot-side, so protocol-class (recordable).
        GATHER_PROTOCOL(action.port < degree_at(pos_[s]));
        const graph::HalfEdge h = traverse_at(pos_[s], action.port);
        move_slot(s, h, r, m.trace_hash);
        ++movers;
        if (rec_ != nullptr) rec_->record_move(s, h.to);
        if (!config_.naive_stepping) heap_push(activation_wake(s, r + 1, 1), s);
        break;
      }
      case ActionKind::Stay: {
        // Naive stepping re-consults every robot anyway. Otherwise sleep
        // until the n-th activation after r, where decide_one translated
        // the deadline to global round r + n. Under suppression a
        // Follow-adopted stay sleeps with its leader instead (follow_wake):
        // the leader's deadline is a global round the follower's own clock
        // drifts against.
        if (config_.naive_stepping) break;
        if (suppressing && decisions_[s].kind != ActionKind::Stay) {
          heap_push(follow_wake(s, r), s);
          break;
        }
        const Round n = std::max(action.stay_until, r + 1) - r;
        heap_push(activation_wake(s, r + 1, n), s);
        break;
      }
      case ActionKind::Terminate: {
        terminated_[s] = 1;
        robots_[s]->mark_terminated();
        if (m.first_termination == kNoRound) m.first_termination = r;
        m.last_termination = r;
        terminated_this_round = true;
        hash_termination(m.trace_hash, r, ids_[s]);
        if (rec_ != nullptr) rec_->record_terminate(s);
        break;
      }
      case ActionKind::Follow:
        GATHER_INVARIANT(!"unreachable: actions were resolved");
        break;
    }
  }

  if (suppressing) movers += apply_carried(r, result);

  // A robot announcing termination claims gathering is complete; record
  // any announcement made while the full robot set (dormant and crashed
  // robots included — they are part of the ground truth) was not
  // co-located. The paper's detection guarantee is exactly that this
  // never happens under the synchronous adversary.
  if (terminated_this_round && !all_colocated()) {
    result.false_announcement = true;
  }

  // ---- occupancy-change wakeups ------------------------------------------
  if (!config_.naive_stepping) {
    std::sort(touched_nodes_.begin(), touched_nodes_.end());
    touched_nodes_.erase(
        std::unique(touched_nodes_.begin(), touched_nodes_.end()),
        touched_nodes_.end());
    for (const NodeId node : touched_nodes_) {
      const NodeRec* rec = nodes_.find(node);
      if (rec == nullptr) continue;  // sparse mode: node emptied by a move
      for (std::uint32_t occ = rec->head; occ != kNoSlot;
           occ = occ_next_[occ]) {
        if (terminated_[occ] != 0) continue;
        // Crashed and still-dormant occupants would only be dropped or
        // re-deferred by the collection filter next round — skip the
        // heap churn here (no behavior change, pinned by the skip-vs-
        // naive equivalence suite).
        if (any_crash_ && r + 1 >= crash_at_[occ]) continue;
        if (any_delay_ && release_[occ] > r + 1) continue;
        // An occupancy change voids the Stay promise: the occupant
        // re-decides at its next activation.
        if (wake_[occ] <= r + 1) continue;
        const Round next = activation_wake(occ, r + 1, 1);
        if (wake_[occ] > next) heap_push(next, occ);
      }
    }
  }

  return movers;
}
// gather-lint: hot-path-end(round-simulation)

}  // namespace gather::sim
