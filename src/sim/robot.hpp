// Robot interface and the face-to-face communication view.
//
// Robots never see NodeIds or the Graph — only what the model grants
// (§1.1): their own label and n, the degree of the current node, the entry
// port of their last traversal, and the public states of co-located robots
// (the message exchange of the Face-to-Face model). This boundary is what
// makes the simulation a faithful execution of the paper's algorithms.
#pragma once

#include <cstdint>
#include <span>

#include "sim/action.hpp"
#include "sim/types.hpp"

namespace gather::sim {

/// Coarse role tags that co-located robots can read off each other.
/// Covers all states used by §2.1, §2.2 and §2.3.
enum class StateTag : std::uint8_t {
  Init,        ///< before any role is assumed
  Finder,      ///< §2.2: min-ID robot of a multi-robot start node
  Helper,      ///< §2.2: non-minimum robot of a group / captured robot
  Waiter,      ///< §2.2: robot alone at its start node
  Leader,      ///< §2.1: robot not following anyone
  Follower,    ///< §2.1: robot following a larger-ID robot
  HopMeeting,  ///< §2.3: robot running i-Hop-Meeting
  Terminated,  ///< set by the engine after a Terminate action
};

/// What a robot broadcasts to co-located robots. The algorithms exchange
/// only O(log n)-bit facts: label, role, and group/leader identity.
struct RobotPublicState {
  RobotId id = 0;
  StateTag tag = StateTag::Init;
  /// §2.2 groupid (the pair identity used for capture priority), or the
  /// §2.1 leader's label. 0 = the paper's "-1"/unset.
  RobotId group_id = 0;
};

/// Everything a robot observes in one round before deciding its action.
struct RoundView {
  /// The robot's LOCAL time: the number of scheduler activations it has
  /// experienced since its release round. Under the paper's synchronous
  /// model this equals the global round; under arbitrary startup times
  /// it is `global - release`; under semi-synchronous suppression it
  /// counts only the rounds the adversary activated this robot — so a
  /// suppressed robot still experiences a coherent timeline in which
  /// consecutive decisions are consecutive instants (the activation-count
  /// robot clock of the SSYNC model; DESIGN.md §3.8). Robots never see
  /// the global round.
  Round round = 0;
  std::uint32_t degree = 0;  ///< degree of the current node
  Port entry_port = kNoPort; ///< entry port of the last traversal (kNoPort if none yet)
  /// Public states of ALL robots at this node (self included), sorted by
  /// id. A window into the engine's per-round view arena; valid only for
  /// the duration of the on_round call.
  std::span<const RobotPublicState> colocated;
};

/// Base class for robot algorithm implementations.
///
/// Contract: `on_round` must be a pure function of (internal state, view).
/// If it returns Stay{until}, the deadline is in the robot's LOCAL time
/// (see RoundView::round) and the robot promises — given the same
/// co-located set — to keep returning Stay until its local clock reaches
/// `until`. The engine exploits that promise to skip quiet rounds,
/// translating each local deadline to the exact global round of the
/// activation it falls on, also when a suppressing scheduler makes local
/// time lag behind (sim/engine.hpp); `tests/engine_test.cpp` and
/// `tests/scheduler_test.cpp` cross-check skip vs naive execution under
/// every adversary. A Follow{leader, until} promise reads the same way:
/// given the same co-located set, the robot keeps returning
/// Follow(leader) until its local clock reaches `until` (0: no promise).
/// Under suppression the engine re-consults such a follower at its first
/// activation at or after its leader's wake, or when the promise expires,
/// whichever comes first. Under suppression a changed broadcast (role,
/// group id, termination) wakes the co-located robots like an arrival
/// does, so both promises may rest on the co-located public states.
class Robot {
 public:
  explicit Robot(RobotId id) { public_state_.id = id; }
  virtual ~Robot() = default;

  Robot(const Robot&) = delete;
  Robot& operator=(const Robot&) = delete;

  /// Decide this round's action. May update the public state (visible to
  /// co-located robots from the NEXT round on — decisions in a round are
  /// simultaneous and based on the previous round's snapshots).
  [[nodiscard]] virtual Action on_round(const RoundView& view) = 0;

  [[nodiscard]] RobotId id() const noexcept { return public_state_.id; }
  [[nodiscard]] const RobotPublicState& public_state() const noexcept {
    return public_state_;
  }

  /// Engine hook: marks the robot terminated in its broadcast state.
  void mark_terminated() noexcept { public_state_.tag = StateTag::Terminated; }

 protected:
  void set_tag(StateTag tag) noexcept { public_state_.tag = tag; }
  void set_group_id(RobotId gid) noexcept { public_state_.group_id = gid; }

 private:
  RobotPublicState public_state_;
};

}  // namespace gather::sim
