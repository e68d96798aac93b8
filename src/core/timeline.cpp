#include "core/timeline.hpp"

#include <algorithm>
#include <ostream>

#include "support/table.hpp"

namespace gather::core {

Timeline Timeline::from_trace(const sim::Trace& trace,
                              const Schedule& schedule) {
  Timeline timeline;
  for (std::size_t i = 0; i < schedule.stages().size(); ++i) {
    StageActivity activity;
    activity.stage_index = i;
    activity.stage = schedule.stages()[i];
    timeline.stages_.push_back(std::move(activity));
  }
  if (timeline.stages_.empty()) return timeline;

  // Dense label space: rank-compress the robots' labels so per-stage
  // counters are flat arrays of length #robots, independent of how
  // sparse the label range [1, n^b] is. Moves name slots; rank_of_slot
  // maps them to the dense index once.
  timeline.labels_.reserve(trace.robots.size());
  for (const sim::TraceRobot& robot : trace.robots)
    timeline.labels_.push_back(robot.id);
  std::sort(timeline.labels_.begin(), timeline.labels_.end());
  std::vector<std::size_t> rank_of_slot(trace.robots.size());
  for (std::size_t slot = 0; slot < trace.robots.size(); ++slot) {
    rank_of_slot[slot] = static_cast<std::size_t>(
        std::lower_bound(timeline.labels_.begin(), timeline.labels_.end(),
                         trace.robots[slot].id) -
        timeline.labels_.begin());
  }
  for (StageActivity& stage : timeline.stages_)
    stage.moves_by_robot.assign(timeline.labels_.size(), 0);

  // Rounds ascend and stages are contiguous from round 0, so the owning
  // stage only ever advances.
  std::size_t idx = 0;
  for (const sim::TraceRound& round : trace.rounds) {
    if (round.moves.empty() && round.carried.empty()) continue;
    while (idx + 1 < timeline.stages_.size() &&
           round.round >= timeline.stages_[idx].stage.end()) {
      ++idx;
    }
    StageActivity& s = timeline.stages_[idx];
    const auto count = [&](const std::vector<sim::TraceMove>& moves) {
      for (const sim::TraceMove& move : moves)
        ++s.moves_by_robot[rank_of_slot[move.slot]];
      s.moves += moves.size();
    };
    count(round.moves);
    count(round.carried);
    if (s.first_move == sim::kNoRound) s.first_move = round.round;
    s.last_move = round.round;
  }
  return timeline;
}

std::size_t StageActivity::active_robots() const noexcept {
  std::size_t active = 0;
  for (const std::uint64_t moves : moves_by_robot) active += moves > 0 ? 1 : 0;
  return active;
}

std::uint64_t Timeline::moves_for(const StageActivity& stage,
                                  sim::RobotId label) const {
  const auto it = std::lower_bound(labels_.begin(), labels_.end(), label);
  if (it == labels_.end() || *it != label) return 0;
  return stage.moves_by_robot[static_cast<std::size_t>(it - labels_.begin())];
}

std::uint64_t Timeline::total_moves() const noexcept {
  std::uint64_t total = 0;
  for (const StageActivity& s : stages_) total += s.moves;
  return total;
}

int Timeline::first_active_stage() const noexcept {
  for (const StageActivity& s : stages_) {
    if (s.moves > 0) return static_cast<int>(s.stage_index);
  }
  return -1;
}

void Timeline::print(std::ostream& os) const {
  using support::TextTable;
  TextTable table({"stage", "kind", "rounds [start, end)", "moves",
                   "active robots", "first/last move"});
  for (const StageActivity& s : stages_) {
    std::string kind;
    switch (s.stage.kind) {
      case StageKind::Undispersed: kind = "undispersed"; break;
      case StageKind::HopThenUndispersed:
        // std::string first operand sidesteps GCC 12's bogus -Wrestrict on
        // operator+(const char*, std::string&&) (GCC PR105651).
        kind = std::string("hop-") + std::to_string(s.stage.hop) + "+undisp";
        break;
      case StageKind::UxsGathering: kind = "uxs-catchall"; break;
    }
    table.add_row(
        {TextTable::num(std::uint64_t{s.stage_index}), kind,
         std::string("[") + TextTable::grouped(s.stage.start) + ", " +
             TextTable::grouped(s.stage.end()) + ")",
         TextTable::grouped(s.moves),
         TextTable::num(std::uint64_t{s.active_robots()}),
         s.moves == 0 ? "-"
                      : TextTable::grouped(s.first_move) + "/" +
                            TextTable::grouped(s.last_move)});
  }
  table.print(os);
}

}  // namespace gather::core
