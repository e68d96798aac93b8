// Timeline tests: stage-bucketed analysis of the decoded binary trace.
#include <gtest/gtest.h>

#include <sstream>

#include "core/run.hpp"
#include "core/timeline.hpp"
#include "graph/generators.hpp"
#include "graph/placement.hpp"
#include "scenario/scenario.hpp"
#include "uxs/uxs.hpp"

namespace gather::core {
namespace {

struct TracedRun {
  RunOutcome out;
  sim::Trace trace;
};

TracedRun traced_run(const graph::Graph& g, const graph::Placement& placement) {
  sim::TraceRecorder recorder;
  RunSpec spec;
  spec.algorithm = AlgorithmKind::FasterGathering;
  spec.config = make_config(g, uxs::make_covering_sequence(g, 3));
  spec.trace_recorder = &recorder;
  TracedRun run;
  run.out = run_gathering(g, placement, spec);
  run.trace = sim::decode_trace(recorder.bytes());
  return run;
}

TEST(Timeline, TotalsMatchEngineMetrics) {
  const graph::Graph g = graph::make_ring(8);
  const auto nodes = graph::nodes_undispersed_random(g, 3, 5);
  const auto placement =
      graph::make_placement(nodes, graph::labels_sequential(3));
  const auto [out, trace] = traced_run(g, placement);
  ASSERT_TRUE(out.schedule.has_value());
  const Timeline timeline = Timeline::from_trace(trace, *out.schedule);
  EXPECT_EQ(timeline.total_moves(), out.result.metrics.total_moves);
}

TEST(Timeline, CountsCarriedMovesUnderSemiSynchrony) {
  // Under the semi-synchronous adversary a suppressed follower is carried
  // by its leader's take-followers move; those moves are recorded in
  // TraceRound::carried, and the stage totals fall short of
  // metrics.total_moves unless they are counted too.
  scenario::ScenarioSpec spec;
  spec.family = "ring";
  spec.n = 6;
  spec.k = 2;
  spec.placement = "undispersed";
  spec.scheduler = "semi-synchronous";
  spec.seed = 1;
  scenario::ResolvedScenario resolved = scenario::resolve(spec);
  sim::TraceRecorder recorder;
  resolved.run_spec.trace_recorder = &recorder;
  const RunOutcome out =
      run_gathering(*resolved.graph, resolved.placement, resolved.run_spec);
  const sim::Trace trace = sim::decode_trace(recorder.bytes());
  std::uint64_t carried = 0;
  for (const sim::TraceRound& round : trace.rounds) carried += round.carried.size();
  ASSERT_GT(carried, 0u) << "the instance no longer exercises the carry path";
  ASSERT_TRUE(out.schedule.has_value());
  const Timeline timeline = Timeline::from_trace(trace, *out.schedule);
  EXPECT_EQ(timeline.total_moves(), out.result.metrics.total_moves);
}

TEST(Timeline, UndispersedRunActiveOnlyInStageZero) {
  const graph::Graph g = graph::make_ring(8);
  const auto nodes = graph::nodes_undispersed_random(g, 3, 5);
  const auto placement =
      graph::make_placement(nodes, graph::labels_sequential(3));
  const auto [out, trace] = traced_run(g, placement);
  const Timeline timeline = Timeline::from_trace(trace, *out.schedule);
  EXPECT_EQ(timeline.first_active_stage(), 0);
  for (std::size_t i = 1; i < timeline.stages().size(); ++i) {
    EXPECT_EQ(timeline.stages()[i].moves, 0u) << "stage " << i;
  }
}

TEST(Timeline, PlantedDistanceShowsLadderActivity) {
  const graph::Graph g = graph::make_path(12);
  const auto nodes = graph::nodes_pair_at_distance(g, 2, 3, 7);
  const auto placement =
      graph::make_placement(nodes, graph::labels_sequential(2));
  const auto [out, trace] = traced_run(g, placement);
  ASSERT_TRUE(out.result.detection_correct);
  const Timeline timeline = Timeline::from_trace(trace, *out.schedule);
  // Stage 0 (undispersed) is silent on a dispersed start; hop stages
  // 1..3 walk; the run resolves in stage 3.
  EXPECT_EQ(timeline.stages()[0].moves, 0u);
  EXPECT_GT(timeline.stages()[1].moves, 0u);
  EXPECT_GT(timeline.stages()[3].moves, 0u);
  EXPECT_EQ(timeline.first_active_stage(), 1);
  // Stages after the gathering stage stay silent.
  for (std::size_t i = 4; i < timeline.stages().size(); ++i) {
    EXPECT_EQ(timeline.stages()[i].moves, 0u) << "stage " << i;
  }
}

TEST(Timeline, TracksPerRobotMoves) {
  const graph::Graph g = graph::make_ring(6);
  const auto nodes = graph::nodes_undispersed_random(g, 2, 3);
  const auto placement =
      graph::make_placement(nodes, graph::labels_sequential(2));
  const auto [out, trace] = traced_run(g, placement);
  const Timeline timeline = Timeline::from_trace(trace, *out.schedule);
  const auto& stage0 = timeline.stages()[0];
  std::uint64_t sum = 0;
  for (const std::uint64_t moves : stage0.moves_by_robot) sum += moves;
  EXPECT_EQ(sum, stage0.moves);
  EXPECT_GE(stage0.active_robots(), 1u);
  EXPECT_LE(stage0.active_robots(), 2u);
  // moves_by_robot is dense over the ranked label set; every stage's
  // vector spans the same labels.
  EXPECT_EQ(stage0.moves_by_robot.size(), timeline.robot_labels().size());
  // The finder (label 1) does the mapping work; the helper follows it.
  EXPECT_GT(timeline.moves_for(stage0, 1), 0u);
  EXPECT_EQ(timeline.moves_for(stage0, 999), 0u);  // unknown label
}

TEST(Timeline, PrintRendersStages) {
  const graph::Graph g = graph::make_ring(6);
  const auto nodes = graph::nodes_undispersed_random(g, 2, 3);
  const auto placement =
      graph::make_placement(nodes, graph::labels_sequential(2));
  const auto [out, trace] = traced_run(g, placement);
  const Timeline timeline = Timeline::from_trace(trace, *out.schedule);
  std::ostringstream os;
  timeline.print(os);
  EXPECT_NE(os.str().find("undispersed"), std::string::npos);
  EXPECT_NE(os.str().find("uxs-catchall"), std::string::npos);
}

TEST(Timeline, EmptyTraceHasNoActiveStage) {
  AlgorithmConfig config;
  config.n = 5;
  config.sequence = uxs::make_pseudorandom_sequence(5, 16);
  const Schedule sched = Schedule::make(config);
  const Timeline timeline = Timeline::from_trace({}, sched);
  EXPECT_EQ(timeline.first_active_stage(), -1);
  EXPECT_EQ(timeline.total_moves(), 0u);
}

}  // namespace
}  // namespace gather::core
