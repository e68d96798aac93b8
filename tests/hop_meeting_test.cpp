// Lemma 9/10 tests: i-Hop-Meeting (inside Faster-Gathering) converts a
// dispersed configuration with a pair at distance i into an undispersed
// one, and the full algorithm then gathers within the step-i budget.
#include <gtest/gtest.h>

#include "core/run.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/placement.hpp"
#include "uxs/uxs.hpp"

namespace gather::core {
namespace {

RunSpec faster_spec(const graph::Graph& g, std::uint64_t seed) {
  RunSpec spec;
  spec.algorithm = AlgorithmKind::FasterGathering;
  spec.config = make_config(g, uxs::make_covering_sequence(g, seed));
  return spec;
}

/// End of the stage handling pairs at distance d (schedule bound).
sim::Round stage_deadline(const Schedule& sched, unsigned d) {
  const auto& stages = sched.stages();
  const std::size_t idx = std::min<std::size_t>(d, stages.size() - 1);
  return stages[idx].end();
}

class PairAtDistance
    : public ::testing::TestWithParam<std::tuple<unsigned, std::uint64_t>> {};

TEST_P(PairAtDistance, GathersWithinTheMatchingStage) {
  const auto [distance, seed] = GetParam();
  // A long path guarantees pairs at every small distance.
  const graph::Graph g = graph::make_path(14);
  const std::size_t k = 3;
  const auto nodes = graph::nodes_pair_at_distance(g, k, distance, seed);
  const auto placement = graph::make_placement(
      nodes, graph::labels_random_distinct(k, g.num_nodes(), 2, seed));
  // Confirm the planted distance is the true minimum.
  ASSERT_EQ(graph::min_pairwise_distance(g, nodes), distance);

  const RunSpec spec = faster_spec(g, seed);
  const RunOutcome out = run_gathering(g, placement, spec);
  EXPECT_TRUE(out.result.all_terminated);
  EXPECT_TRUE(out.result.detection_correct);
  // Theorem 12: a pair at distance i is resolved by stage i at the latest.
  EXPECT_GE(out.gathered_stage, 0);
  EXPECT_LE(out.gathered_stage_hop, static_cast<int>(distance));
  const Schedule sched = Schedule::make(spec.config);
  EXPECT_LE(out.result.metrics.rounds, stage_deadline(sched, distance));
}

INSTANTIATE_TEST_SUITE_P(
    Distances, PairAtDistance,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u),
                       ::testing::Values(std::uint64_t{3}, std::uint64_t{8})));

TEST(HopMeeting, AdjacentPairOnVariousFamilies) {
  for (const auto& entry : graph::standard_test_suite(6)) {
    const graph::Graph& g = entry.graph;
    if (g.num_nodes() < 4 || graph::diameter(g) < 1) continue;
    SCOPED_TRACE(entry.name);
    const auto nodes = graph::nodes_pair_at_distance(g, 2, 1, 5);
    const auto placement = graph::make_placement(
        nodes, graph::labels_random_distinct(2, g.num_nodes(), 2, 11));
    const RunOutcome out = run_gathering(g, placement, faster_spec(g, 6));
    EXPECT_TRUE(out.result.detection_correct);
    EXPECT_LE(out.gathered_stage_hop, 1);
  }
}

TEST(HopMeeting, DistanceTwoStillWithinCubicStage) {
  // Theorem 12(i): distance <= 2 keeps the total at the O(n^3) scale
  // (stage 2's hop budget is O(n^2 log n), dominated by R(n)).
  const graph::Graph g = graph::make_grid(4, 4);
  const auto nodes = graph::nodes_pair_at_distance(g, 2, 2, 3);
  const auto placement =
      graph::make_placement(nodes, graph::labels_sequential(2));
  const RunSpec spec = faster_spec(g, 1);
  const RunOutcome out = run_gathering(g, placement, spec);
  ASSERT_TRUE(out.result.detection_correct);
  const Schedule sched = Schedule::make(spec.config);
  // 3 * R(n) generously covers steps 1-3 when hop budgets are sub-cubic.
  EXPECT_LE(out.result.metrics.rounds, 4 * sched.undispersed_total());
}

TEST(HopMeeting, EqualBitPrefixesStillMeet) {
  // Labels whose differing bit is high (e.g. 16 vs 48: LSB-first bits
  // 00001 vs 000011) delay the meeting to a late cycle but never past
  // the maxbits cycles of the procedure.
  const graph::Graph g = graph::make_path(10);
  graph::Placement placement;
  placement.push_back({4, 16});
  placement.push_back({5, 48});
  const RunSpec spec = faster_spec(g, 2);
  const RunOutcome out = run_gathering(g, placement, spec);
  EXPECT_TRUE(out.result.detection_correct);
  EXPECT_LE(out.gathered_stage_hop, 1);
}

TEST(HopMeeting, ThreeCloseRobotsAssembleSafely) {
  // Freeze-on-meet with a third robot inside the ball: any co-location
  // produces an undispersed configuration; the subsequent UG gathers.
  const graph::Graph g = graph::make_star(8);
  graph::Placement placement;
  placement.push_back({1, 3});  // leaves around the hub: pairwise distance 2
  placement.push_back({2, 5});
  placement.push_back({3, 6});
  const RunOutcome out = run_gathering(g, placement, faster_spec(g, 4));
  EXPECT_TRUE(out.result.detection_correct);
  EXPECT_LE(out.gathered_stage_hop, 2);
}

TEST(HopMeeting, DeltaAwareVariantGathersToo) {
  // Remark 14: knowing Δ shrinks cycles but must not change correctness.
  const graph::Graph g = graph::make_ring(12);
  const auto nodes = graph::nodes_pair_at_distance(g, 3, 4, 9);
  const auto placement = graph::make_placement(
      nodes, graph::labels_random_distinct(3, g.num_nodes(), 2, 5));
  RunSpec spec = faster_spec(g, 3);
  spec.config.delta_aware = true;
  spec.config.known_delta = g.max_degree();
  const RunOutcome out = run_gathering(g, placement, spec);
  EXPECT_TRUE(out.result.detection_correct);

  RunSpec plain = faster_spec(g, 3);
  const RunOutcome base = run_gathering(g, placement, plain);
  ASSERT_TRUE(base.result.detection_correct);
  // On a bounded-degree graph the Δ-aware ladder is strictly faster.
  EXPECT_LT(out.result.metrics.rounds, base.result.metrics.rounds);
}

TEST(HopMeeting, RemarksThirteenAndFourteenCompose) {
  // Both remarks together: known distance picks the single right step,
  // known Δ shrinks its cycles — correctness must be unaffected and the
  // combination must be the fastest of the four variants.
  const graph::Graph g = graph::make_ring(16);
  const auto nodes = graph::nodes_pair_at_distance(g, 3, 4, 3);
  const auto placement = graph::make_placement(
      nodes, graph::labels_random_distinct(3, g.num_nodes(), 2, 7));
  const auto seq = uxs::make_covering_sequence(g, 3);
  sim::Round rounds[2][2];
  for (const int hint : {0, 1}) {
    for (const int aware : {0, 1}) {
      RunSpec spec;
      spec.algorithm = AlgorithmKind::FasterGathering;
      spec.config = make_config(g, seq);
      if (hint != 0) spec.config.known_min_pair_distance = 4;
      if (aware != 0) {
        spec.config.delta_aware = true;
        spec.config.known_delta = g.max_degree();
      }
      const RunOutcome out = run_gathering(g, placement, spec);
      ASSERT_TRUE(out.result.detection_correct)
          << "hint=" << hint << " aware=" << aware;
      rounds[hint][aware] = out.result.metrics.rounds;
    }
  }
  EXPECT_LT(rounds[1][1], rounds[0][0]);  // both beats neither
  EXPECT_LE(rounds[1][1], rounds[1][0]);  // adding Δ-awareness helps
  EXPECT_LE(rounds[1][1], rounds[0][1]);  // adding the hint helps
}

TEST(HopMeeting, KnownDistanceHintRunsDirectStep) {
  // Remark 13: with the true min distance given, the single hinted step
  // suffices and the run is much shorter.
  const graph::Graph g = graph::make_path(12);
  const auto nodes = graph::nodes_pair_at_distance(g, 2, 3, 4);
  const auto placement =
      graph::make_placement(nodes, graph::labels_sequential(2));
  RunSpec hinted = faster_spec(g, 8);
  hinted.config.known_min_pair_distance = 3;
  const RunOutcome fast = run_gathering(g, placement, hinted);
  EXPECT_TRUE(fast.result.detection_correct);

  const RunOutcome full = run_gathering(g, placement, faster_spec(g, 8));
  ASSERT_TRUE(full.result.detection_correct);
  EXPECT_LT(fast.result.metrics.rounds, full.result.metrics.rounds);
}

}  // namespace
}  // namespace gather::core
