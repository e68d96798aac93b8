// End-to-end Faster-Gathering tests (Theorems 12 and 16): regime bounds,
// stage attribution, detection soundness, determinism, and skip/naive
// engine equivalence on the real algorithm.
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

sim::Round stage_end(const Schedule& sched, std::size_t idx) {
  return sched.stages()[idx].end();
}

TEST(Theorem16, ManyRobotsRegimeGathersInStageTwoOrEarlier) {
  // k >= floor(n/2) + 1: Lemma 15 guarantees a pair within distance 2,
  // so gathering completes by the hop-2 stage — the O(n^3) regime.
  for (const auto& entry : graph::standard_test_suite(3)) {
    const graph::Graph& g = entry.graph;
    const std::size_t k = g.num_nodes() / 2 + 1;
    if (k < 2 || k > g.num_nodes()) continue;
    SCOPED_TRACE(entry.name);
    const auto nodes = graph::nodes_adversarial_spread(g, k, 7);
    const auto placement = graph::make_placement(
        nodes, graph::labels_random_distinct(k, g.num_nodes(), 2, 13));
    const RunSpec spec = faster_spec(g, 3);
    const RunOutcome out = run_gathering(g, placement, spec);
    EXPECT_TRUE(out.result.detection_correct);
    EXPECT_LE(out.gathered_stage_hop, 2);
    const Schedule sched = Schedule::make(spec.config);
    EXPECT_LE(out.result.metrics.rounds, stage_end(sched, 2));
  }
}

TEST(Theorem16, ThirdRegimeGathersInStageFourOrEarlier) {
  // floor(n/3)+1 <= k: a pair within distance 4 exists (Lemma 15, c=3).
  for (const auto& entry : graph::standard_test_suite(4)) {
    const graph::Graph& g = entry.graph;
    const std::size_t k = g.num_nodes() / 3 + 1;
    if (k < 2) continue;
    SCOPED_TRACE(entry.name);
    const auto nodes = graph::nodes_adversarial_spread(g, k, 11);
    const auto placement = graph::make_placement(
        nodes, graph::labels_random_distinct(k, g.num_nodes(), 2, 17));
    const RunSpec spec = faster_spec(g, 4);
    const RunOutcome out = run_gathering(g, placement, spec);
    EXPECT_TRUE(out.result.detection_correct);
    EXPECT_LE(out.gathered_stage_hop, 4);
    const Schedule sched = Schedule::make(spec.config);
    EXPECT_LE(out.result.metrics.rounds, stage_end(sched, 4));
  }
}

TEST(Theorem12, FarPairFallsThroughToUxsStage) {
  // Two robots at distance > 5 on a long path: steps 1-6 find nothing,
  // the UXS stage gathers with detection (the catch-all regime).
  const graph::Graph g = graph::make_path(9);
  graph::Placement placement;
  placement.push_back({0, 5});
  placement.push_back({8, 9});
  const RunOutcome out = run_gathering(g, placement, faster_spec(g, 2));
  EXPECT_TRUE(out.result.detection_correct);
  EXPECT_EQ(out.gathered_stage_hop, 6);  // the UXS stage
}

TEST(Theorem12, UndispersedStartUsesStageOne) {
  const graph::Graph g = graph::make_torus(3, 4);
  const auto nodes = graph::nodes_undispersed_random(g, 5, 3);
  const auto placement = graph::make_placement(
      nodes, graph::labels_random_distinct(5, g.num_nodes(), 2, 23));
  const RunSpec spec = faster_spec(g, 5);
  const RunOutcome out = run_gathering(g, placement, spec);
  EXPECT_TRUE(out.result.detection_correct);
  EXPECT_EQ(out.gathered_stage_hop, 0);
  const Schedule sched = Schedule::make(spec.config);
  EXPECT_LE(out.result.metrics.rounds, stage_end(sched, 0));
}

TEST(FasterGathering, SingleRobotRunsToUxsAndTerminates) {
  const graph::Graph g = graph::make_ring(5);
  graph::Placement placement;
  placement.push_back({2, 3});
  const RunOutcome out = run_gathering(g, placement, faster_spec(g, 1));
  EXPECT_TRUE(out.result.all_terminated);
  EXPECT_TRUE(out.result.detection_correct);
}

TEST(FasterGathering, AllTerminateSameRoundSameNode) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const graph::Graph g = graph::make_random_connected(10, 16, seed);
    const std::size_t k = 2 + seed % 4;
    const auto nodes = graph::nodes_dispersed_random(g, k, seed);
    const auto placement = graph::make_placement(
        nodes, graph::labels_random_distinct(k, 10, 2, seed + 31));
    const RunOutcome out = run_gathering(g, placement, faster_spec(g, seed));
    EXPECT_TRUE(out.result.all_terminated) << "seed " << seed;
    EXPECT_TRUE(out.result.detection_correct) << "seed " << seed;
    EXPECT_EQ(out.result.metrics.first_termination,
              out.result.metrics.last_termination);
  }
}

TEST(FasterGathering, DeterministicTraceAcrossReruns) {
  const graph::Graph g = graph::make_grid(3, 3);
  const auto nodes = graph::nodes_dispersed_random(g, 4, 5);
  const auto placement = graph::make_placement(
      nodes, graph::labels_random_distinct(4, 9, 2, 7));
  std::uint64_t hash = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const RunOutcome out = run_gathering(g, placement, faster_spec(g, 5));
    ASSERT_TRUE(out.result.detection_correct);
    if (rep == 0) hash = out.result.metrics.trace_hash;
    EXPECT_EQ(out.result.metrics.trace_hash, hash);
  }
}

TEST(FasterGathering, SkipAndNaiveEnginesAgree) {
  // The full algorithm under both engine modes: identical traces and
  // round counts. Uses a small instance (naive mode pays per round).
  const graph::Graph g = graph::make_ring(6);
  const auto nodes = graph::nodes_pair_at_distance(g, 2, 1, 3);
  const auto placement =
      graph::make_placement(nodes, graph::labels_sequential(2));
  RunSpec spec = faster_spec(g, 6);
  const RunOutcome fast = run_gathering(g, placement, spec);
  spec.naive_engine = true;
  const RunOutcome slow = run_gathering(g, placement, spec);
  ASSERT_TRUE(fast.result.detection_correct);
  ASSERT_TRUE(slow.result.detection_correct);
  EXPECT_EQ(fast.result.metrics.trace_hash, slow.result.metrics.trace_hash);
  EXPECT_EQ(fast.result.metrics.rounds, slow.result.metrics.rounds);
  EXPECT_GE(fast.result.metrics.simulated_rounds * 2,
            fast.result.metrics.decision_calls > 0 ? 2u : 0u);
  EXPECT_LT(fast.result.metrics.simulated_rounds,
            slow.result.metrics.simulated_rounds);
}

TEST(FasterGathering, GathersOnPortShuffledGraphs) {
  // Port numbering is adversarial; algorithms may not depend on it.
  const graph::Graph base = graph::make_grid(3, 4);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const graph::Graph g = graph::shuffle_ports(base, seed);
    const auto nodes = graph::nodes_undispersed_random(g, 4, seed);
    const auto placement = graph::make_placement(
        nodes, graph::labels_random_distinct(4, g.num_nodes(), 2, seed));
    const RunOutcome out = run_gathering(g, placement, faster_spec(g, seed));
    EXPECT_TRUE(out.result.detection_correct) << "seed " << seed;
  }
}

TEST(FasterGathering, RejectsLabelOutOfRange) {
  const graph::Graph g = graph::make_ring(4);
  graph::Placement placement;
  placement.push_back({0, 17});  // > n^2 = 16
  placement.push_back({1, 2});
  EXPECT_THROW((void)run_gathering(g, placement, faster_spec(g, 1)),
               ContractViolation);
}

TEST(FasterGathering, RejectsMismatchedN) {
  const graph::Graph g = graph::make_ring(4);
  graph::Placement placement;
  placement.push_back({0, 1});
  RunSpec spec = faster_spec(g, 1);
  spec.config.n = 5;
  EXPECT_THROW((void)run_gathering(g, placement, spec), ContractViolation);
}

}  // namespace
}  // namespace gather::core
