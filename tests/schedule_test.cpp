// Schedule tests: the shared timeline every robot derives from n.
#include <gtest/gtest.h>

#include "core/schedule.hpp"
#include "support/math.hpp"
#include "uxs/uxs.hpp"

namespace gather::core {
namespace {

AlgorithmConfig config_for(std::size_t n, std::uint64_t t = 64) {
  AlgorithmConfig c;
  c.n = n;
  c.sequence = uxs::make_pseudorandom_sequence(n, t);
  return c;
}

TEST(Schedule, MapBudgetFormula) {
  // R1(n) = (4n+2)·n·n + 2n + 8 exactly.
  EXPECT_EQ(Schedule::map_budget(1), 6u + 10u);
  EXPECT_EQ(Schedule::map_budget(8), (4 * 8 + 2) * 64u + 24u);
  EXPECT_GT(Schedule::map_budget(20), Schedule::map_budget(19));
}

TEST(Schedule, MapBudgetIsCubic) {
  const double r64 = static_cast<double>(Schedule::map_budget(64));
  const double r32 = static_cast<double>(Schedule::map_budget(32));
  EXPECT_NEAR(r64 / r32, 8.0, 0.8);  // ~2^3 for doubled n
}

TEST(Schedule, DefaultLadderHasSevenStages) {
  const Schedule s = Schedule::make(config_for(10));
  ASSERT_EQ(s.stages().size(), 7u);
  EXPECT_EQ(s.stages()[0].kind, StageKind::Undispersed);
  for (unsigned i = 1; i <= 5; ++i) {
    EXPECT_EQ(s.stages()[i].kind, StageKind::HopThenUndispersed);
    EXPECT_EQ(s.stages()[i].hop, i);
  }
  EXPECT_EQ(s.stages().back().kind, StageKind::UxsGathering);
}

TEST(Schedule, StagesAreContiguous) {
  // n = 10^6 saturates the deep hop stages' durations: starts saturate
  // too, and end() must never wrap below its start.
  for (const std::size_t n : {std::size_t{9}, std::size_t{1000000}}) {
    const Schedule s = Schedule::make(config_for(n));
    Round at = 0;
    for (const Stage& stage : s.stages()) {
      EXPECT_EQ(stage.start, at) << "n=" << n;
      EXPECT_GE(stage.duration, 1u) << "n=" << n;
      EXPECT_GE(stage.end(), stage.start) << "n=" << n;
      at = support::sat_add(at, stage.duration);
      EXPECT_EQ(stage.end(), at) << "n=" << n;
    }
    EXPECT_GE(s.hard_cap(), at) << "n=" << n;
  }
}

TEST(Schedule, CycleLengthFormula) {
  const Schedule s = Schedule::make(config_for(5));  // base = 4
  EXPECT_EQ(s.cycle_len(1), 8u);           // 2*4
  EXPECT_EQ(s.cycle_len(2), 8u + 32u);     // + 2*16
  EXPECT_EQ(s.cycle_len(3), 40u + 128u);   // + 2*64
}

TEST(Schedule, DeltaAwareShrinksCycles) {
  AlgorithmConfig c = config_for(20);
  const Schedule plain = Schedule::make(c);
  c.delta_aware = true;
  c.known_delta = 3;
  const Schedule aware = Schedule::make(c);
  EXPECT_LT(aware.cycle_len(4), plain.cycle_len(4));
  EXPECT_EQ(aware.cycle_len(1), 6u);  // 2*Δ
}

TEST(Schedule, MaxbitsBoundsLabelLength) {
  const Schedule s = Schedule::make(config_for(10));  // b=2, bit_width(10)=4
  EXPECT_EQ(s.maxbits(), 8u);
  // Any label in [1, 100] has at most 7 bits <= maxbits.
  EXPECT_GE(s.maxbits(), 7u);
}

TEST(Schedule, KnownDistanceZeroSkipsLadder) {
  AlgorithmConfig c = config_for(10);
  c.known_min_pair_distance = 0;
  const Schedule s = Schedule::make(c);
  ASSERT_EQ(s.stages().size(), 2u);
  EXPECT_EQ(s.stages()[0].kind, StageKind::Undispersed);
  EXPECT_EQ(s.stages()[1].kind, StageKind::UxsGathering);
}

TEST(Schedule, KnownDistanceThreeRunsOnlyThatStep) {
  AlgorithmConfig c = config_for(10);
  c.known_min_pair_distance = 3;
  const Schedule s = Schedule::make(c);
  ASSERT_EQ(s.stages().size(), 2u);
  EXPECT_EQ(s.stages()[0].kind, StageKind::HopThenUndispersed);
  EXPECT_EQ(s.stages()[0].hop, 3u);
}

TEST(Schedule, KnownDistanceLargeGoesStraightToUxs) {
  AlgorithmConfig c = config_for(10);
  c.known_min_pair_distance = 9;
  const Schedule s = Schedule::make(c);
  ASSERT_EQ(s.stages().size(), 1u);
  EXPECT_EQ(s.stages()[0].kind, StageKind::UxsGathering);
  EXPECT_EQ(s.uxs_start(), 0u);
}

TEST(Schedule, KnownDistanceIsMuchFasterForClosePairs) {
  // Remark 13: the distance hint removes all earlier steps' budgets.
  AlgorithmConfig c = config_for(12);
  const Schedule full = Schedule::make(c);
  c.known_min_pair_distance = 1;
  const Schedule hinted = Schedule::make(c);
  EXPECT_LT(hinted.uxs_start(), full.uxs_start());
}

TEST(Schedule, SingleNodeGraphDegenerates) {
  const Schedule s = Schedule::make(config_for(1, 1));
  EXPECT_EQ(s.cycle_len(5), 0u);  // base 0 -> hop stages are empty
  EXPECT_GE(s.stages().size(), 1u);
}

TEST(Schedule, RequiresValidConfig) {
  AlgorithmConfig c;  // n = 0
  EXPECT_THROW((void)Schedule::make(c), ContractViolation);
}

TEST(Schedule, SaturatesInsteadOfOverflowing) {
  const Schedule s = Schedule::make(config_for(100000));
  EXPECT_GE(s.cycle_len(5), s.cycle_len(4));  // monotone even when huge
  EXPECT_GE(s.hard_cap(), s.stages().back().start);
}

}  // namespace
}  // namespace gather::core
