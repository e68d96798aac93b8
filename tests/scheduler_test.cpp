// Scheduler-layer referee suite.
//
// Three pins hold the refactor together:
//  1. The `synchronous` scheduler is bit-identical to the pre-refactor
//     engine: trace hashes, round counts, and move totals captured from
//     the engine BEFORE the scheduler layer existed are hard-coded here
//     and must keep matching (all quantities are pure integer functions
//     of the deterministic instance, so they are platform-independent).
//  2. `adversarial-delay` is pinned to the legacy core::DelayedRobot
//     wrapper it subsumed: the wrapper is deleted, and the absolute
//     trace hashes / metrics / final positions captured while both
//     paths ran trace-identical are hard-coded across the edge cases
//     the wrapper was known to handle (all robots late, single robot,
//     ties).
//  3. Every adversary preserves skip-vs-naive equivalence — scheduler
//     policies are pure per-robot functions, so event-driven skipping
//     must not change observable behaviour under any of them.
//
// On top sit behavioural properties: semi-synchronous fairness, crash
// freezing, detection soundness flags (RunResult::false_announcement),
// and a registry/sweep pass over every graph family × every adversary.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/robots.hpp"
#include "core/run.hpp"
#include "graph/generators.hpp"
#include "graph/placement.hpp"
#include "scenario/scenario.hpp"
#include "scenario/sweep.hpp"
#include "sim/engine.hpp"
#include "sim/scheduler.hpp"
#include "sim/trace.hpp"
#include "support/assert.hpp"
#include "support/parallel_for.hpp"
#include "uxs/uxs.hpp"

namespace gather {
namespace {

// ---- 1. synchronous == pre-refactor engine, bit for bit ------------------

TEST(SchedulerEquivalence, SynchronousPinnedToPreRefactorEngine) {
  struct Pinned {
    const char* family;
    std::size_t n;
    std::size_t k;
    const char* placement;
    const char* algorithm;
    std::uint64_t seed;
    std::uint64_t trace_hash;
    sim::Round rounds;
    sim::Round first_gathered;
    std::uint64_t total_moves;
  };
  // Captured from the seed engine at commit dbf0492 (pre-scheduler),
  // running the same ScenarioSpecs. Every run here resolves through the
  // registry's explicit SynchronousScheduler instance, so both "no
  // scheduler" and "synchronous scheduler" are pinned at once.
  const Pinned pinned[] = {
      {"ring", 12, 4, "adversarial", "faster", 42,
       0xa69fd4bb54c2c53fULL, 54723ULL, 54720ULL, 822ULL},
      {"torus", 12, 5, "dispersed", "faster", 7,
       0x3665cc23ed2d109bULL, 14689ULL, 7719ULL, 936ULL},
      {"random", 14, 4, "undispersed", "faster", 3,
       0xb062aa2846a5d8beULL, 11432ULL, 11419ULL, 546ULL},
      {"grid", 16, 9, "adversarial", "faster", 5,
       0x812403775f82af3cULL, 34237ULL, 34234ULL, 1366ULL},
      {"star", 9, 3, "one-node", "undispersed", 11,
       0x995d072cdd647e10ULL, 3122ULL, 0ULL, 136ULL},
      {"hypercube", 16, 4, "dispersed", "uxs", 2,
       0x7344c3935fbb3d08ULL, 16384ULL, 55ULL, 28648ULL},
  };
  for (const Pinned& p : pinned) {
    scenario::ScenarioSpec spec;
    spec.family = p.family;
    spec.n = p.n;
    spec.k = p.k;
    spec.placement = p.placement;
    spec.algorithm = p.algorithm;
    spec.seed = p.seed;
    ASSERT_EQ(spec.scheduler, "synchronous");
    const core::RunOutcome out = scenario::run_scenario(spec);
    const std::string name = std::string(p.family) + "/" + p.algorithm;
    EXPECT_EQ(out.result.metrics.trace_hash, p.trace_hash) << name;
    EXPECT_EQ(out.result.metrics.rounds, p.rounds) << name;
    EXPECT_EQ(out.result.metrics.first_gathered, p.first_gathered) << name;
    EXPECT_EQ(out.result.metrics.total_moves, p.total_moves) << name;
    EXPECT_TRUE(out.result.detection_correct) << name;
    EXPECT_FALSE(out.result.false_announcement) << name;
  }
}

TEST(SchedulerEquivalence, NullAndSynchronousSchedulerAgree) {
  const graph::Graph g = graph::make_torus(3, 4);
  const auto nodes = graph::nodes_undispersed_random(g, 4, 5);
  const auto placement =
      graph::make_placement(nodes, graph::labels_sequential(4));
  core::RunSpec spec;
  spec.config = core::make_config(g, uxs::make_covering_sequence(g, 3));
  const core::RunOutcome none = core::run_gathering(g, placement, spec);
  spec.scheduler = std::make_shared<sim::SynchronousScheduler>();
  const core::RunOutcome sync = core::run_gathering(g, placement, spec);
  EXPECT_EQ(none.result.metrics.trace_hash, sync.result.metrics.trace_hash);
  EXPECT_EQ(none.result.metrics.rounds, sync.result.metrics.rounds);
  EXPECT_EQ(none.result.metrics.total_message_bits,
            sync.result.metrics.total_message_bits);
  EXPECT_EQ(none.result.metrics.decision_calls,
            sync.result.metrics.decision_calls);
}

// ---- 2. adversarial-delay pinned to the legacy DelayedRobot wrapper ------
//
// core::DelayedRobot is deleted. While it existed, every case below was
// asserted trace-identical between the wrapper path and the scheduler
// path; the expected values here are those captured equivalence-era
// numbers, now pinned absolutely so the scheduler cannot drift from the
// wrapper semantics it replaced.

struct DelayRunOutcome {
  bool threw = false;  ///< misalignment broke a protocol invariant
  sim::RunResult result;
  std::vector<sim::NodeId> positions;
};

/// Equivalence-era pin: the run's full observable signature.
struct DelayPin {
  std::uint64_t trace_hash;
  sim::Round rounds;
  std::uint64_t total_moves;
  bool gathered;
  bool detection_correct;
  std::vector<sim::NodeId> positions;
};

core::AlgorithmConfig delay_config(const graph::Graph& g) {
  core::AlgorithmConfig config;
  config.n = g.num_nodes();
  config.sequence = uxs::make_covering_sequence(g, 3);
  return config;
}

sim::EngineConfig delay_engine_config(const graph::Graph& g,
                                      const std::vector<sim::Round>& delays) {
  const core::Schedule sched = core::Schedule::make(delay_config(g));
  sim::Round max_delay = 0;
  for (const sim::Round d : delays) max_delay = std::max(max_delay, d);
  sim::EngineConfig cfg;
  cfg.hard_cap = sched.hard_cap() + max_delay + 8;
  return cfg;
}

DelayRunOutcome finish(sim::Engine& engine,
                       const graph::Placement& placement) {
  DelayRunOutcome out;
  try {
    out.result = engine.run();
  } catch (const ContractViolation&) {
    out.threw = true;
    return out;
  }
  for (const graph::RobotStart& start : placement) {
    out.positions.push_back(engine.position_of(start.label));
  }
  return out;
}

/// Plain robots, delays owned by AdversarialDelayScheduler.
DelayRunOutcome run_scheduler_delayed(const graph::Graph& g,
                                      const graph::Placement& placement,
                                      const std::vector<sim::Round>& delays,
                                      bool naive = false) {
  const core::AlgorithmConfig config = delay_config(g);
  sim::EngineConfig cfg = delay_engine_config(g, delays);
  cfg.naive_stepping = naive;
  cfg.scheduler = std::make_shared<sim::AdversarialDelayScheduler>(delays);
  sim::Engine engine(g, cfg);
  for (const graph::RobotStart& start : placement) {
    engine.add_robot(
        std::make_unique<core::FasterGatheringRobot>(start.label, config),
        start.node);
  }
  return finish(engine, placement);
}

void expect_delay_pin(const graph::Graph& g,
                      const graph::Placement& placement,
                      const std::vector<sim::Round>& delays,
                      const DelayPin& pin, const std::string& name) {
  const DelayRunOutcome fresh = run_scheduler_delayed(g, placement, delays);
  ASSERT_FALSE(fresh.threw) << name;
  EXPECT_EQ(fresh.result.metrics.trace_hash, pin.trace_hash) << name;
  EXPECT_EQ(fresh.result.metrics.rounds, pin.rounds) << name;
  EXPECT_EQ(fresh.result.metrics.total_moves, pin.total_moves) << name;
  EXPECT_EQ(fresh.positions, pin.positions) << name;
  EXPECT_EQ(fresh.result.gathered_at_end, pin.gathered) << name;
  EXPECT_EQ(fresh.result.detection_correct, pin.detection_correct) << name;
  EXPECT_FALSE(fresh.result.hit_round_cap) << name;
}

TEST(AdversarialDelay, PinnedToLegacyDelayedRobotOnMixedDelays) {
  const graph::Graph g = graph::make_ring(8);
  const auto nodes = graph::nodes_undispersed_random(g, 3, 5);
  const auto placement =
      graph::make_placement(nodes, graph::labels_sequential(3));
  // The wrapper path threw a ProtocolViolation on this misalignment,
  // and so must the scheduler path.
  const DelayRunOutcome mixed =
      run_scheduler_delayed(g, placement, {0, 3, 7});
  EXPECT_TRUE(mixed.threw) << "mixed";
  expect_delay_pin(g, placement, {0, 0, 0},
                   {0xf064f99c5b75f20bULL, 2216, 161, true, true, {1, 1, 1}},
                   "zero");
}

TEST(AdversarialDelay, PinnedToLegacyWhenAllRobotsDelayedPastRoundZero) {
  // Nobody acts in round 0 — the engine must idle through the silent
  // prefix exactly like the wrapper did (it kept slots nominally awake).
  const graph::Graph g = graph::make_ring(8);
  const auto nodes = graph::nodes_undispersed_random(g, 3, 5);
  const auto placement =
      graph::make_placement(nodes, graph::labels_sequential(3));
  expect_delay_pin(
      g, placement, {5, 9, 13},
      {0x76e82d35c962e350ULL, 380751, 903, true, false, {1, 1, 1}},
      "all-late");
  // Uniform late start: alignment preserved, schedule intact.
  const DelayRunOutcome zero = run_scheduler_delayed(g, placement, {0, 0, 0});
  ASSERT_FALSE(zero.threw);
  expect_delay_pin(
      g, placement, {100, 100, 100},
      {0x38acccbd2e646646ULL, zero.result.metrics.rounds + 100, 161, true,
       true, {1, 1, 1}},
      "uniform-100");
}

TEST(AdversarialDelay, PinnedToLegacyOnSingleRobot) {
  const graph::Graph g = graph::make_path(5);
  graph::Placement placement;
  placement.push_back({2, 1});
  expect_delay_pin(g, placement, {11},
                   {0xf56c62d50c95ba19ULL, 25629, 272, true, true, {2}},
                   "single");
  expect_delay_pin(g, placement, {0},
                   {0x0f940c7b6b793066ULL, 25618, 272, true, true, {2}},
                   "single-zero");
}

TEST(AdversarialDelay, PinnedToLegacyOnDelayTies) {
  // Tied wake rounds exercise simultaneous release: the tied robots must
  // activate in the same round with the same views the wrapper produced.
  const graph::Graph g = graph::make_torus(3, 3);
  const auto nodes = graph::nodes_undispersed_random(g, 4, 2);
  const auto placement = graph::make_placement(
      nodes, graph::labels_random_distinct(4, g.num_nodes(), 2, 9));
  expect_delay_pin(
      g, placement, {6, 6, 6, 6},
      {0x40bd9454aa23cdb5ULL, 3128, 287, true, true, {8, 8, 8, 8}},
      "all-tied");
  expect_delay_pin(
      g, placement, {0, 4, 4, 0},
      {0x5342308406146e0bULL, 6377, 556, false, false, {8, 3, 3, 8}},
      "pair-tied");
}

TEST(AdversarialDelay, SkipAndNaiveAgreeUnderDelays) {
  const graph::Graph g = graph::make_ring(8);
  const auto nodes = graph::nodes_undispersed_random(g, 3, 5);
  const auto placement =
      graph::make_placement(nodes, graph::labels_sequential(3));
  const std::vector<sim::Round> delays = {2, 0, 6};
  const DelayRunOutcome skip = run_scheduler_delayed(g, placement, delays);
  const DelayRunOutcome naive =
      run_scheduler_delayed(g, placement, delays, /*naive=*/true);
  ASSERT_EQ(skip.threw, naive.threw);
  ASSERT_FALSE(skip.threw);
  EXPECT_EQ(skip.result.metrics.trace_hash, naive.result.metrics.trace_hash);
  EXPECT_EQ(skip.result.metrics.rounds, naive.result.metrics.rounds);
  EXPECT_EQ(skip.positions, naive.positions);
}

// ---- scripted robots for adversary semantics -----------------------------

class ScriptedRobot final : public sim::Robot {
 public:
  using Script =
      std::function<sim::Action(ScriptedRobot&, const sim::RoundView&)>;
  ScriptedRobot(sim::RobotId id, Script script)
      : sim::Robot(id), script_(std::move(script)) {}

  sim::Action on_round(const sim::RoundView& view) override {
    return script_(*this, view);
  }

 private:
  Script script_;
};

/// The engine_test mixing script: phase-structured walking, waiting, and
/// merge-on-meet following — exercises every engine path.
ScriptedRobot::Script phased_script(sim::Round horizon) {
  return [horizon](ScriptedRobot& self,
                   const sim::RoundView& view) -> sim::Action {
    if (view.round >= horizon) return sim::Action::terminate();
    sim::RobotId biggest = 0;
    for (const sim::RobotPublicState& s : view.colocated) {
      if (s.id != self.id() && s.tag != sim::StateTag::Terminated)
        biggest = std::max(biggest, s.id);
    }
    if (biggest > self.id()) return sim::Action::follow(biggest);
    const sim::Round phase = view.round / 7;
    if ((phase + self.id()) % 3 == 0) {
      const sim::Round boundary =
          std::min(horizon, (view.round / 7 + 1) * 7);
      return sim::Action::stay_until_round(boundary);
    }
    const auto port =
        static_cast<sim::Port>((view.round + self.id()) % view.degree);
    return sim::Action::move(port);
  };
}

struct ScriptedRun {
  sim::RunResult result;
  std::vector<sim::NodeId> positions;
  std::vector<std::uint64_t> moves;
};

ScriptedRun run_scripted(const graph::Graph& g, std::size_t k,
                         sim::Round horizon,
                         std::shared_ptr<const sim::Scheduler> scheduler,
                         bool naive, sim::Round hard_cap = 20000) {
  sim::EngineConfig cfg;
  cfg.hard_cap = hard_cap;
  cfg.naive_stepping = naive;
  cfg.scheduler = std::move(scheduler);
  sim::Engine engine(g, cfg);
  for (sim::RobotId id = 1; id <= k; ++id) {
    engine.add_robot(
        std::make_unique<ScriptedRobot>(id, phased_script(horizon)),
        static_cast<graph::NodeId>((id * 7) % g.num_nodes()));
  }
  ScriptedRun out;
  out.result = engine.run();
  for (sim::RobotId id = 1; id <= k; ++id) {
    out.positions.push_back(engine.position_of(id));
    out.moves.push_back(out.result.metrics.moves_per_robot[id - 1]);
  }
  return out;
}

// ---- 3. skip-vs-naive equivalence under every adversary ------------------

TEST(SchedulerEquivalence, SkipAndNaiveAgreeUnderEveryAdversary) {
  const graph::Graph g = graph::make_random_connected(16, 24, 3);
  const std::vector<
      std::pair<std::string, std::shared_ptr<const sim::Scheduler>>>
      adversaries = {
          {"synchronous", std::make_shared<sim::SynchronousScheduler>()},
          {"adversarial-delay",
           std::make_shared<sim::AdversarialDelayScheduler>(
               std::vector<sim::Round>{3, 0, 9, 1, 6})},
          {"semi-synchronous",
           std::make_shared<sim::SemiSynchronousScheduler>(17, 3)},
          {"semi-synchronous fairness=7",
           std::make_shared<sim::SemiSynchronousScheduler>(5, 7)},
          {"crash-fault",
           std::make_shared<sim::CrashFaultScheduler>(
               std::vector<sim::Round>{sim::kNoRound, 40, sim::kNoRound,
                                       sim::kNoRound, 12})},
      };
  for (const auto& [name, adversary] : adversaries) {
    const ScriptedRun skip = run_scripted(g, 5, 131, adversary, false);
    const ScriptedRun naive = run_scripted(g, 5, 131, adversary, true);
    EXPECT_EQ(skip.result.metrics.trace_hash, naive.result.metrics.trace_hash)
        << name;
    EXPECT_EQ(skip.result.metrics.rounds, naive.result.metrics.rounds) << name;
    EXPECT_EQ(skip.positions, naive.positions) << name;
    EXPECT_EQ(skip.moves, naive.moves) << name;
    EXPECT_EQ(skip.result.all_terminated, naive.result.all_terminated) << name;
    EXPECT_EQ(skip.result.false_announcement, naive.result.false_announcement)
        << name;
  }
}

// ---- semi-synchronous: fairness and determinism --------------------------

TEST(SemiSynchronous, FairnessBoundsConsecutiveSuppression) {
  // The robot observes LOCAL time (one tick per activation), so
  // suppression is invisible to it; the adversary's gaps show in the
  // GLOBAL rounds of its actions. A robot that moves every activation
  // leaves one trace event per activation: consecutive global gaps must
  // never exceed the fairness window, while the local clock it observes
  // must advance by exactly one per activation (the coherent timeline).
  // Windows below, at and past the 64-round block of the schedule.
  const graph::Graph g = graph::make_ring(6);
  for (const sim::Round fairness : {1u, 2u, 3u, 4u, 7u, 64u, 65u, 100u}) {
    SCOPED_TRACE("fairness " + std::to_string(fairness));
    std::vector<sim::Round> seen_local;
    auto walker = [&seen_local](ScriptedRobot&, const sim::RoundView& view) {
      seen_local.push_back(view.round);
      if (view.round >= 200) return sim::Action::terminate();
      return sim::Action::move(0);
    };
    sim::TraceRecorder recorder;
    sim::EngineConfig cfg;
    cfg.hard_cap = 2000;
    cfg.trace_recorder = &recorder;
    cfg.scheduler =
        std::make_shared<sim::SemiSynchronousScheduler>(5, fairness);
    sim::Engine engine(g, cfg);
    engine.add_robot(std::make_unique<ScriptedRobot>(1, walker), 0);
    const sim::RunResult result = engine.run();
    EXPECT_TRUE(result.all_terminated);
    // Coherent local timeline: view.round is exactly the activation count.
    ASSERT_GE(seen_local.size(), 2u);
    for (std::size_t i = 0; i < seen_local.size(); ++i) {
      EXPECT_EQ(seen_local[i], i) << "local clock skipped or repeated";
    }
    // Global fairness: the adversary suppressed, but never for a whole
    // fairness window.
    std::vector<sim::Round> move_rounds;
    for (const sim::TraceRound& round :
         sim::decode_trace(recorder.bytes()).rounds) {
      if (!round.moves.empty()) move_rounds.push_back(round.round);
    }
    ASSERT_GE(move_rounds.size(), 2u);
    EXPECT_LT(move_rounds.front(), fairness);
    bool suppressed_at_least_once = move_rounds.front() > 0;
    for (std::size_t i = 1; i < move_rounds.size(); ++i) {
      const sim::Round gap = move_rounds[i] - move_rounds[i - 1];
      EXPECT_LE(gap, fairness) << "gap at activation " << i;
      suppressed_at_least_once |= gap > 1;
    }
    if (fairness == 1) {
      // Nothing to suppress: every round is an activation.
      EXPECT_FALSE(suppressed_at_least_once);
      EXPECT_EQ(result.metrics.rounds, 200u);
      continue;
    }
    EXPECT_TRUE(suppressed_at_least_once)
        << "adversary never suppressed anything — not semi-synchronous";
    // The round counter is global: the run must span more rounds than the
    // robot experienced activations.
    EXPECT_GT(result.metrics.rounds, 200u);
  }
}

TEST(SemiSynchronous, StayPastHardCapEndsAtCapInBoundedTime) {
  // A Stay whose deadline lies past the hard cap ends the run at the cap.
  // Its n-th activation lies at or after r + n, past the cap, so the wake
  // saturates there: the clock never scans the schedule toward 2^64.
  const graph::Graph g = graph::make_ring(4);
  for (const sim::Round until :
       {sim::Round{1500}, sim::kNoRound - 1, sim::kNoRound}) {
    auto sleeper = [until](ScriptedRobot&, const sim::RoundView&) {
      return sim::Action::stay_until_round(until);
    };
    sim::EngineConfig cfg;
    cfg.hard_cap = 1000;
    cfg.scheduler = std::make_shared<sim::SemiSynchronousScheduler>(5, 7);
    sim::Engine engine(g, cfg);
    engine.add_robot(std::make_unique<ScriptedRobot>(1, sleeper), 0);
    engine.add_robot(std::make_unique<ScriptedRobot>(2, sleeper), 2);
    const sim::RunResult result = engine.run();
    EXPECT_TRUE(result.hit_round_cap) << until;
    EXPECT_FALSE(result.all_terminated) << until;
    // Each robot decided once, at its first activation.
    EXPECT_EQ(result.metrics.decision_calls, 2u) << until;
  }
}

TEST(SemiSynchronous, FairnessOneIsSynchronous) {
  const graph::Graph g = graph::make_random_connected(12, 18, 1);
  const auto sync = run_scripted(
      g, 4, 90, std::make_shared<sim::SynchronousScheduler>(), false);
  const auto ssync = run_scripted(
      g, 4, 90, std::make_shared<sim::SemiSynchronousScheduler>(99, 1),
      false);
  EXPECT_EQ(sync.result.metrics.trace_hash, ssync.result.metrics.trace_hash);
  EXPECT_EQ(sync.result.metrics.rounds, ssync.result.metrics.rounds);
}

// ---- the SSYNC referee suite: activation-count local clocks ---------------

/// A suppressing-class scheduler that never actually suppresses: the
/// engine runs the full local-clock machinery (activation counts and
/// exact wakes, through the base-class loops over activates()) but every
/// round is activated, so local time must coincide with global time and
/// the whole run must be bit-identical to the synchronous scheduler.
class AlwaysActivateScheduler final : public sim::Scheduler {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "always-activate";
  }
  [[nodiscard]] bool activates(sim::Round, std::uint32_t,
                               sim::RobotId) const override {
    return true;
  }
  [[nodiscard]] sim::Round fairness_bound() const override { return 3; }
  [[nodiscard]] bool adversarial() const override { return false; }
};

core::RunOutcome run_paper_algorithm(
    const graph::Graph& g, const graph::Placement& placement,
    std::shared_ptr<const sim::Scheduler> scheduler, sim::Round fairness,
    bool naive = false) {
  core::RunSpec spec;
  spec.config = core::make_config(g, uxs::make_covering_sequence(g, 3));
  spec.config.fairness = fairness;
  spec.naive_engine = naive;
  spec.scheduler = std::move(scheduler);
  return core::run_gathering(g, placement, spec);
}

// Hand-picked suppression for the Follow-promise boundary tests: slot 0
// (the leader) is activated every round, every other slot on even rounds
// only; `leader_crash` crashes slot 0 for good from that round on.
class EvenRoundsScheduler final : public sim::Scheduler {
 public:
  explicit EvenRoundsScheduler(sim::Round leader_crash = sim::kNoRound)
      : leader_crash_(leader_crash) {}
  [[nodiscard]] std::string_view name() const override {
    return "even-rounds";
  }
  [[nodiscard]] bool activates(sim::Round r, std::uint32_t slot,
                               sim::RobotId) const override {
    return slot == 0 || r % 2 == 0;
  }
  [[nodiscard]] sim::Round crash_round(std::uint32_t slot,
                                       sim::RobotId) const override {
    return slot == 0 ? leader_crash_ : sim::kNoRound;
  }
  [[nodiscard]] sim::Round fairness_bound() const override { return 2; }

 private:
  sim::Round leader_crash_;
};

struct FollowRun {
  sim::RunResult result;
  std::vector<sim::Round> follower_locals;  ///< view.round per consultation
  std::vector<sim::Round> terminated_at;    ///< global round, per slot
};

// Leader (slot 0, label 2) and follower (slot 1, label 1) share node 0 of
// a ring; both scripts run under EvenRoundsScheduler.
FollowRun run_follow_pair(ScriptedRobot::Script leader,
                          ScriptedRobot::Script follower,
                          sim::Round leader_crash, bool naive = false) {
  FollowRun out;
  auto recording = [&out, follower](ScriptedRobot& self,
                                    const sim::RoundView& view) {
    out.follower_locals.push_back(view.round);
    return follower(self, view);
  };
  sim::TraceRecorder recorder;
  sim::EngineConfig cfg;
  cfg.hard_cap = 1000;
  cfg.naive_stepping = naive;
  cfg.trace_recorder = &recorder;
  cfg.scheduler = std::make_shared<EvenRoundsScheduler>(leader_crash);
  const graph::Graph g = graph::make_ring(4);
  sim::Engine engine(g, cfg);
  engine.add_robot(std::make_unique<ScriptedRobot>(2, std::move(leader)), 0);
  engine.add_robot(std::make_unique<ScriptedRobot>(1, recording), 0);
  out.result = engine.run();
  out.terminated_at.assign(2, sim::kNoRound);
  for (const sim::TraceRound& round :
       sim::decode_trace(recorder.bytes()).rounds) {
    for (const std::uint32_t s : round.terminations) {
      out.terminated_at[s] = round.round;
    }
  }
  return out;
}

ScriptedRobot::Script stay_then_terminate(sim::Round at) {
  return [at](ScriptedRobot&, const sim::RoundView& view) {
    if (view.round >= at) return sim::Action::terminate();
    return sim::Action::stay_until_round(at);
  };
}

ScriptedRobot::Script follow_leader(sim::Round until, sim::Round stop) {
  return [until, stop](ScriptedRobot&, const sim::RoundView& view) {
    if (view.round >= stop) return sim::Action::terminate();
    return sim::Action::follow(2, until);
  };
}

TEST(FollowPromise, ExpiringPromiseIsConsultedAtItsOwnActivation) {
  // The leader sleeps to round 100; the follower promised Follow up to
  // local round 3, its activation at global round 6 (rounds 0, 2, 4 are
  // locals 0, 1, 2) — consulted there, not at every activation and not
  // at the leader's wake.
  const FollowRun run = run_follow_pair(stay_then_terminate(100),
                                        follow_leader(3, 3), sim::kNoRound);
  EXPECT_EQ(run.follower_locals, (std::vector<sim::Round>{0, 3}));
  EXPECT_EQ(run.terminated_at[1], 6u);
  EXPECT_EQ(run.terminated_at[0], 100u);
  const FollowRun naive = run_follow_pair(
      stay_then_terminate(100), follow_leader(3, 3), sim::kNoRound, true);
  EXPECT_EQ(run.result.metrics.trace_hash, naive.result.metrics.trace_hash);
}

TEST(FollowPromise, FollowerWakesWithItsLeaderAndTerminatesWithIt) {
  // The leader wakes at round 8 and terminates; the follower's promise
  // reaches far past that, so it re-decides at its first activation at or
  // after the leader's wake (round 8, local 4) and its Follow resolves to
  // the leader's Terminate.
  const FollowRun run = run_follow_pair(stay_then_terminate(8),
                                        follow_leader(100, 100), sim::kNoRound);
  EXPECT_EQ(run.follower_locals, (std::vector<sim::Round>{0, 4}));
  EXPECT_EQ(run.terminated_at, (std::vector<sim::Round>{8, 8}));
  EXPECT_TRUE(run.result.all_terminated);
  const FollowRun naive = run_follow_pair(
      stay_then_terminate(8), follow_leader(100, 100), sim::kNoRound, true);
  EXPECT_EQ(run.result.metrics.trace_hash, naive.result.metrics.trace_hash);
  EXPECT_EQ(naive.terminated_at, run.terminated_at);
  // Without a promise (until = 0) the follower re-decides at every
  // activation, rounds 0, 2, 4, 6, 8 — the next-activation rule — for the
  // same trace and three more decisions.
  const FollowRun plain = run_follow_pair(stay_then_terminate(8),
                                          follow_leader(0, 100), sim::kNoRound);
  EXPECT_EQ(plain.follower_locals, (std::vector<sim::Round>{0, 1, 2, 3, 4}));
  EXPECT_EQ(plain.terminated_at, run.terminated_at);
  EXPECT_EQ(plain.result.metrics.trace_hash, run.result.metrics.trace_hash);
  EXPECT_EQ(plain.result.metrics.decision_calls, 7u);
  EXPECT_EQ(run.result.metrics.decision_calls, 4u);
}

TEST(FollowPromise, CrashedLeaderFallsBackToEveryActivation) {
  // The leader crashes at round 1 while asleep to round 100. The follower
  // slept with it to round 100 (local 50); from then on its Follow meets
  // a crashed leader and it re-decides at every activation.
  const FollowRun run =
      run_follow_pair(stay_then_terminate(100), follow_leader(100, 53), 1);
  EXPECT_EQ(run.follower_locals,
            (std::vector<sim::Round>{0, 50, 51, 52, 53}));
  EXPECT_EQ(run.terminated_at[1], 106u);
  EXPECT_EQ(run.terminated_at[0], sim::kNoRound);
  const FollowRun naive = run_follow_pair(
      stay_then_terminate(100), follow_leader(100, 53), 1, true);
  EXPECT_EQ(run.result.metrics.trace_hash, naive.result.metrics.trace_hash);
}

TEST(SemiSynchronous, AlwaysActivateIsTraceIdenticalToSynchronous) {
  // The tentpole's translation referee: with activates() ≡ true the
  // local-clock machinery (RoundView::round from activation counts, Stay
  // deadlines translated to nth_activation wakes) must reproduce the
  // synchronous run of the full paper algorithm bit for bit.
  const graph::Graph g = graph::make_torus(3, 4);
  const auto nodes = graph::nodes_undispersed_random(g, 4, 5);
  const auto placement =
      graph::make_placement(nodes, graph::labels_sequential(4));
  const core::RunOutcome sync = run_paper_algorithm(
      g, placement, std::make_shared<sim::SynchronousScheduler>(), 1);
  const core::RunOutcome ssync = run_paper_algorithm(
      g, placement, std::make_shared<AlwaysActivateScheduler>(), 1);
  EXPECT_EQ(sync.result.metrics.trace_hash, ssync.result.metrics.trace_hash);
  EXPECT_EQ(sync.result.metrics.rounds, ssync.result.metrics.rounds);
  EXPECT_EQ(sync.result.metrics.total_moves, ssync.result.metrics.total_moves);
  EXPECT_TRUE(ssync.result.detection_correct);
}

// What a referee compares of one recorded run: the replayed outcome,
// with the violation (message and round) of a run that threw.
sim::ReplayResult record_and_replay(const scenario::ResolvedScenario& resolved,
                                    bool naive) {
  core::RunSpec spec = resolved.run_spec;
  sim::TraceRecorder recorder;
  spec.naive_engine = naive;
  spec.trace_recorder = &recorder;
  try {
    (void)core::run_gathering(*resolved.graph, resolved.placement, spec);
  } catch (const ProtocolViolation&) {
    // run_gathering recorded the violation as the trace's terminal record.
  }
  return sim::replay_trace(sim::decode_trace(recorder.bytes()));
}

TEST(SemiSynchronous, SkipAndNaiveAgreeOnPaperAlgorithmUnderSuppression) {
  // Event-driven skipping under real suppression: the exact activation
  // wakes, the standing-follow carry pass and followers sleeping with
  // their leader on a Follow promise must leave the full Faster-Gathering
  // run identical to naive stepping, which polls activates() and every
  // activated robot every round. Undispersed starts exercise the helper
  // (token) follows, adversarial ones the phase-2 captures.
  scenario::ScenarioSpec spec;
  spec.n = 6;
  spec.k = 3;
  spec.scheduler = "semi-synchronous";
  spec.seed = 3;
  for (const char* family :
       {"ring", "star", "complete", "wheel", "tree", "bipartite", "torus"}) {
    for (const char* placement : {"undispersed", "adversarial"}) {
      for (const char* fairness : {"2", "3", "5"}) {
        spec.family = family;
        spec.placement = placement;
        spec.scheduler_params = {};
        spec.scheduler_params.set("fairness", fairness);
        SCOPED_TRACE(std::string(family) + "/" + placement + "/fairness " +
                     fairness);
        const scenario::ResolvedScenario resolved = scenario::resolve(spec);
        const sim::ReplayResult skip = record_and_replay(resolved, false);
        const sim::ReplayResult naive = record_and_replay(resolved, true);
        EXPECT_EQ(skip.result.metrics.trace_hash,
                  naive.result.metrics.trace_hash);
        EXPECT_EQ(skip.result.metrics.rounds, naive.result.metrics.rounds);
        EXPECT_EQ(skip.final_positions, naive.final_positions);
        EXPECT_EQ(skip.result.all_terminated, naive.result.all_terminated);
        EXPECT_EQ(skip.result.false_announcement,
                  naive.result.false_announcement);
        EXPECT_EQ(skip.violation, naive.violation);
        EXPECT_EQ(skip.violation_round, naive.violation_round);
        EXPECT_EQ(skip.violation_message, naive.violation_message);
        // Skipping may only save consultations, never add rounds.
        EXPECT_LE(skip.result.metrics.simulated_rounds,
                  naive.result.metrics.simulated_rounds);
      }
    }
  }
  // A larger torus run that must also gather correctly in both modes.
  const graph::Graph g = graph::make_torus(3, 4);
  const auto nodes = graph::nodes_undispersed_random(g, 4, 5);
  const auto placement =
      graph::make_placement(nodes, graph::labels_sequential(4));
  for (const sim::Round fairness : {2ull, 3ull, 5ull}) {
    SCOPED_TRACE("torus(3,4)/fairness " + std::to_string(fairness));
    const auto sched =
        std::make_shared<sim::SemiSynchronousScheduler>(17, fairness);
    const core::RunOutcome skip =
        run_paper_algorithm(g, placement, sched, fairness);
    const core::RunOutcome naive =
        run_paper_algorithm(g, placement, sched, fairness, /*naive=*/true);
    EXPECT_EQ(skip.result.metrics.trace_hash, naive.result.metrics.trace_hash);
    EXPECT_EQ(skip.result.metrics.rounds, naive.result.metrics.rounds);
    EXPECT_TRUE(skip.result.gathered_at_end);
    EXPECT_TRUE(skip.result.all_terminated);
    EXPECT_FALSE(skip.result.false_announcement);
  }
}

TEST(SemiSynchronous, PaperAlgorithmsGatherAcrossAllFamilies) {
  // The acceptance sweep: every registered graph family × every paper
  // algorithm gathers under semi-synchronous suppression with zero
  // protocol violations. tolerate_protocol_violations stays OFF — any
  // ProtocolViolation aborts the sweep (and fails the test) instead of
  // being recorded.
  scenario::SweepSpec sweep;
  sweep.base.n = 10;
  sweep.base.k = 3;
  sweep.base.placement = "undispersed";
  sweep.base.scheduler = "semi-synchronous";
  sweep.base.scheduler_params.set("fairness", "3");
  sweep.base.seed = 7;
  for (const std::string& family : scenario::graph_families().list()) {
    if (family == "file") continue;
    sweep.families.push_back(family);
  }
  EXPECT_EQ(sweep.families.size(), 19u);  // 16 materialized + 3 implicit
  sweep.algorithms = scenario::algorithms().list();
  sweep.skip_infeasible = true;  // hypercube realizes n=8 etc.
  const std::vector<scenario::SweepRow> rows =
      scenario::SweepRunner::run(sweep);
  ASSERT_GE(rows.size(), 3 * 15u);
  for (const scenario::SweepRow& row : rows) {
    const std::string name = row.spec.family + "/" + row.spec.algorithm;
    EXPECT_FALSE(row.protocol_violation) << name;
    EXPECT_TRUE(row.outcome.result.gathered_at_end) << name;
    EXPECT_TRUE(row.outcome.result.all_terminated) << name;
    EXPECT_FALSE(row.outcome.result.false_announcement) << name;
    EXPECT_FALSE(row.outcome.result.hit_round_cap) << name;
  }
}

TEST(SemiSynchronous, CapLimitedRunCannotFalselyReportNonTermination) {
  // extend_cap must provably cover worst-case suppression: a derived
  // (schedule-tight) cap, stretched only by the scheduler, must never
  // make an algorithm that gathers under synchrony look non-terminating
  // under SSYNC. Unit part: the bound is cap × fairness + slack.
  sim::SemiSynchronousScheduler sched(5, 4);
  EXPECT_GE(sched.extend_cap(1000), 4000u + 4u);
  // End-to-end part: derived caps only (RunSpec.hard_cap = 0).
  scenario::ScenarioSpec spec;
  spec.family = "ring";
  spec.n = 8;
  spec.k = 3;
  spec.placement = "undispersed";
  spec.scheduler = "semi-synchronous";
  spec.scheduler_params.set("fairness", "4");
  for (const std::uint64_t seed : {1ull, 9ull}) {
    spec.seed = seed;
    const core::RunOutcome out = scenario::run_scenario(spec);
    EXPECT_FALSE(out.result.hit_round_cap) << "seed " << seed;
    EXPECT_TRUE(out.result.all_terminated) << "seed " << seed;
    EXPECT_TRUE(out.result.gathered_at_end) << "seed " << seed;
  }
}

TEST(SemiSynchronous, CountActivationsMatchesPerRoundPredicate) {
  // The engine advances a skipped robot's local clock with one
  // count_activations() call and pushes its wake at nth_activation(); the
  // SSYNC overrides (a popcount per 64-round block, a select inside the
  // last word) must answer exactly what the base-class loops over
  // activates() answer (called non-virtually — the referee). Starts sit
  // on and inside blocks, far beyond any round a run reaches, and in the
  // last representable block.
  constexpr sim::Round kFar = sim::Round{1} << 40;
  constexpr sim::Round kHuge = (sim::Round{1} << 62) + 5;
  for (const sim::Round fairness : {1u, 2u, 3u, 4u, 7u, 64u, 65u, 100u}) {
    for (const std::uint64_t seed : {1ull, 17ull, 0x9e3779b97f4a7c15ull}) {
      const sim::SemiSynchronousScheduler sched(seed, fairness);
      const std::string tag = "fairness " + std::to_string(fairness) +
                              " seed " + std::to_string(seed);
      for (const std::uint32_t slot : {0u, 1u, 5u, 1000u}) {
        const sim::RobotId id = slot + 7;
        for (const sim::Round start :
             {sim::Round{0}, sim::Round{37}, 3 * fairness + 1, kFar,
              kFar + 37, kHuge}) {
          for (const sim::Round len :
               {sim::Round{0}, sim::Round{1}, sim::Round{2}, sim::Round{63},
                sim::Round{64}, sim::Round{65}, sim::Round{130},
                fairness + 1, sim::Round{200}}) {
            EXPECT_EQ(sched.count_activations(slot, id, start, start + len),
                      sched.sim::Scheduler::count_activations(slot, id, start,
                                                              start + len))
                << tag << " slot " << slot << " [" << start << ", +" << len
                << ")";
          }
          // from >= to counts nothing.
          EXPECT_EQ(sched.count_activations(slot, id, start + 5, start), 0u)
              << tag;
          for (const sim::Round n : {1u, 2u, 63u, 64u, 65u, 1000u}) {
            const sim::Round got = sched.nth_activation(slot, id, start, n);
            EXPECT_EQ(got,
                      sched.sim::Scheduler::nth_activation(slot, id, start, n))
                << tag << " slot " << slot << " from " << start << " n " << n;
            EXPECT_GE(got, start + n - 1) << tag;
          }
        }
        // The last representable block: past round kNoRound - 1 there is
        // no n-th activation.
        for (const sim::Round n : {1u, 2u, 63u, 64u, 65u, 1000u}) {
          EXPECT_EQ(sched.nth_activation(slot, id, sim::kNoRound - 100, n),
                    sched.sim::Scheduler::nth_activation(
                        slot, id, sim::kNoRound - 100, n))
              << tag << " slot " << slot << " n " << n;
        }
      }
    }
  }
}

// ---- crash-fault: freezing and detection soundness -----------------------

TEST(CrashFault, CrashedRobotFreezesAndNeverTerminates) {
  // Two walkers on a ring; robot 2 crashes at round 10. It must stop
  // moving there and then, keep occupying its node, and the run must end
  // with it un-terminated (all_terminated false) — not deadlock.
  const graph::Graph g = graph::make_ring(8);
  auto walker = [](ScriptedRobot&, const sim::RoundView& view) {
    if (view.round >= 50) return sim::Action::terminate();
    return sim::Action::move(0);
  };
  sim::EngineConfig cfg;
  cfg.hard_cap = 200;
  cfg.scheduler = std::make_shared<sim::CrashFaultScheduler>(
      std::vector<sim::Round>{sim::kNoRound, 10});
  sim::Engine engine(g, cfg);
  engine.add_robot(std::make_unique<ScriptedRobot>(1, walker), 0);
  engine.add_robot(std::make_unique<ScriptedRobot>(2, walker), 4);
  const sim::RunResult result = engine.run();
  EXPECT_FALSE(result.all_terminated);
  EXPECT_FALSE(result.detection_correct);
  EXPECT_FALSE(result.hit_round_cap);
  // 10 moves in rounds 0..9, frozen afterwards; the survivor ran its
  // full 50-move program.
  EXPECT_EQ(result.metrics.moves_per_robot[1], 10u);
  EXPECT_EQ(result.metrics.moves_per_robot[0], 50u);
}

TEST(CrashFault, AnnouncementAwayFromCrashedRobotIsFlagged) {
  // Robot 1 terminates at its node while robot 2 (crashed at round 0)
  // sits elsewhere: a false announcement the engine must record.
  const graph::Graph g = graph::make_path(4);
  auto announcer = [](ScriptedRobot&, const sim::RoundView& view) {
    if (view.round >= 2) return sim::Action::terminate();
    return sim::Action::stay_one(view.round);
  };
  sim::EngineConfig cfg;
  cfg.hard_cap = 100;
  cfg.scheduler = std::make_shared<sim::CrashFaultScheduler>(
      std::vector<sim::Round>{sim::kNoRound, 0});
  sim::Engine engine(g, cfg);
  engine.add_robot(std::make_unique<ScriptedRobot>(1, announcer), 0);
  engine.add_robot(std::make_unique<ScriptedRobot>(2, announcer), 3);
  const sim::RunResult result = engine.run();
  EXPECT_TRUE(result.false_announcement);
  EXPECT_FALSE(result.detection_correct);
  EXPECT_FALSE(result.all_terminated);
}

TEST(CrashFault, CrashAtReleaseRoundStaysInitAndOccupiesItsNode) {
  // A robot whose crash round equals its release round is crashed before
  // its first activation: it must never be activated (no moves, no local
  // time), keep broadcasting Init from its start node, and still count
  // for the ground-truth gathering predicate — so a survivor terminating
  // elsewhere is a recorded false announcement.
  const graph::Graph g = graph::make_path(4);
  auto walker = [](ScriptedRobot&, const sim::RoundView& view) {
    if (view.round >= 2) return sim::Action::terminate();
    return sim::Action::move(view.round == 0 ? 0 : 1);
  };
  sim::EngineConfig cfg;
  cfg.hard_cap = 100;
  cfg.scheduler = std::make_shared<sim::CrashFaultScheduler>(
      std::vector<sim::Round>{sim::kNoRound, 0});
  sim::Engine engine(g, cfg);
  auto crashed = std::make_unique<ScriptedRobot>(2, walker);
  const ScriptedRobot* crashed_view = crashed.get();
  engine.add_robot(std::make_unique<ScriptedRobot>(1, walker), 0);
  engine.add_robot(std::move(crashed), 3);
  const sim::RunResult result = engine.run();
  EXPECT_EQ(crashed_view->public_state().tag, sim::StateTag::Init);
  EXPECT_EQ(engine.position_of(2), 3u);
  EXPECT_EQ(result.metrics.moves_per_robot[1], 0u);
  EXPECT_FALSE(result.all_terminated);
  EXPECT_TRUE(result.false_announcement);
  EXPECT_FALSE(result.detection_correct);
}

TEST(CrashFault, CrashAtDelayedReleaseRoundNeverActivates) {
  // Same edge with a nonzero release: crash_round == release_round > 0
  // means the dormant robot dies the instant it would have started.
  class ReleaseCrashScheduler final : public sim::Scheduler {
   public:
    [[nodiscard]] std::string_view name() const override {
      return "release-crash";
    }
    [[nodiscard]] sim::Round release_round(std::uint32_t slot,
                                           sim::RobotId) const override {
      return slot == 1 ? 3 : 0;
    }
    [[nodiscard]] sim::Round crash_round(std::uint32_t slot,
                                         sim::RobotId) const override {
      return slot == 1 ? 3 : sim::kNoRound;
    }
  };
  const graph::Graph g = graph::make_path(4);
  auto walker = [](ScriptedRobot&, const sim::RoundView& view) {
    if (view.round >= 6) return sim::Action::terminate();
    return sim::Action::stay_one(view.round);
  };
  for (const bool naive : {false, true}) {
    sim::EngineConfig cfg;
    cfg.hard_cap = 100;
    cfg.naive_stepping = naive;
    cfg.scheduler = std::make_shared<ReleaseCrashScheduler>();
    sim::Engine engine(g, cfg);
    auto crashed = std::make_unique<ScriptedRobot>(2, walker);
    const ScriptedRobot* crashed_view = crashed.get();
    engine.add_robot(std::make_unique<ScriptedRobot>(1, walker), 0);
    engine.add_robot(std::move(crashed), 3);
    const sim::RunResult result = engine.run();
    EXPECT_EQ(crashed_view->public_state().tag, sim::StateTag::Init)
        << "naive=" << naive;
    EXPECT_EQ(result.metrics.moves_per_robot[1], 0u) << "naive=" << naive;
    EXPECT_FALSE(result.all_terminated) << "naive=" << naive;
    EXPECT_TRUE(result.false_announcement) << "naive=" << naive;
  }
}

TEST(CrashFault, EarlyCrashStopsFasterGatheringFromTerminating) {
  // The full algorithm under a round-0 crash: survivors may or may not
  // assemble, but the run must never report complete detection, because
  // the crashed robot cannot announce.
  scenario::ScenarioSpec spec;
  spec.family = "torus";
  spec.n = 12;
  spec.k = 4;
  spec.scheduler = "crash-fault";
  spec.scheduler_params.set("crashes", "1");
  spec.scheduler_params.set("window", "0");
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    spec.seed = seed;
    try {
      const core::RunOutcome out = scenario::run_scenario(spec);
      EXPECT_FALSE(out.result.all_terminated) << "seed " << seed;
      EXPECT_FALSE(out.result.detection_correct) << "seed " << seed;
    } catch (const ContractViolation&) {
      // Acceptable: the protocol's invariants assume fault-free peers.
    }
  }
}

// ---- registry / scenario integration -------------------------------------

TEST(SchedulerRegistry, EverySchedulerResolvesAndRuns) {
  for (const std::string& name : scenario::schedulers().list()) {
    scenario::ScenarioSpec spec;
    spec.family = "ring";
    spec.n = 8;
    spec.k = 3;
    spec.placement = "one-node";
    spec.scheduler = name;
    try {
      const core::RunOutcome out = scenario::run_scenario(spec);
      // Whatever the adversary did, the engine must never claim correct
      // detection while also recording a false announcement.
      EXPECT_FALSE(out.result.detection_correct &&
                   out.result.false_announcement)
          << name;
    } catch (const ContractViolation&) {
      // Adversarial schedules may break protocol invariants; that is a
      // visible failure, not a silent wrong answer.
    }
  }
}

TEST(SchedulerRegistry, DegenerateParameterizationsAreNotAdversarial) {
  // Harnesses key violation tolerance on adversarial(): a scheduler
  // that cannot perturb the run must never swallow a ContractViolation.
  EXPECT_FALSE(sim::SynchronousScheduler().adversarial());
  EXPECT_FALSE(
      sim::AdversarialDelayScheduler(std::vector<sim::Round>{0, 0, 0})
          .adversarial());
  EXPECT_TRUE(
      sim::AdversarialDelayScheduler(std::vector<sim::Round>{0, 4, 0})
          .adversarial());
  EXPECT_FALSE(sim::SemiSynchronousScheduler(7, 1).adversarial());
  EXPECT_TRUE(sim::SemiSynchronousScheduler(7, 2).adversarial());
  EXPECT_FALSE(sim::CrashFaultScheduler(
                   std::vector<sim::Round>{sim::kNoRound, sim::kNoRound})
                   .adversarial());
  EXPECT_TRUE(
      sim::CrashFaultScheduler(std::vector<sim::Round>{sim::kNoRound, 5})
          .adversarial());
  EXPECT_FALSE(sim::CrashFaultScheduler(9, /*crashes=*/0, /*window=*/64,
                                        /*k=*/3)
                   .adversarial());
}

TEST(SchedulerRegistry, UnknownNamesAndParamsAreSuggested) {
  scenario::ScenarioSpec spec;
  spec.family = "ring";
  spec.n = 8;
  spec.k = 2;
  spec.scheduler = "synchronos";
  try {
    (void)scenario::resolve(spec);
    FAIL() << "expected ScenarioError";
  } catch (const scenario::ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find("synchronous"), std::string::npos)
        << e.what();
  }
  spec.scheduler = "crash-fault";
  spec.scheduler_params.set("crashs", "1");
  try {
    (void)scenario::resolve(spec);
    FAIL() << "expected ScenarioError";
  } catch (const scenario::ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find("crashes"), std::string::npos)
        << e.what();
  }
}

// ---- 4. every family × every adversary -----------------------------------

TEST(SchedulerProperty, DetectionStaysSoundAcrossFamiliesAndAdversaries) {
  // The tentpole property: for every registered graph family and every
  // adversary, Faster-Gathering either detects correctly, or fails
  // *visibly* (cap, missing terminations, detection_correct false, or a
  // protocol violation) — it never claims success on a broken run, and
  // under the synchronous adversary it must fully succeed. Small
  // instances, explicit cap, parallel execution.
  struct Adversary {
    const char* name;
    const char* params;  // "key=value,..." or ""
  };
  const Adversary adversaries[] = {
      {"synchronous", ""},
      {"adversarial-delay", "max-delay=6"},
      {"semi-synchronous", "fairness=3"},
      {"crash-fault", "crashes=1,window=6"},
  };
  std::vector<scenario::ScenarioSpec> specs;
  for (const std::string& family : scenario::graph_families().list()) {
    if (family == "file") continue;
    for (const Adversary& adversary : adversaries) {
      scenario::ScenarioSpec spec;
      spec.family = family;
      spec.n = 10;
      spec.k = 3;
      spec.placement = "undispersed";
      spec.scheduler = adversary.name;
      spec.scheduler_params = scenario::Params::parse(adversary.params);
      spec.seed = 7;
      specs.push_back(std::move(spec));
    }
  }
  std::vector<std::string> failures(specs.size());
  support::parallel_for_index(
      specs.size(), support::default_thread_count(), [&](std::size_t i) {
        const scenario::ScenarioSpec& spec = specs[i];
        const std::string name = spec.family + "/" + spec.scheduler;
        try {
          const core::RunOutcome out = scenario::run_scenario(spec);
          const sim::RunResult& result = out.result;
          if (result.detection_correct && result.false_announcement) {
            failures[i] = name + ": detection claimed with false announcement";
          }
          if (spec.scheduler == "synchronous" &&
              (!result.detection_correct || result.false_announcement)) {
            failures[i] = name + ": synchronous run must detect correctly";
          }
          if (spec.scheduler == "semi-synchronous" &&
              (!result.gathered_at_end || !result.all_terminated ||
               result.false_announcement)) {
            // Activation-count clocks make the algorithms SSYNC-tolerant:
            // from an undispersed start the run must gather and
            // terminate, never falsely announce.
            failures[i] = name + ": semi-synchronous run must gather";
          }
          if (spec.scheduler == "crash-fault" && result.all_terminated) {
            failures[i] = name + ": a crashed robot cannot terminate";
          }
        } catch (const ContractViolation&) {
          // Visible failure under an adversary: acceptable for the
          // misaligning/fault adversaries, a bug under synchronous (no
          // adversary) and semi-synchronous (the local clocks exist
          // exactly so suppression cannot break the protocol).
          if (spec.scheduler == "synchronous" ||
              spec.scheduler == "semi-synchronous") {
            failures[i] = name + ": contract violation under " + spec.scheduler;
          }
        }
      });
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(failures[i].empty()) << failures[i];
  }
}

// ---- sweep integration ----------------------------------------------------

TEST(SchedulerSweep, GridsOverAdversariesDeterministically) {
  scenario::SweepSpec sweep;
  sweep.base.family = "ring";
  sweep.base.n = 8;
  sweep.base.k = 3;
  sweep.base.placement = "undispersed";
  sweep.base.seed = 4;
  sweep.schedulers = scenario::schedulers().list();
  sweep.tolerate_protocol_violations = true;
  sweep.threads = 4;
  const std::vector<scenario::SweepRow> rows =
      scenario::SweepRunner::run(sweep);
  ASSERT_EQ(rows.size(), scenario::schedulers().list().size());
  bool saw_synchronous_success = false;
  for (const scenario::SweepRow& row : rows) {
    if (row.spec.scheduler == "synchronous") {
      EXPECT_TRUE(row.outcome.result.detection_correct);
      EXPECT_FALSE(row.protocol_violation);
      saw_synchronous_success = true;
    }
  }
  EXPECT_TRUE(saw_synchronous_success);

  std::ostringstream a, b;
  scenario::SweepRunner::write_csv(a, rows);
  sweep.threads = 1;
  scenario::SweepRunner::write_csv(b, scenario::SweepRunner::run(sweep));
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("scheduler,"), std::string::npos);
  EXPECT_NE(a.str().find("crash-fault"), std::string::npos);
}

}  // namespace
}  // namespace gather
