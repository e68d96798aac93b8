// E-T12 — Theorem 12: the per-distance trade-off table of
// Faster-Gathering on dispersed configurations:
//   distance 0 (undispersed)        -> O(n^3)        (stage 0)
//   distance 1..2                   -> O(n^3)        (stages 1-2)
//   distance 3..5                   -> O(n^i log n)  (stages 3-5)
//   distance > 5                    -> Õ(n^5)        (UXS stage)
// One row per (family, planted distance), reporting the stage that
// actually resolved the run and the schedule bound for that stage.
#include "bench_common.hpp"

#include "core/schedule.hpp"

namespace gather::bench {
namespace {

std::string bound_name(int distance) {
  if (distance <= 2) return "O(n^3)";
  if (distance <= 5) return "O(n^" + std::to_string(distance) + " log n)";
  return "O~(n^5)";
}

void run() {
  using support::TextTable;
  support::print_banner(
      std::cout, "E-T12  Theorem 12: trade-off by initial pair distance");
  std::cout << "Workload: 3 robots, closest pair planted at distance d\n"
               "(d = 0 means two robots share a node); families sized so\n"
               "every distance exists.\n";

  struct FamilySpec {
    std::string name;
    graph::Graph graph;
  };
  const std::vector<FamilySpec> families{
      {"path16", graph::make_path(16)},
      {"ring16", graph::make_ring(16)},
      {"grid4x4", graph::make_grid(4, 4)},
      {"rtree16", graph::make_random_tree(16, 21)},
  };

  TextTable table({"family", "planted d", "paper bound", "achieved stage",
                   "rounds", "stage bound", "detection"});
  auto csv = maybe_csv("theorem12", {"family", "d", "stage", "rounds",
                                     "bound", "detection"});

  struct Job {
    const FamilySpec* family;
    int distance;
  };
  std::vector<Job> jobs;
  for (const FamilySpec& family : families) {
    const auto diam = graph::diameter(family.graph);
    for (int d = 0; d <= 6; ++d) {
      if (d > 0 && static_cast<std::uint32_t>(d) > diam) continue;
      if (d == 6 && diam < 6) continue;
      jobs.push_back({&family, d});
    }
  }

  std::vector<std::function<Measurement()>> thunks;
  std::vector<core::Schedule> schedules;
  for (const Job& job : jobs) {
    const graph::Graph& g = job.family->graph;
    core::RunSpec spec;
    spec.algorithm = core::AlgorithmKind::FasterGathering;
    spec.config = core::make_config(g, uxs::make_covering_sequence(g, 7));
    schedules.push_back(core::Schedule::make(spec.config));
    thunks.push_back([&g, spec = std::move(spec), job] {
      std::vector<graph::NodeId> nodes;
      if (job.distance == 0) {
        nodes = graph::nodes_undispersed_random(g, 3, 19);
      } else if (job.distance == 6) {
        // Force the catch-all: only pairs at distance > 5.
        nodes = graph::nodes_pair_at_distance(
            g, 2, graph::diameter(g), 19);
      } else {
        nodes = graph::nodes_pair_at_distance(
            g, 3, static_cast<std::uint32_t>(job.distance), 19);
      }
      const auto placement = graph::make_placement(
          nodes, graph::labels_random_distinct(nodes.size(), g.num_nodes(), 2,
                                               23));
      return measure(g, placement, spec);
    });
  }

  const auto results = measure_all(thunks);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    const auto& m = results[i];
    const core::Schedule& sched = schedules[i];
    const std::size_t stage_idx = std::min<std::size_t>(
        job.distance < 0 ? 0 : static_cast<std::size_t>(job.distance),
        sched.stages().size() - 1);
    const sim::Round bound = sched.stages()[stage_idx].end();
    table.add_row({job.family->name, TextTable::num(std::uint64_t(job.distance)),
                   bound_name(job.distance),
                   "hop-" + std::to_string(m.outcome.gathered_stage_hop),
                   TextTable::grouped(m.outcome.result.metrics.rounds),
                   TextTable::grouped(bound), detection_cell(m.outcome)});
    if (csv) {
      csv->add_row({job.family->name, TextTable::num(std::uint64_t(job.distance)),
                    TextTable::num(static_cast<std::uint64_t>(
                        m.outcome.gathered_stage_hop)),
                    TextTable::num(m.outcome.result.metrics.rounds),
                    TextTable::num(bound), detection_cell(m.outcome)});
    }
  }
  table.print(std::cout);
  std::cout << "Shape check: the achieved stage never exceeds the planted\n"
               "distance (distance-6 rows land in the UXS stage, hop-6),\n"
               "and measured rounds respect the matching stage bound.\n";
}

}  // namespace
}  // namespace gather::bench

int main() {
  gather::bench::run();
  return 0;
}
