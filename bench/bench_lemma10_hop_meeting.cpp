// E-L9/L10 — Lemmas 9 and 10: from a dispersed configuration with two
// robots at hop distance i, Faster-Gathering reaches an undispersed
// configuration via i-Hop-Meeting and finishes within the step-i budget;
// the hop budget grows as O(n^i log n).
//
// Sweep (i, n) on paths (bounded degree keeps the physical walks small
// while the *round* budgets grow as the paper's worst case n^i), report
// measured rounds against the schedule's stage deadline, and fit the
// per-i growth exponent of the hop budget.
#include "bench_common.hpp"

#include "core/schedule.hpp"

namespace gather::bench {
namespace {

void run() {
  using support::TextTable;
  support::print_banner(
      std::cout, "E-L9/L10  i-Hop-Meeting: O(n^i log n) per planted distance i");
  std::cout << "Workload: path graphs, two robots planted at distance i,\n"
               "one far third robot; 'stage bound' is the end of the step\n"
               "that Theorem 12 says must finish the job.\n";

  TextTable table({"n", "dist i", "rounds", "achieved stage", "stage bound",
                   "hop budget T(i)*bits", "detection"});
  auto csv = maybe_csv("lemma10", {"n", "i", "rounds", "stage", "bound",
                                   "hop_budget", "detection"});

  const std::vector<std::size_t> sizes{8, 12, 16, 20, 24};
  struct Job {
    std::size_t n;
    unsigned dist;
  };
  std::vector<Job> jobs;
  for (const std::size_t n : sizes) {
    for (unsigned dist = 1; dist <= 5; ++dist) {
      if (dist < n) jobs.push_back({n, dist});
    }
  }

  std::vector<std::function<Measurement()>> thunks;
  std::vector<core::Schedule> schedules;
  for (const Job& job : jobs) {
    const graph::Graph g = graph::make_path(job.n);
    core::RunSpec spec;
    spec.algorithm = core::AlgorithmKind::FasterGathering;
    spec.config = core::make_config(g, uxs::make_covering_sequence(g, 3));
    schedules.push_back(core::Schedule::make(spec.config));
    thunks.push_back([g = std::move(g), spec = std::move(spec), job] {
      const auto nodes = graph::nodes_pair_at_distance(g, 3, job.dist, 11);
      const auto placement = graph::make_placement(
          nodes, graph::labels_random_distinct(3, g.num_nodes(), 2, 13));
      return measure(g, placement, spec);
    });
  }

  const auto results = measure_all(thunks);

  // Per-distance exponent fits over n.
  std::vector<std::vector<double>> fit_ns(6), fit_budget(6);

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    const auto& m = results[i];
    const core::Schedule& sched = schedules[i];
    const std::size_t stage_idx =
        std::min<std::size_t>(job.dist, sched.stages().size() - 1);
    const sim::Round bound = sched.stages()[stage_idx].end();
    const sim::Round hop_budget = sched.hop_len(job.dist);
    table.add_row(
        {TextTable::num(job.n), TextTable::num(std::uint64_t{job.dist}),
         TextTable::grouped(m.outcome.result.metrics.rounds),
         "hop-" + std::to_string(m.outcome.gathered_stage_hop),
         TextTable::grouped(bound), TextTable::grouped(hop_budget),
         detection_cell(m.outcome)});
    if (csv) {
      csv->add_row({TextTable::num(job.n), TextTable::num(std::uint64_t{job.dist}),
                    TextTable::num(m.outcome.result.metrics.rounds),
                    TextTable::num(static_cast<std::uint64_t>(
                        m.outcome.gathered_stage_hop)),
                    TextTable::num(bound), TextTable::num(hop_budget),
                    detection_cell(m.outcome)});
    }
    fit_ns[job.dist].push_back(static_cast<double>(job.n));
    fit_budget[job.dist].push_back(static_cast<double>(hop_budget));
  }
  table.print(std::cout);

  TextTable fits({"dist i", "hop budget growth", "expected"});
  for (unsigned dist = 1; dist <= 5; ++dist) {
    fits.add_row({TextTable::num(std::uint64_t{dist}),
                  fitted_exponent(fit_ns[dist], fit_budget[dist]),
                  "~n^" + std::to_string(dist) + " * log n"});
  }
  fits.print(std::cout);
  std::cout << "Shape check: each planted distance i is resolved by stage i\n"
               "(achieved stage <= i), and T(i)*bits grows ~ n^i log n.\n";
}

}  // namespace
}  // namespace gather::bench

int main() {
  gather::bench::run();
  return 0;
}
