// Unit tests of the benchmark's pure helpers (src/helpers.hpp). Plain
// checks, no framework: the benchmark package builds without GTest.
// Run: ctest --test-dir <build>   (or the e2e_helpers_test binary).
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "helpers.hpp"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: CHECK(%s) failed\n", __FILE__,    \
                   __LINE__, #cond);                                 \
      ++g_failures;                                                  \
    }                                                                \
  } while (0)

void test_percentile_rule() {
  // p99 needs ten samples beyond it: 1000 samples keep it, fewer lower it.
  CHECK(e2e::tail_percentile(1000, 99.0) == 99.0);
  CHECK(e2e::tail_percentile(100000, 99.0) == 99.0);
  CHECK(std::fabs(e2e::tail_percentile(100, 99.0) - 90.0) < 1e-9);
  CHECK(std::fabs(e2e::tail_percentile(500, 99.0) - 98.0) < 1e-9);
  // No tail below 20 samples: the rule falls back to the median.
  CHECK(e2e::tail_percentile(20, 99.0) == 50.0);
  CHECK(e2e::tail_percentile(5, 99.0) == 50.0);
  CHECK(e2e::tail_percentile(0, 99.0) == 50.0);

  // Nearest rank: with 1000 samples 1..1000, p99 is 990 — exactly ten
  // samples (991..1000) lie beyond it.
  std::vector<int> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(i);
  CHECK(e2e::percentile_sorted(samples, 99.0) == 990.0);
  CHECK(e2e::percentile_sorted(samples, 50.0) == 500.0);
  CHECK(e2e::percentile_sorted(samples, 0.0) == 1.0);
  CHECK(e2e::percentile_sorted(samples, 100.0) == 1000.0);
  CHECK(e2e::median(std::vector<double>{3.0, 1.0, 2.0}) == 2.0);
  CHECK(e2e::median(std::vector<double>{4.0, 1.0, 2.0, 3.0}) == 2.5);
  CHECK(e2e::tail_value(samples, 99.0) == 990.0);
  // Four passes have no tail: the tail metric is their median, never a
  // value below it.
  CHECK(e2e::tail_value(std::vector<double>{1.0, 2.0, 3.0, 4.0}, 99.0) == 2.5);
}

void test_zipf_determinism() {
  const e2e::Zipf zipf(6144, 1.0);
  const auto draws = [&](std::uint64_t seed, std::uint64_t client) {
    e2e::Rng rng(e2e::stream_seed(seed, client));
    std::vector<std::size_t> out;
    for (int i = 0; i < 2000; ++i) out.push_back(zipf.draw(rng));
    return out;
  };
  // Same seed and client: the same stream, draw for draw.
  CHECK(draws(1, 1) == draws(1, 1));
  CHECK(draws(7, 3) == draws(7, 3));
  // Another seed or another client: another stream.
  CHECK(draws(1, 1) != draws(2, 1));
  CHECK(draws(1, 1) != draws(1, 2));
  // Every draw is a rank in range, and rank 0 is the most frequent (its
  // probability is 1/H(6144) ~ 0.11).
  std::vector<std::size_t> freq(6144, 0);
  for (const std::size_t r : draws(3, 1)) {
    CHECK(r < 6144);
    if (r < 6144) ++freq[r];
  }
  CHECK(freq[0] > freq[1] && freq[1] > freq[100]);
  CHECK(freq[0] > 150 && freq[0] < 300);
  // The rank -> spec map is a seeded permutation.
  const auto perm = e2e::seeded_permutation(6144, 11);
  CHECK(perm == e2e::seeded_permutation(6144, 11));
  CHECK(perm != e2e::seeded_permutation(6144, 12));
  CHECK(std::set<std::size_t>(perm.begin(), perm.end()).size() == 6144);
}

void test_reservoir() {
  // A stream longer than the reservoir keeps exactly `capacity` values,
  // counts everything it saw, and is a pure function of its seed.
  const auto fill = [](std::uint64_t seed) {
    e2e::Reservoir<int> r(1000, seed);
    for (int i = 0; i < 100000; ++i) r.add(i);
    return r;
  };
  const e2e::Reservoir<int> a = fill(5);
  CHECK(a.kept().size() == 1000);
  CHECK(a.seen() == 100000);
  CHECK(a.kept() == fill(5).kept());
  CHECK(a.kept() != fill(6).kept());
  // Uniform over the whole stream: the sample median is near 50000.
  const double m = e2e::median(a.kept());
  CHECK(m > 45000.0 && m < 55000.0);
  // A stream shorter than the reservoir is kept whole, in order.
  e2e::Reservoir<int> small(10, 1);
  for (int i = 0; i < 4; ++i) small.add(i);
  CHECK(small.kept() == (std::vector<int>{0, 1, 2, 3}));
}

void test_self_time() {
  // op 0: root [0,100) with children [10,30) and [40,90); the second
  // child has a grandchild [50,60) — self times 30, 20, 40, 10.
  std::vector<e2e::Span> spans = {
      {"root", 0, 100, -1, 0, ""},
      {"a", 10, 30, 0, 0, ""},
      {"b", 40, 90, 0, 0, ""},
      {"c", 50, 60, 2, 0, ""},
  };
  // op 1: a root whose two children overlap (parallel work): the covered
  // part counts once, so the root's self time is 100 - 70 = 30.
  spans.push_back({"root", 200, 300, -1, 1, ""});
  spans.push_back({"x", 210, 260, 4, 1, ""});
  spans.push_back({"y", 240, 280, 4, 1, ""});
  const std::vector<std::int64_t> self = e2e::self_times(spans);
  CHECK(self[0] == 30);
  CHECK(self[1] == 20);
  CHECK(self[2] == 40);
  CHECK(self[3] == 10);
  CHECK(self[4] == 30);
  CHECK(self[5] == 50);
  CHECK(self[6] == 40);
  // Nested, non-overlapping op 0 accounts exactly; op 1's overlapping
  // children sum past the root's wall time and are flagged.
  CHECK(e2e::unaccounted_ops(spans, self) == 1);
  spans.resize(4);
  CHECK(e2e::unaccounted_ops(spans, e2e::self_times(spans)) == 0);
}

void test_csv_by_name() {
  const std::string today =
      "family,scheduler,gathered,detection,violation\n"
      "ring,synchronous,1,1,0\n"
      "grid,semi-synchronous,0,0,1\n";
  const e2e::Csv a = e2e::Csv::parse(today);
  CHECK(a.rows() == 2);
  CHECK(a.at(0, "family") == "ring");
  CHECK(a.at(1, "violation") == "1");
  // A schema bump that inserts a column ahead of the checked ones (the
  // planned `verdict` column) moves positions, not names.
  const std::string bumped =
      "family,verdict,scheduler,gathered,detection,violation\n"
      "ring,ok,synchronous,1,1,0\n"
      "grid,violation@7,semi-synchronous,0,0,1\n";
  const e2e::Csv b = e2e::Csv::parse(bumped);
  CHECK(b.at(0, "scheduler") == "synchronous");
  CHECK(b.at(1, "violation") == "1");
  CHECK(b.at(1, "verdict") == "violation@7");
  // A missing column or a ragged row is an error, never a silent default.
  bool threw = false;
  try {
    (void)a.at(0, "verdict");
  } catch (const std::exception&) {
    threw = true;
  }
  CHECK(threw);
  threw = false;
  try {
    (void)e2e::Csv::parse("a,b\n1\n");
  } catch (const std::exception&) {
    threw = true;
  }
  CHECK(threw);
}

}  // namespace

int main() {
  test_percentile_rule();
  test_zipf_determinism();
  test_reservoir();
  test_self_time();
  test_csv_by_name();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("e2e_helpers_test: all checks passed\n");
  return 0;
}
