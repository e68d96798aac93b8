// Pure helpers shared by the end-to-end benchmark binaries: the
// percentile rule, a seeded Zipf sampler, CSV access by column name,
// span self-time reduction, and a minimal JSON object writer. Nothing
// here touches libgather, so tests/helpers_test.cpp pins every rule
// without building a scenario.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Percentile rule
// ---------------------------------------------------------------------------

/// The percentile a tail metric may honestly claim from n samples: the
/// requested one, lowered to the highest percentile that still has at
/// least ten samples beyond it, and never below the median. With
/// n = 1000 a p99 request stays p99 (ten samples beyond); with n = 100
/// it becomes p90; below 20 samples no tail exists and it is p50.
inline double tail_percentile(std::size_t n, double wanted) {
  if (n == 0) return 50.0;
  const double highest = 100.0 * (1.0 - 10.0 / static_cast<double>(n));
  return std::max(50.0, std::min(wanted, highest));
}

/// Nearest-rank percentile of an ascending-sorted sample; p in [0, 100].
template <typename T>
double percentile_sorted(const std::vector<T>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t idx =
      rank <= 1.0 ? 0 : std::min(sorted.size(), static_cast<std::size_t>(rank)) - 1;
  return static_cast<double>(sorted[idx]);
}

template <typename T>
double median(std::vector<T> values) {
  std::sort(values.begin(), values.end());
  if (values.empty()) return 0.0;
  const std::size_t n = values.size();
  if (n % 2 == 1) return static_cast<double>(values[n / 2]);
  return (static_cast<double>(values[n / 2 - 1]) +
          static_cast<double>(values[n / 2])) /
         2.0;
}

/// The tail metric of an ascending-sorted sample under the percentile
/// rule; where the rule leaves no tail it is the median itself.
template <typename T>
double tail_value(const std::vector<T>& sorted, double wanted) {
  const double p = tail_percentile(sorted.size(), wanted);
  return p <= 50.0 ? median(sorted) : percentile_sorted(sorted, p);
}

// ---------------------------------------------------------------------------
// Deterministic randomness
// ---------------------------------------------------------------------------

/// SplitMix64: the stream every seeded choice of the benchmark draws from.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1) from the top 53 bits.
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Stream seed of one client of one workload seed: distinct clients of
/// one seed, and one client across seeds, never share a stream.
inline std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  Rng mix(seed * 0x100000001b3ULL + stream);
  return mix.next();
}

/// Zipf(s) over ranks [0, n): P(rank r) proportional to 1 / (r + 1)^s,
/// sampled by inverse CDF so a stream is a pure function of its seed.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  std::size_t draw(Rng& rng) const {
    const double u = rng.unit();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// A fixed-size uniform sample of a stream (Algorithm R). Request
/// latencies go through one, so the benchmark's own bookkeeping stays
/// constant however many requests a run completes and does not leak
/// into the peak-RSS metric.
template <typename T>
class Reservoir {
 public:
  Reservoir(std::size_t capacity, std::uint64_t seed)
      : capacity_(capacity), rng_(seed) {
    kept_.reserve(capacity);
  }
  void add(T value) {
    ++seen_;
    if (kept_.size() < capacity_) {
      kept_.push_back(value);
    } else if (const std::uint64_t j = rng_.next() % seen_; j < capacity_) {
      kept_[static_cast<std::size_t>(j)] = value;
    }
  }
  const std::vector<T>& kept() const { return kept_; }
  std::uint64_t seen() const { return seen_; }

 private:
  std::size_t capacity_;
  Rng rng_;
  std::vector<T> kept_;
  std::uint64_t seen_ = 0;
};

/// Seeded Fisher-Yates permutation of [0, n): maps Zipf ranks to pool
/// entries, so each workload seed has its own hot set.
inline std::vector<std::size_t> seeded_permutation(std::size_t n,
                                                   std::uint64_t seed) {
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.next() % i);
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

/// FNV-1a over bytes: the benchmark's output-identity fingerprint.
inline std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// ---------------------------------------------------------------------------
// CSV by column name
// ---------------------------------------------------------------------------

/// A parsed sweep CSV. Cells are read by header name, never by position,
/// so a column added anywhere in the schema does not shift a check.
/// The library's CSV has no quoting (params cells use ';'), so a plain
/// comma split is exact for it.
class Csv {
 public:
  static Csv parse(const std::string& text) {
    Csv csv;
    std::istringstream in(text);
    std::string line;
    bool first = true;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      std::vector<std::string> cells = split(line);
      if (first) {
        csv.header_ = std::move(cells);
        for (std::size_t i = 0; i < csv.header_.size(); ++i) {
          csv.index_[csv.header_[i]] = i;
        }
        first = false;
      } else {
        if (cells.size() != csv.header_.size()) {
          throw std::runtime_error("csv row has " +
                                   std::to_string(cells.size()) +
                                   " cells, header has " +
                                   std::to_string(csv.header_.size()));
        }
        csv.rows_.push_back(std::move(cells));
      }
    }
    if (first) throw std::runtime_error("csv has no header");
    return csv;
  }

  std::size_t rows() const { return rows_.size(); }

  const std::string& at(std::size_t row, const std::string& column) const {
    const auto it = index_.find(column);
    if (it == index_.end()) {
      throw std::runtime_error("csv has no column '" + column + "'");
    }
    return rows_.at(row)[it->second];
  }

 private:
  static std::vector<std::string> split(const std::string& line) {
    std::vector<std::string> cells;
    std::string cell;
    for (const char c : line) {
      if (c == ',') {
        cells.push_back(std::move(cell));
        cell.clear();
      } else if (c != '\r') {
        cell += c;
      }
    }
    cells.push_back(std::move(cell));
    return cells;
  }

  std::vector<std::string> header_;
  std::map<std::string, std::size_t> index_;
  std::vector<std::vector<std::string>> rows_;
};

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One traced call. `parent` indexes the enclosing span of the same
/// operation (-1 for the operation's root); `op` groups the spans of one
/// operation (a sweep pass, a sweep row, a request). Names and tags are
/// string literals, so a span costs no allocation while it is recorded.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t op = 0;
  const char* tag = "";  ///< e.g. the scheduler of a run, "miss" on a build
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children overlapping each other count once).
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> covered(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans.at(static_cast<std::size_t>(s.parent));
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) covered[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = covered[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t union_ns = 0;
    std::int64_t cur_lo = 0;
    std::int64_t cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) union_ns += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) union_ns += cur_hi - cur_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - union_ns;
  }
  return self;
}

/// Operations whose self times do not add up to their root's duration —
/// the accounting check on a trace (nonzero means a child escaped its
/// parent's interval or overlapped a sibling).
inline std::size_t unaccounted_ops(const std::vector<Span>& spans,
                                   const std::vector<std::int64_t>& self) {
  std::map<std::uint64_t, std::int64_t> root_ns;
  std::map<std::uint64_t, std::int64_t> self_sum;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent < 0) {
      root_ns[spans[i].op] += spans[i].end_ns - spans[i].start_ns;
    }
    self_sum[spans[i].op] += self[i];
  }
  std::size_t bad = 0;
  for (const auto& [op, ns] : root_ns) {
    if (self_sum[op] != ns) ++bad;
  }
  return bad;
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

/// Flat JSON object writer: numbers keep 17 significant digits, so a
/// timing is reported with all its digits.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0.0);
    return raw(key, buf);
  }
  JsonObject& integer(const std::string& key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonObject& str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) quoted += c;
    }
    quoted += '"';
    return raw(key, quoted);
  }
  JsonObject& raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + value;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

}  // namespace e2e
