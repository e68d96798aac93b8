// The global round timeline of Faster-Gathering (§2.3) — the stage
// budgets Theorems 12 and 16 charge against.
//
// Every robot computes this schedule from n (and the shared model
// constants) alone; that common knowledge is what keeps the robots'
// step/phase boundaries aligned, exactly as the paper requires ("each
// step can be synchronized easily using the time bound of
// Undispersed-Gathering and i-Hop-Meeting").
//
// Concrete budgets (derivations in the .cpp and DESIGN.md):
//   R1(n) = 4n^3 + 2n^2 + 2n + 8      Phase-1 map-construction budget
//   R(n)  = R1(n) + 2n                 one Undispersed-Gathering run
//   cycle_len(i) = Σ_{j=1..i} 2 base^j with base = n-1 (or Δ, Remark 14)
//   hop_len(i)   = cycle_len(i) · maxbits
//   maxbits      = b · bit_width(n) ≥ bit length of any label in [1, n^b]
//
// Under a semi-synchronous scheduler with announced fairness bound B > 1
// (AlgorithmConfig::fairness; DESIGN.md §3.8), all rounds here are
// robot-LOCAL (activation counts), and the Undispersed-Gathering and UXS
// budgets stretch: each move may be preceded by a B-round dwell
// (stretch = B+1), and the UG collection tour is pushed to local
// R1·stretch·B — the settling buffer guaranteeing every robot's local
// clock passed the phase-2 boundary (local time never outruns global
// time) before any tour move happens. B = 1 reproduces the paper's
// budgets bit for bit.
//
// Each Undispersed stage is followed by one extra *detection round* where
// robots check alone/not-alone (Lemma 11) — an explicit round in this
// implementation to keep stage boundaries crisp.
#pragma once

#include <vector>

#include "core/config.hpp"
#include "sim/types.hpp"
#include "support/math.hpp"

namespace gather::core {

using sim::Round;

enum class StageKind : std::uint8_t {
  Undispersed,         ///< Undispersed-Gathering + detection round
  HopThenUndispersed,  ///< i-Hop-Meeting, then the above
  UxsGathering,        ///< §2.1 catch-all (terminates internally)
};

struct Stage {
  StageKind kind = StageKind::Undispersed;
  unsigned hop = 0;  ///< i for HopThenUndispersed
  Round start = 0;
  Round duration = 0;  ///< exclusive; next stage starts at end()

  /// One past the stage's last round, saturating like the stage starts:
  /// at large n a deep stage's duration saturates, and a raw sum would
  /// wrap below its own start.
  [[nodiscard]] constexpr Round end() const noexcept {
    return support::sat_add(start, duration);
  }
};

class Schedule {
 public:
  [[nodiscard]] static Schedule make(const AlgorithmConfig& config);

  /// R1(n): shared upper bound on Phase-1 map construction (see
  /// token_mapper.cpp for the per-move derivation).
  [[nodiscard]] static Round map_budget(std::size_t n);

  /// Suppression stretch: every move may cost a fairness-round dwell on
  /// top of the move round, so per-move budgets multiply by fairness+1.
  /// 1 for fairness <= 1 (the synchronous model).
  [[nodiscard]] static Round stretch_factor(Round fairness);

  /// Local round (relative to a UG behavior's start) of the phase-2
  /// boundary: R1(n) · stretch.
  [[nodiscard]] static Round ug_phase2(std::size_t n, Round fairness);

  /// Local round at which the finder's collection tour starts:
  /// phase2 · fairness — the settling buffer that guarantees every
  /// waiter/helper has locally entered phase 2 (its capture rules are
  /// live) before any tour move: a robot reaches local time t no earlier
  /// than global round t, and needs at most fairness · t global rounds.
  [[nodiscard]] static Round ug_tour_start(std::size_t n, Round fairness);

  /// Full Undispersed-Gathering budget (the owner's decision round):
  /// fairness · (tour_start + 2n·stretch); R1(n) + 2n at fairness 1.
  [[nodiscard]] static Round ug_total(std::size_t n, Round fairness);

  /// R(n) = ug_total(n, fairness).
  [[nodiscard]] Round undispersed_total() const;

  /// Σ_{j=1..i} 2·base^j — one i-Hop-Meeting cycle (saturating).
  [[nodiscard]] Round cycle_len(unsigned hop) const;

  /// cycle_len(hop) · maxbits — one full i-Hop-Meeting procedure.
  [[nodiscard]] Round hop_len(unsigned hop) const;

  [[nodiscard]] unsigned maxbits() const noexcept { return maxbits_; }
  [[nodiscard]] std::size_t n() const noexcept { return n_; }

  [[nodiscard]] const std::vector<Stage>& stages() const noexcept {
    return stages_;
  }

  /// The UXS stage's exploration period T (== sequence length), and its
  /// phase boundaries: phase p occupies [uxs_start + 2Hp, uxs_start +
  /// 2H(p+1)) with the half-phase H = T · stretch (H = T at fairness 1).
  [[nodiscard]] Round uxs_T() const noexcept { return uxs_T_; }
  [[nodiscard]] Round uxs_half_phase() const;
  [[nodiscard]] Round uxs_start() const;

  /// Every correct run terminates at or before this round (robot-local
  /// time; the engine-global cap is this stretched by the scheduler's
  /// extend_cap).
  [[nodiscard]] Round hard_cap() const noexcept { return hard_cap_; }

 private:
  std::size_t n_ = 0;
  unsigned maxbits_ = 0;
  Round base_ = 0;      ///< n-1, or Δ under Remark 14
  Round fairness_ = 1;  ///< announced scheduler fairness bound
  Round uxs_T_ = 0;
  Round hard_cap_ = 0;
  std::vector<Stage> stages_;
};

}  // namespace gather::core
