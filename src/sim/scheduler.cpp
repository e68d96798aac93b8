#include "sim/scheduler.hpp"

#include <algorithm>
#include <array>

#include "support/assert.hpp"
#include "support/math.hpp"
#include "support/rng.hpp"

namespace gather::sim {

namespace {

/// One deterministic 64-bit draw per (seed, a, b) — the adversaries'
/// choices must be pure functions so skip/naive execution and reruns
/// agree (see the Scheduler purity contract).
std::uint64_t draw(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  return support::SplitMix64(
             support::hash_combine(support::hash_combine(seed, a), b))
      .next();
}

}  // namespace

Round Scheduler::release_round(std::uint32_t, RobotId) const { return 0; }

Round Scheduler::crash_round(std::uint32_t, RobotId) const { return kNoRound; }

bool Scheduler::activates(Round, std::uint32_t, RobotId) const { return true; }

void Scheduler::count_activations(std::span<const std::uint32_t> slots,
                                  std::span<const RobotId> ids,
                                  std::span<const Round> from, Round to,
                                  std::span<Round> counts) const {
  for (std::size_t i = 0; i < slots.size(); ++i) {
    for (Round g = from[i]; g < to; ++g) {
      if (activates(g, slots[i], ids[i])) ++counts[i];
    }
  }
}

Round Scheduler::fairness_bound() const { return 0; }

Round Scheduler::extend_cap(Round cap) const { return cap; }

bool Scheduler::adversarial() const { return true; }

// ---- adversarial-delay ----------------------------------------------------

AdversarialDelayScheduler::AdversarialDelayScheduler(std::uint64_t seed,
                                                     Round max_delay,
                                                     std::size_t k) {
  // kNoRound-adjacent bounds would wrap `max_delay + 1` to zero; no
  // meaningful schedule has delays near 2^64 anyway.
  max_delay_ = std::min(max_delay, kNoRound - 1);
  delays_.reserve(k);
  for (std::size_t slot = 0; slot < k; ++slot) {
    delays_.push_back(
        max_delay_ == 0 ? 0 : draw(seed, 0x7d, slot) % (max_delay_ + 1));
  }
}

AdversarialDelayScheduler::AdversarialDelayScheduler(std::vector<Round> delays)
    : delays_(std::move(delays)) {
  for (const Round d : delays_) max_delay_ = std::max(max_delay_, d);
}

Round AdversarialDelayScheduler::release_round(std::uint32_t slot,
                                               RobotId) const {
  return slot < delays_.size() ? delays_[slot] : 0;
}

Round AdversarialDelayScheduler::extend_cap(Round cap) const {
  // The whole schedule shifts by at most the largest delay; +8 matches
  // the slack the legacy delayed-start harnesses used.
  return support::sat_add(cap, support::sat_add(max_delay_, 8));
}

// ---- semi-synchronous -----------------------------------------------------

SemiSynchronousScheduler::SemiSynchronousScheduler(std::uint64_t seed,
                                                   Round fairness)
    : seed_(seed), fairness_(fairness) {
  GATHER_EXPECTS(fairness >= 1);
}

bool SemiSynchronousScheduler::activates(Round r, std::uint32_t slot,
                                         RobotId) const {
  // Guaranteed phase round every `fairness_` rounds (the fairness bound),
  // pseudorandom coin otherwise. Pure in (r, slot) by construction. The
  // coin lives in its own tag domain — with a bare `draw(seed_, r, slot)`
  // the round r == 0x5c coin would collide with the phase draw and
  // correlate suppression with the phase assignment.
  const Round phase = draw(seed_, 0x5c, slot) % fairness_;
  if (r % fairness_ == phase) return true;
  return (draw(seed_, support::hash_combine(0xa1, r), slot) & 1) != 0;
}

void SemiSynchronousScheduler::count_activations(
    std::span<const std::uint32_t> slots, std::span<const RobotId>,
    std::span<const Round> from, Round to, std::span<Round> counts) const {
  // activates() summed over each slot's [from[i], to). The coin
  // draw(seed_, hash_combine(0xa1, g), slot) is
  // SplitMix64(hash_combine(prefix(g), slot)) with a slot-independent
  // prefix(g) = hash_combine(seed_, hash_combine(0xa1, g)), so each block
  // of rounds hashes its prefixes (and their residues g % fairness_) once
  // for the whole batch, then runs one coin loop per slot over the
  // block's rounds at or after that slot's from. Phases are drawn once
  // per call, for up to kClockGroup slots at a time; a larger batch is
  // counted group by group, re-hashing the prefixes per group.
  constexpr std::size_t kClockBlock = 64;
  constexpr std::size_t kClockGroup = 64;
  // Left uninitialized: each entry is written before it is read, and a
  // zero fill would cost more than a short catch-up's whole count.
  std::array<Round, kClockGroup> phase;
  std::array<std::uint64_t, kClockBlock> prefix;
  std::array<Round, kClockBlock> residue_at;
  for (std::size_t g0 = 0; g0 < slots.size(); g0 += kClockGroup) {
    const std::size_t group = std::min(kClockGroup, slots.size() - g0);
    Round lo = to;
    for (std::size_t i = 0; i < group; ++i) {
      phase[i] = draw(seed_, 0x5c, slots[g0 + i]) % fairness_;
      lo = std::min(lo, from[g0 + i]);
    }
    if (lo >= to) continue;
    // One residue for the whole group, advanced round by round instead of
    // a per-round `g % fairness_`.
    Round residue = lo % fairness_;
    // The local-clock catch-up runs over every skipped round of every
    // suppressed robot; gather_lint keeps it allocation-free.
    // gather-lint: hot-path-begin(ssync-clock)
    for (Round begin = lo; begin < to;) {
      const std::size_t len = static_cast<std::size_t>(
          std::min<Round>(kClockBlock, to - begin));
      for (std::size_t j = 0; j < len; ++j) {
        prefix[j] = support::hash_combine(
            seed_, support::hash_combine(0xa1, begin + j));
        residue_at[j] = residue;
        if (++residue == fairness_) residue = 0;
      }
      for (std::size_t i = 0; i < group; ++i) {
        const Round start = from[g0 + i];
        if (start >= begin + len) continue;
        const std::uint64_t slot = slots[g0 + i];
        const Round slot_phase = phase[i];
        Round count = 0;
        // The coin is added, not branched on: a branch on a fair coin
        // mispredicts every other round and serializes the hash chains.
        // The phase test is periodic, so its branch predicts, and it
        // saves the coin on every phase round.
        for (std::size_t j = start > begin ? start - begin : 0; j < len; ++j) {
          if (residue_at[j] == slot_phase) {
            ++count;
          } else {
            count += support::SplitMix64(
                         support::hash_combine(prefix[j], slot))
                         .next() &
                     1;
          }
        }
        counts[g0 + i] += count;
      }
      begin += len;
    }
    // gather-lint: hot-path-end(ssync-clock)
  }
}

Round SemiSynchronousScheduler::extend_cap(Round cap) const {
  // Caps are robot-local budgets (activation counts). The fairness bound
  // guarantees at least one activation per window of fairness_ rounds,
  // so reaching local time `cap` needs at most cap × fairness_ global
  // rounds, plus one window of slack for the first activation of the
  // window-aligned worst case. Anything less can falsely report
  // non-termination for an algorithm that gathers under synchrony
  // (pinned by tests/scheduler_test.cpp).
  return support::sat_add(support::sat_mul(cap, fairness_),
                          support::sat_add(fairness_, 8));
}

// ---- crash-fault ----------------------------------------------------------

CrashFaultScheduler::CrashFaultScheduler(std::uint64_t seed,
                                         std::size_t crashes, Round window,
                                         std::size_t k)
    : crash_at_(k, kNoRound) {
  GATHER_EXPECTS(crashes <= k);
  // The `crashes` victims are the slots with the smallest per-slot draws
  // (an order statistic, so exactly `crashes` robots crash); each victim's
  // crash round is a second independent draw from [0, window].
  std::vector<std::uint32_t> slots(k);
  for (std::uint32_t s = 0; s < k; ++s) slots[s] = s;
  std::sort(slots.begin(), slots.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const std::uint64_t da = draw(seed, 0xcf, a);
              const std::uint64_t db = draw(seed, 0xcf, b);
              return da != db ? da < db : a < b;
            });
  window = std::min(window, kNoRound - 1);  // avoid wrapping `window + 1`
  for (std::size_t i = 0; i < crashes; ++i) {
    crash_at_[slots[i]] = draw(seed, 0xc4, slots[i]) % (window + 1);
  }
}

CrashFaultScheduler::CrashFaultScheduler(std::vector<Round> crash_rounds)
    : crash_at_(std::move(crash_rounds)) {}

Round CrashFaultScheduler::crash_round(std::uint32_t slot, RobotId) const {
  return slot < crash_at_.size() ? crash_at_[slot] : kNoRound;
}

bool CrashFaultScheduler::adversarial() const {
  return std::any_of(crash_at_.begin(), crash_at_.end(),
                     [](Round c) { return c != kNoRound; });
}

}  // namespace gather::sim
