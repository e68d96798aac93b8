// Contract-checking macros in the spirit of the C++ Core Guidelines'
// Expects/Ensures (I.6/I.8). Violations throw so tests can assert on
// them; they are never compiled out, because the simulator's correctness
// claims (detection soundness, budget adherence) are part of the library
// contract, not debug-only diagnostics.
//
// The exception taxonomy is deliberate — harnesses key tolerance on it:
//
//  * `ContractViolation` — a precondition/postcondition/invariant failed
//    (the GATHER_EXPECTS/ENSURES/INVARIANT macros). Caller or library
//    bug; never a recordable experiment outcome.
//  * `ProtocolViolation : ContractViolation` — a *robot program* broke
//    its protocol contract (GATHER_PROTOCOL, or thrown explicitly from
//    algorithm code). This is the one category an adversarial scheduler
//    can legitimately induce (misaligned starts shear the token
//    protocol, etc.), so sweep runners may record it per row instead of
//    aborting — see `scenario::SweepSpec::tolerate_protocol_violations`.
//  * `EngineInvariantError` — the simulation engine's own state is
//    inconsistent (follow cycles, a follow target missing from the
//    views the engine itself built). Deliberately NOT a
//    ContractViolation: no catch site that tolerates protocol breakage
//    may ever swallow it, so an engine bug on an adversarial sweep row
//    aborts the sweep instead of shipping as an innocuous violation=1.
#pragma once

#include <stdexcept>
#include <string>

namespace gather {

/// Thrown when a precondition, postcondition, or invariant is violated.
class ContractViolation : public std::logic_error {
 public:
  explicit ContractViolation(const std::string& what) : std::logic_error(what) {}
};

/// A robot/algorithm protocol contract breach — the adversary-inducible
/// (and therefore per-row recordable) subset of contract violations.
class ProtocolViolation : public ContractViolation {
 public:
  explicit ProtocolViolation(const std::string& what)
      : ContractViolation(what) {}
};

/// Engine-internal invariant failure. Not a ContractViolation on
/// purpose: tolerance machinery must never record it as an outcome.
class EngineInvariantError : public std::logic_error {
 public:
  explicit EngineInvariantError(const std::string& what)
      : std::logic_error(what) {}
};

/// Thrown when a simulation exceeds its configured hard round cap or
/// otherwise cannot make progress.
class SimError : public std::runtime_error {
 public:
  explicit SimError(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
/// The part of a __FILE__ path a violation message names: from its last
/// "src/" directory on (repo-relative for library sources), else its base
/// name. Messages end up in traces and sweep outputs, so they must not
/// depend on where the tree was checked out and built.
[[nodiscard]] inline const char* source_name(const char* file) {
  const char* base = file;
  const char* src = nullptr;
  for (const char* p = file; *p != '\0'; ++p) {
    if (p != file && p[-1] != '/' && p[-1] != '\\') continue;
    base = p;  // p starts a path component
    if (p[0] == 's' && p[1] == 'r' && p[2] == 'c' &&
        (p[3] == '/' || p[3] == '\\')) {
      src = p;
    }
  }
  return src != nullptr ? src : base;
}

[[noreturn]] inline void contract_fail(const char* kind, const char* expr,
                                       const char* file, int line) {
  throw ContractViolation(std::string(kind) + " failed: " + expr + " at " +
                          source_name(file) + ":" + std::to_string(line));
}
[[noreturn]] inline void protocol_fail(const char* expr, const char* file,
                                       int line) {
  throw ProtocolViolation(std::string("protocol invariant failed: ") + expr +
                          " at " + source_name(file) + ":" +
                          std::to_string(line));
}
}  // namespace detail

}  // namespace gather

#define GATHER_EXPECTS(cond)                                                  \
  do {                                                                        \
    if (!(cond))                                                              \
      ::gather::detail::contract_fail("precondition", #cond, __FILE__,       \
                                      __LINE__);                              \
  } while (false)

#define GATHER_ENSURES(cond)                                                  \
  do {                                                                        \
    if (!(cond))                                                              \
      ::gather::detail::contract_fail("postcondition", #cond, __FILE__,      \
                                      __LINE__);                              \
  } while (false)

#define GATHER_INVARIANT(cond)                                                \
  do {                                                                        \
    if (!(cond))                                                              \
      ::gather::detail::contract_fail("invariant", #cond, __FILE__,          \
                                      __LINE__);                              \
  } while (false)

// Robot-side protocol invariant: use in algorithm/behavior code for
// conditions an adversarial schedule can legitimately push the robots
// out of. Throws ProtocolViolation, which tolerant harnesses record per
// row; everything the macro family above throws aborts instead.
#define GATHER_PROTOCOL(cond)                                                 \
  do {                                                                        \
    if (!(cond))                                                              \
      ::gather::detail::protocol_fail(#cond, __FILE__, __LINE__);             \
  } while (false)
