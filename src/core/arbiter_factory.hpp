// Arbiter kind selection and the single system-layer arbiter factory.
//
// There are three synthesizable round-robin structures (core/hier.hpp),
// each pre-characterized for area and fmax by the one generator memo
// (core::generate_cached).  This module is the one audited construction
// path the system layers (src/service, src/rcsim) share:
//
//  * ArbiterChoice: what an options struct asks for — an explicit kind or
//    kAuto, which resolves from the port count and an fmax budget by
//    looking each candidate up in generate_cached (select_arbiter_kind).
//  * make_system_arbiter: builds the behavioral arbiter for a resolved
//    kind plus the policy/self-check/hardening switches the simulators
//    need.  Callers drive every kind through core::Arbiter alone: grants,
//    SEU injection, latch-up and the self-check counters are all on its
//    state-register surface.
#pragma once

#include <cstdint>
#include <memory>

#include "core/hier.hpp"
#include "core/policy.hpp"
#include "core/selfcheck.hpp"
#include "timing/delay_model.hpp"

namespace rcarb::core {

/// What an options struct requests: a concrete structure, or kAuto to let
/// select_arbiter_kind pick from the port count and a timing budget.
enum class ArbiterChoice : std::uint8_t {
  kAuto,          // resolve from (n, fmax budget) via generate_cached
  kFlatFsm,       // Fig. 5 chain (RoundRobinArbiter)
  kHierarchical,  // tree-of-arbiters
  kPrefix,        // Kogge-Stone thermometer-mask
};

[[nodiscard]] const char* to_string(ArbiterChoice c);

/// Picks the cheapest structure whose pre-characterized fmax meets
/// `timing_budget_mhz` (> 0 required), consulting generate_cached in area
/// order: flat, then hierarchical, then prefix.  Flat candidates are only
/// considered up to 64 ports — past that the chain's fmax decays ~1/N and
/// synthesizing it just to rule it out would dominate the caller.
/// When nothing meets the budget the fastest structure wins.
[[nodiscard]] ArbiterKind select_arbiter_kind(
    int n, double timing_budget_mhz, int arity = 4,
    const timing::DelayModel& model = timing::xc4000e_speed3());

/// Maps a choice to a concrete kind: explicit choices pass through (the
/// budget is ignored); kAuto runs select_arbiter_kind and therefore
/// requires timing_budget_mhz > 0.
[[nodiscard]] ArbiterKind resolve_arbiter_choice(
    ArbiterChoice choice, int n, double timing_budget_mhz, int arity = 4,
    const timing::DelayModel& model = timing::xc4000e_speed3());

/// Everything a system layer configures about one arbiter instance.  The
/// kind must already be resolved (no kAuto here): resolution happens once
/// at the options boundary, construction is pure.
struct SystemArbiterSpec {
  Policy policy = Policy::kRoundRobin;
  /// Round-robin structure; ignored for non-round-robin policies.
  ArbiterKind kind = ArbiterKind::kFlatFsm;
  int arity = 4;  // tree arity, kHierarchical only
  /// Illegal-state recovery (RoundRobinArbiter); flat-only — the scalable
  /// kinds have no one-hot register to harden, and the self-checking copies
  /// stay unhardened (the replication is the hardening).
  bool harden = false;
  /// Replication of any kind at any width (SelfCheckingArbiter); ignored
  /// for non-round-robin policies.
  CheckMode self_check = CheckMode::kNone;
  std::uint64_t seed = 1;  // kRandom policy only
};

/// A constructed arbiter and the round-robin structure it was built as
/// (kFlatFsm for the other policies).
struct SystemArbiter {
  std::unique_ptr<Arbiter> arbiter;
  ArbiterKind kind = ArbiterKind::kFlatFsm;
};

/// The single construction path for system-layer arbiters (service engine
/// and rcsim, both first-build and post-quarantine regeneration).
[[nodiscard]] SystemArbiter make_system_arbiter(int n,
                                                const SystemArbiterSpec& spec);

}  // namespace rcarb::core
