// Arbiter kind selection and the single system-layer arbiter factory.
//
// PR 7 left three synthesizable round-robin structures (core/hier.hpp)
// with pre-characterized area/fmax (generate_scalable_cached); the system
// layers (src/service, src/rcsim) each hand-rolled flat-only construction.
// This module is the one audited construction path both layers share:
//
//  * ArbiterChoice: what an options struct asks for — an explicit kind or
//    kAuto, which resolves from the port count and an fmax budget using
//    the pre-characterized cache (select_arbiter_kind).
//  * make_system_arbiter: builds the behavioral arbiter for a resolved
//    kind plus the policy/self-check/hardening switches the simulators
//    need, and hands back typed side pointers so callers keep their fast
//    paths (last_grant_mask, SEU injection) without downcasting at every
//    construction site.
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
  kAuto,          // resolve from (n, fmax budget) via the prechar cache
  kFlatFsm,       // Fig. 5 chain (RoundRobinArbiter)
  kHierarchical,  // tree-of-arbiters
  kPrefix,        // Kogge-Stone thermometer-mask
};

[[nodiscard]] const char* to_string(ArbiterChoice c);

/// Picks the cheapest structure whose pre-characterized fmax meets
/// `timing_budget_mhz` (> 0 required), consulting generate_scalable_cached
/// in area order: flat, then hierarchical, then prefix.  Flat candidates
/// are only considered up to 64 ports — past that the chain's fmax decays
/// ~1/N and synthesizing it just to rule it out would dominate the caller.
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
  /// Preemption/hardening; flat-only — the scalable kinds have no one-hot
  /// register to harden and no hold counter, so these are ignored there.
  RoundRobinOptions rr;
  /// Replication; flat-only (the self-checking netlists duplicate the
  /// Fig. 5 core) and capped at 64 ports (the behavioral model compares
  /// per-copy F/C state words).  Combining it with a non-flat kind or a
  /// wider resource CHECK-fails.
  CheckMode self_check = CheckMode::kNone;
  std::uint64_t seed = 1;  // kRandom policy only
};

/// A constructed arbiter plus typed views into it.  Exactly one of the
/// side pointers is set when the matching subclass was built; all alias
/// `arbiter` and share its lifetime.
struct SystemArbiter {
  std::unique_ptr<Arbiter> arbiter;
  ArbiterKind kind = ArbiterKind::kFlatFsm;
  RoundRobinArbiter* rr = nullptr;
  SelfCheckingArbiter* sc = nullptr;
  HierarchicalArbiter* hier = nullptr;
  PrefixArbiter* prefix = nullptr;
};

/// The single construction path for system-layer arbiters (service engine
/// and rcsim, both first-build and post-quarantine regeneration).
[[nodiscard]] SystemArbiter make_system_arbiter(int n,
                                                const SystemArbiterSpec& spec);

}  // namespace rcarb::core
