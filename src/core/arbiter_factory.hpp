// Arbiter kind selection and the single system-layer arbiter factory.
//
// There are three synthesizable round-robin structures, named by one enum,
// core::ArbiterKind (core/hier.hpp), each pre-characterized for area and
// fmax by the one generator memo (core::generate_cached).  Every options
// struct and every plan holds a resolved kind; this module is the one
// audited construction path the system layers (src/service, src/rcsim)
// share:
//
//  * select_arbiter_kind: the cheapest kind whose pre-characterized fmax
//    meets a budget, for a caller that wants one picked before it fills in
//    its options.
//  * make_system_arbiter: builds the behavioral arbiter for a kind plus the
//    policy/self-check/hardening switches the simulators need.  Callers
//    drive every kind through core::Arbiter alone: grants, SEU injection,
//    latch-up and the self-check counters are all on its state-register
//    surface.  Hierarchical trees have arity 4, as the flow prices them.
#pragma once

#include <cstdint>
#include <memory>

#include "core/hier.hpp"
#include "core/policy.hpp"
#include "core/selfcheck.hpp"
#include "timing/delay_model.hpp"

namespace rcarb::core {

/// The old name of ArbiterKind, kept only because perfbench/svc_workload.cpp
/// still spells it; the next benchmark change deletes this line.
using ArbiterChoice = ArbiterKind;

/// Picks the cheapest structure whose pre-characterized fmax meets
/// `timing_budget_mhz` (> 0 required), consulting generate_cached in area
/// order: flat, then hierarchical, then prefix.  Flat candidates are only
/// considered up to 64 ports — past that the chain's fmax decays ~1/N and
/// synthesizing it just to rule it out would dominate the caller.
/// When nothing meets the budget the fastest structure wins.
[[nodiscard]] ArbiterKind select_arbiter_kind(
    int n, double timing_budget_mhz,
    const timing::DelayModel& model = timing::xc4000e_speed3());

/// Everything a system layer configures about one arbiter instance.
struct SystemArbiterSpec {
  Policy policy = Policy::kRoundRobin;
  /// Round-robin structure; ignored for non-round-robin policies.
  ArbiterKind kind = ArbiterKind::kFlatFsm;
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
