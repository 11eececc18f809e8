// Seeded fault plans against the arbitration *service* shape.
//
// plan_faults (fault.hpp) schedules against the rcsim shape — arbiters,
// physical channels, memory banks.  The open-loop service has a simpler
// injectable surface: R resources, each with one (possibly replicated)
// round-robin arbiter whose state register is `state_bits` wide, and a
// datapath that either works or is dead.  This planner reuses the
// FaultEvent/FaultKind vocabulary against that shape, with coordinates the
// service engine interprets directly:
//
//   * kFsmBitFlip     — transient SEU.  `arbiter` = resource, `bit` in
//     [0, state_bits): a bit of core::Arbiter's register, copy-major for a
//     replicated arbiter (a flat one has 2 * ports bits per copy).
//   * kArbiterLatchup — permanent.  `arbiter` = resource.  Latch-up
//     wedges a register at a *corrupt* value (a cell stuck mid-flip): a
//     replicated arbiter freezes copy 0 at a corrupted state, so the
//     comparator fires persistently until the region is rewritten (DMR
//     fail-stops, TMR votes through); a plain one freezes its whole
//     register — the resource silently stops granting, the unprotected
//     failure mode nothing ever detects.
//   * kBankFailure    — permanent resource failure.  `bank` = resource;
//     the datapath stops producing valid results, so every completion
//     fails until the supervisor retires the resource.
//
// Transient events are scattered uniformly (seeded) across the window.
// Permanent events are placed deterministically: stratified cycles across
// the window and round-robin resource targets — a campaign that draws the
// same victim twice measures nothing new, and availability curves should
// not depend on a lucky collision.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault.hpp"

namespace rcarb::fault {

struct ServiceFaultPlanOptions {
  std::uint64_t seed = 1;
  /// Cycle bound of the plan: events land in [inject_after, horizon).
  /// Cycle stamps count from cycle 0 of the run (warmup included), so a
  /// bench that wants every fault inside the measured window passes
  /// inject_after = warmup_cycles.
  std::uint64_t horizon = 30'000;
  std::uint64_t inject_after = 0;
  /// Expected events per cycle over the window:
  /// events = round(rate * (horizon - inject_after)).
  double rate = 1e-3;
  /// Kinds to draw from, assigned round-robin over the event count (so a
  /// mixed plan's composition is exact, not sampled).  Only the
  /// service-applicable kinds are accepted: kFsmBitFlip, kArbiterLatchup,
  /// kBankFailure.
  std::vector<FaultKind> kinds = {FaultKind::kFsmBitFlip};
};

/// Builds a deterministic, cycle-sorted schedule against a service of
/// `resources` resources whose arbiters carry `state_bits` register bits
/// each (core::Arbiter::num_state_bits, copies included; >= 1).
/// Identical arguments yield an identical plan.
[[nodiscard]] std::vector<FaultEvent> plan_service_faults(
    int resources, int state_bits, const ServiceFaultPlanOptions& options);

}  // namespace rcarb::fault
