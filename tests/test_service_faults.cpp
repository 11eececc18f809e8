// Fault-tolerant service engine: live injection, self-checking service
// arbiters, supervisor-driven quarantine/failover, and the request
// conservation invariant under every fault mix.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/arbiter_factory.hpp"
#include "fault/service_faults.hpp"
#include "service/service.hpp"
#include "support/check.hpp"

namespace rcarb::service {
namespace {

using fault::FaultEvent;
using fault::FaultKind;
using fault::ServiceFaultPlanOptions;

/// Small, fast configuration matching test_service's fixture: 2 resources
/// x 4 ports, 4-cycle service, saturation ~0.5 requests/cycle.
ServiceOptions ft_options() {
  ServiceOptions o;
  o.resources = 2;
  o.ports = 4;
  o.service_cycles = 4;
  o.queue_capacity = 8;
  o.policy = OverloadPolicy::kTailDrop;
  o.block_backlog_factor = 16;
  o.admit_queue_threshold = 4;
  o.retry.timeout = 128;
  o.arrivals.rate = 0.3;  // ~60% of capacity
  o.warmup_cycles = 1'000;
  o.measure_cycles = 6'000;
  o.seed = 99;
  return o;
}

/// The invariant the engine promises under every fault mix: corrupted /
/// failed / requeued work is non-terminal, so nothing is lost or
/// double-counted.
void expect_conserved(const ServiceStats& s, const std::string& what) {
  EXPECT_EQ(s.in_flight_at_start + s.offered,
            s.completed + s.timed_out + s.budget_exhausted + s.in_flight_at_end)
      << what << ": " << s.summarize_faults();
}

std::vector<FaultEvent> one_event(FaultKind kind, std::uint64_t cycle,
                                  int resource) {
  FaultEvent e;
  e.cycle = cycle;
  e.kind = kind;
  if (kind == FaultKind::kBankFailure) {
    e.bank = resource;
  } else {
    e.arbiter = resource;
  }
  return {e};
}

std::vector<FaultEvent> seu_storm(const ServiceOptions& o, int copies,
                                  double rate) {
  ServiceFaultPlanOptions po;
  po.seed = 7;
  po.inject_after = o.warmup_cycles;
  po.horizon = o.warmup_cycles + o.measure_cycles;
  po.rate = rate;
  po.kinds = {FaultKind::kFsmBitFlip};
  return fault::plan_service_faults(o.resources, copies * 2 * o.ports, po);
}

std::size_t count_diag(const ServiceStats& s, obs::DiagKind k) {
  std::size_t n = 0;
  for (const auto& d : s.diagnostics) n += (d.kind == k) ? 1u : 0u;
  return n;
}

// ------------------------------------------------- fault-free replication

TEST(ServiceFaults, FaultFreeReplicationIsByteCompatible) {
  // Synchronized copies produce the plain arbiter's grant stream, so a
  // replicated service with no faults is byte-identical to the plain one —
  // the bench's retention denominators depend on this.
  const ServiceStats plain = run_service(ft_options());
  for (const core::CheckMode mode :
       {core::CheckMode::kDuplicate, core::CheckMode::kTmr}) {
    ServiceOptions o = ft_options();
    o.self_check = mode;
    const ServiceStats s = run_service(o);
    EXPECT_EQ(s.summarize(), plain.summarize()) << core::to_string(mode);
    EXPECT_EQ(s.error_net_trips, 0u);
    EXPECT_EQ(s.resyncs, 0u);
    EXPECT_DOUBLE_EQ(s.availability(), 1.0);
    expect_conserved(s, core::to_string(mode));
  }
}

// --------------------------------------------------------- transient SEUs

TEST(ServiceFaults, SeuStormCorruptsTheUnprotectedService) {
  ServiceOptions o = ft_options();
  o.faults = seu_storm(o, /*copies=*/1, /*rate=*/1e-2);
  const ServiceStats s = run_service(o);
  EXPECT_GT(s.faults_injected, 0u);
  // A flipped one-hot register double-grants (poisoning completions) or
  // leaves the legal state set (killing availability); a plain arbiter
  // shows at least one of the two.
  EXPECT_TRUE(s.multi_grants > 0 || s.availability() < 1.0)
      << s.summarize_faults();
  EXPECT_EQ(s.error_net_trips, 0u) << "no error net to trip";
  expect_conserved(s, "plain + SEU storm");
}

TEST(ServiceFaults, TmrMasksTheSeuStormCompletely) {
  const ServiceStats plain = run_service(ft_options());
  ServiceOptions o = ft_options();
  o.self_check = core::CheckMode::kTmr;
  o.faults = seu_storm(o, /*copies=*/3, /*rate=*/1e-2);
  const ServiceStats s = run_service(o);
  EXPECT_GT(s.faults_injected, 0u);
  EXPECT_GT(s.error_net_trips, 0u);
  EXPECT_GT(s.resyncs, 0u) << "minority copies must be rewritten";
  EXPECT_EQ(s.multi_grants, 0u);
  EXPECT_EQ(s.corrupted, 0u);
  // The vote masks every flip in the same cycle and the resync heals the
  // minority copy, so the *service* behavior is byte-identical to the
  // fault-free run.
  EXPECT_EQ(s.summarize(), plain.summarize());
  EXPECT_DOUBLE_EQ(s.availability(), 1.0);
  expect_conserved(s, "TMR + SEU storm");
}

TEST(ServiceFaults, DmrFailStopsOnSeusWithoutCorruption) {
  ServiceOptions o = ft_options();
  o.self_check = core::CheckMode::kDuplicate;
  o.faults = seu_storm(o, /*copies=*/2, /*rate=*/1e-2);
  const ServiceStats s = run_service(o);
  EXPECT_GT(s.faults_injected, 0u);
  EXPECT_GT(s.error_net_trips, 0u);
  EXPECT_GT(s.resyncs, 0u);
  // Fail-stop: divergent steps are gated, never double-granted.
  EXPECT_EQ(s.multi_grants, 0u);
  EXPECT_EQ(s.corrupted, 0u);
  expect_conserved(s, "DMR + SEU storm");
}

// ------------------------------------------------------ permanent latch-up

TEST(ServiceFaults, DmrLatchupQuarantinesDrainAbortsAndRestores) {
  ServiceOptions o = ft_options();
  o.self_check = core::CheckMode::kDuplicate;
  o.degrade.enabled = true;
  o.faults = one_event(FaultKind::kArbiterLatchup, o.warmup_cycles + 500, 0);
  const ServiceStats s = run_service(o);
  EXPECT_EQ(s.faults_injected, 1u);
  EXPECT_GT(s.error_net_trips, 0u) << "latch-up wedges a corrupt value";
  EXPECT_GE(s.strikes, static_cast<std::uint64_t>(o.degrade.strikes));
  EXPECT_EQ(s.quarantines, 1u);
  // DMR fail-stops the wedged arbiter, so in-flight work cannot finish:
  // the drain deadline force-aborts and the leftovers fail over.
  EXPECT_EQ(s.drain_aborts, 1u);
  EXPECT_GT(s.requeued, 0u);
  EXPECT_EQ(s.restored, 1u) << "reconfiguration rewrites the region";
  EXPECT_EQ(s.retired, 0u);
  ASSERT_EQ(s.quarantine_events.size(), 1u);
  const auto& rec = s.quarantine_events.front();
  EXPECT_EQ(rec.resource, 0);
  EXPECT_TRUE(rec.drain_aborted);
  EXPECT_GT(rec.repair_cycles(), 0u);
  EXPECT_GE(s.mttr_cycles(), 1.0);
  EXPECT_LT(s.availability(), 1.0);
  EXPECT_GE(count_diag(s, obs::DiagKind::kQuarantine), 1u);
  expect_conserved(s, "DMR + latch-up");
}

TEST(ServiceFaults, TmrLatchupDrainsCleanlyAndKeepsGoodput) {
  const ServiceStats plain = run_service(ft_options());
  ServiceOptions o = ft_options();
  o.self_check = core::CheckMode::kTmr;
  o.degrade.enabled = true;
  o.faults = one_event(FaultKind::kArbiterLatchup, o.warmup_cycles + 500, 0);
  const ServiceStats s = run_service(o);
  EXPECT_EQ(s.quarantines, 1u);
  EXPECT_EQ(s.restored, 1u);
  // The vote keeps granting through the wedged copy, so the drain
  // completes on its own — no force-abort needed.
  EXPECT_EQ(s.drain_aborts, 0u);
  ASSERT_EQ(s.quarantine_events.size(), 1u);
  EXPECT_FALSE(s.quarantine_events.front().drain_aborted);
  EXPECT_EQ(s.corrupted, 0u);
  // Masking plus a short repair keeps goodput close to fault-free.
  EXPECT_GT(s.goodput(), 0.9 * plain.goodput()) << s.summarize_faults();
  expect_conserved(s, "TMR + latch-up");
}

TEST(ServiceFaults, UnprotectedLatchupIsSilentAndKillsAvailability) {
  ServiceOptions o = ft_options();
  o.degrade.enabled = true;  // supervision without detection is blind
  o.faults = one_event(FaultKind::kArbiterLatchup, o.warmup_cycles + 500, 0);
  const ServiceStats s = run_service(o);
  // Nothing ever detects the frozen plain arbiter: no strikes, no
  // quarantine — the resource just silently stops serving.
  EXPECT_EQ(s.error_net_trips, 0u);
  EXPECT_EQ(s.quarantines, 0u);
  EXPECT_LT(s.availability(), 0.8) << s.summarize_faults();
  // Goodput sags but does not halve at this load: retries re-route
  // randomly, so the live resource absorbs part of the dead one's share.
  EXPECT_LT(s.goodput(), 0.9 * run_service(ft_options()).goodput());
  expect_conserved(s, "plain + latch-up");
}

// ------------------------------------------------ permanent resource death

TEST(ServiceFaults, ResourceFailureRetiresAndFailsOver) {
  ServiceOptions o = ft_options();
  o.degrade.enabled = true;
  o.faults = one_event(FaultKind::kBankFailure, o.warmup_cycles + 500, 1);
  const ServiceStats s = run_service(o);
  EXPECT_GT(s.failed_service, 0u) << "dead datapath fails completions";
  EXPECT_EQ(s.quarantines, 1u);
  EXPECT_EQ(s.retired, 1u) << "a dead resource is retired, not repaired";
  EXPECT_EQ(s.restored, 0u);
  ASSERT_EQ(s.quarantine_events.size(), 1u);
  EXPECT_EQ(s.quarantine_events.front().resource, 1);
  EXPECT_EQ(s.quarantine_events.front().remap_target, 0);
  EXPECT_GE(count_diag(s, obs::DiagKind::kRemap), 1u);
  // The survivor keeps serving: goodput degrades, it does not vanish.
  EXPECT_GT(s.goodput(), 0.0);
  EXPECT_LT(s.availability(), 1.0);
  expect_conserved(s, "resource failure");
}

TEST(ServiceFaults, AllResourcesRetiredExhaustsCapacityWithDiagnostics) {
  ServiceOptions o = ft_options();
  o.degrade.enabled = true;
  // The failover storm emits many typed records before the second retire;
  // keep the cap out of the way so the capacity diagnostic is captured.
  o.max_diagnostics = 65'536;
  o.faults = one_event(FaultKind::kBankFailure, o.warmup_cycles + 200, 0);
  const auto second =
      one_event(FaultKind::kBankFailure, o.warmup_cycles + 800, 1);
  o.faults.push_back(second.front());
  const ServiceStats s = run_service(o);
  EXPECT_EQ(s.retired, 2u);
  ASSERT_EQ(s.quarantine_events.size(), 2u);
  EXPECT_EQ(s.quarantine_events.back().remap_target, -1)
      << "no survivor left to take the load";
  // With no live resource every submission is refused with the typed
  // capacity diagnostic and eventually exhausts its retry budget —
  // stall-with-diagnostic, not a hang or a lost request.
  EXPECT_GE(count_diag(s, obs::DiagKind::kCapacityExhausted), 1u);
  EXPECT_GT(s.budget_exhausted, 0u);
  expect_conserved(s, "double resource failure");
}

// ------------------------------------- conservation + determinism matrix

TEST(ServiceFaults, ConservationAndDeterminismAcrossTheFaultMatrix) {
  struct Scenario {
    const char* name;
    FaultKind kind;
  };
  const Scenario scenarios[] = {{"seu", FaultKind::kFsmBitFlip},
                                {"latchup", FaultKind::kArbiterLatchup},
                                {"bankfail", FaultKind::kBankFailure}};
  for (const core::CheckMode mode :
       {core::CheckMode::kNone, core::CheckMode::kDuplicate,
        core::CheckMode::kTmr}) {
    for (const auto& sc : scenarios) {
      ServiceOptions o = ft_options();
      o.self_check = mode;
      o.degrade.enabled = true;
      o.arrivals.rate = 0.75;  // 1.5x capacity: the bench's stress point
      if (sc.kind == FaultKind::kFsmBitFlip) {
        const int copies = mode == core::CheckMode::kTmr   ? 3
                           : mode == core::CheckMode::kDuplicate ? 2
                                                                 : 1;
        o.faults = seu_storm(o, copies, 1e-3);
      } else {
        o.faults = one_event(sc.kind, o.warmup_cycles + 500, 0);
      }
      const std::string what =
          std::string(core::to_string(mode)) + " + " + sc.name;
      const ServiceStats a = run_service(o);
      const ServiceStats b = run_service(o);
      expect_conserved(a, what);
      EXPECT_EQ(a.summarize(), b.summarize()) << what;
      EXPECT_EQ(a.summarize_faults(), b.summarize_faults()) << what;
    }
  }
}

// ------------------------------------------------------- plan + validation

TEST(ServiceFaultPlan, DeterministicSortedAndExactlySized) {
  ServiceFaultPlanOptions po;
  po.seed = 11;
  po.inject_after = 1'000;
  po.horizon = 9'000;
  po.rate = 2e-3;
  po.kinds = {FaultKind::kFsmBitFlip, FaultKind::kBankFailure};
  const auto a = fault::plan_service_faults(4, 2 * 2 * 8, po);
  const auto b = fault::plan_service_faults(4, 2 * 2 * 8, po);
  ASSERT_EQ(a.size(), 16u);  // round(rate * span)
  ASSERT_EQ(a.size(), b.size());
  std::size_t seus = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cycle, b[i].cycle);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].arbiter, b[i].arbiter);
    EXPECT_EQ(a[i].bit, b[i].bit);
    EXPECT_EQ(a[i].bank, b[i].bank);
    if (i > 0) {
      EXPECT_GE(a[i].cycle, a[i - 1].cycle);
    }
    EXPECT_GE(a[i].cycle, po.inject_after);
    EXPECT_LT(a[i].cycle, po.horizon);
    if (a[i].kind == FaultKind::kFsmBitFlip) {
      ++seus;
      EXPECT_GE(a[i].bit, 0);
      EXPECT_LT(a[i].bit, 2 * 2 * 8) << "bits span the whole register";
    }
  }
  EXPECT_EQ(seus, 8u) << "mixed kinds are assigned round-robin, exactly";
}

TEST(ServiceFaultPlan, PermanentEventsAreStratifiedRoundRobin) {
  ServiceFaultPlanOptions po;
  po.inject_after = 1'000;
  po.horizon = 5'000;
  po.rate = 3.0 / 4'000.0;  // exactly 3 events over the window
  po.kinds = {FaultKind::kArbiterLatchup};
  const auto plan = fault::plan_service_faults(2, 2 * 4, po);
  ASSERT_EQ(plan.size(), 3u);
  // Event j of m lands at inject_after + span * (j+1)/(m+1): no lucky
  // clustering, and the victims rotate so no resource is drawn twice
  // before every resource was drawn once.
  EXPECT_EQ(plan[0].cycle, 2'000u);
  EXPECT_EQ(plan[1].cycle, 3'000u);
  EXPECT_EQ(plan[2].cycle, 4'000u);
  EXPECT_EQ(plan[0].arbiter, 0);
  EXPECT_EQ(plan[1].arbiter, 1);
  EXPECT_EQ(plan[2].arbiter, 0);
}

TEST(ServiceFaultPlan, RejectsNonServiceKindsAndBadShapes) {
  ServiceFaultPlanOptions po;
  po.kinds = {FaultKind::kChannelCorrupt};
  EXPECT_THROW((void)fault::plan_service_faults(2, 8, po), CheckError);
  po.kinds = {FaultKind::kFsmBitFlip};
  EXPECT_THROW((void)fault::plan_service_faults(0, 8, po), CheckError);
  EXPECT_THROW((void)fault::plan_service_faults(2, 0, po), CheckError)
      << "no register bits to upset";
  po.horizon = 10;
  po.inject_after = 10;  // empty window
  EXPECT_THROW((void)fault::plan_service_faults(2, 8, po), CheckError);
}

TEST(ServiceFaults, EngineRejectsMalformedFaultPlans) {
  // Out-of-range target.
  ServiceOptions o = ft_options();
  o.faults = one_event(FaultKind::kArbiterLatchup, 100, 5);
  EXPECT_THROW((void)run_service(o), CheckError);
  // Unsorted plan.
  o = ft_options();
  o.faults = one_event(FaultKind::kFsmBitFlip, 2'000, 0);
  o.faults.push_back(one_event(FaultKind::kFsmBitFlip, 1'000, 1).front());
  EXPECT_THROW((void)run_service(o), CheckError);
  // A kind the service shape cannot interpret.
  o = ft_options();
  o.faults = one_event(FaultKind::kArbiterLatchup, 100, 0);
  o.faults.front().kind = FaultKind::kPermanentStuckChannel;
  EXPECT_THROW((void)run_service(o), CheckError);
}

TEST(ServiceFaults, EveryKindModeAndWidthTakesSeusAndLatchupsConserved) {
  // Fault plans reach every arbiter kind, replicated or not, at every
  // width: the planner draws SEUs over the arbiter's whole register
  // (copies included), and no combination CHECK-fails or loses a request.
  for (const core::ArbiterKind kind :
       {core::ArbiterKind::kFlatFsm, core::ArbiterKind::kHierarchical,
        core::ArbiterKind::kPrefix})
    for (const core::CheckMode mode :
         {core::CheckMode::kNone, core::CheckMode::kDuplicate,
          core::CheckMode::kTmr})
      for (const int ports : {8, 64, 65, 300}) {
        ServiceOptions o = ft_options();
        o.resources = 2;
        o.ports = ports;
        o.arbiter_kind = kind;
        o.self_check = mode;
        o.degrade.enabled = mode != core::CheckMode::kNone;
        o.warmup_cycles = 300;
        o.measure_cycles = 1'500;
        core::SystemArbiterSpec spec;
        spec.kind = kind;
        spec.self_check = mode;
        const int bits =
            core::make_system_arbiter(ports, spec).arbiter->num_state_bits();
        ServiceFaultPlanOptions po;
        po.seed = 17;
        po.inject_after = o.warmup_cycles;
        po.horizon = o.warmup_cycles + o.measure_cycles;
        po.rate = 4e-3;
        po.kinds = {FaultKind::kFsmBitFlip, FaultKind::kFsmBitFlip,
                    FaultKind::kArbiterLatchup};
        o.faults = fault::plan_service_faults(o.resources, bits, po);
        const std::string what = std::string(core::to_string(kind)) + " " +
                                 core::to_string(mode) + " ports=" +
                                 std::to_string(ports);
        ServiceStats s;
        ASSERT_NO_THROW(s = run_service(o)) << what;
        EXPECT_EQ(s.faults_injected, o.faults.size()) << what;
        expect_conserved(s, what);
        if (mode != core::CheckMode::kNone) {
          EXPECT_GT(s.error_net_trips, 0u) << what;
          EXPECT_EQ(s.corrupted, 0u) << what;
        }
      }
}

}  // namespace
}  // namespace rcarb::service
