// Cycle-level reconfigurable-computer system simulation.
//
// Executes the tasks of one temporal partition concurrently, interpreting
// their (arbitration-rewritten) programs cycle by cycle against single-port
// memory banks, inter-PE channels with receiver-side registers (paper
// Sec. 4.3) and the behavioral arbiters of core/policy.  The simulator
// enforces the Fig. 8 protocol: an access to an arbitrated resource
// without the grant is a protocol violation, and two simultaneous drivers
// of one bank or physical channel are a hardware conflict.  Both are
// detected and reported — the unarbitrated baseline benches rely on the
// detector to show *why* arbitration is necessary.  Every arbiter takes its
// structure from its plan instance (core::ArbiterInstance::kind), the
// structure the flow pre-characterized, both at first build and when the
// degradation supervisor regenerates one; there is no simulator-side kind
// option.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/insertion.hpp"
#include "core/policy.hpp"
#include "core/selfcheck.hpp"
#include "degrade/degrade.hpp"
#include "fault/fault.hpp"
#include "obs/diagnostic.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "taskgraph/taskgraph.hpp"

namespace rcarb::rcsim {

namespace detail {
struct SimTables;
}  // namespace detail

struct SimOptions {
  std::uint64_t max_cycles = 50'000'000;
  std::uint64_t seed = 1;  // random-policy arbiters
  /// Throw on protocol violations / conflicts instead of recording them.
  /// Non-strict, every violation class lands in SimResult::diagnostics and
  /// the run continues (or stops cleanly on deadlock / max_cycles).
  bool strict = true;
  /// Model the *broken* alternative to Fig. 3's receiver-side registers:
  /// one register per physical channel, so merged transfers can clobber
  /// each other (used by the Table 1 bench to demonstrate the hazard).
  bool naive_shared_channel_register = false;
  /// Virtual-wires-style static TDM baseline (related work, Sec. 1.2):
  /// per logical channel, an optional (slot, period) pair.  A send must
  /// wait until cycle % period == slot; no arbiter is involved.  Empty =
  /// arbitrated sharing as in the paper.
  std::vector<std::pair<int, int>> tdm_slots;  // per ChannelId; period 0=off

  // ---- Resilience (fault model & hardening). ----
  /// Cycles without any task progress before the simulator attributes the
  /// stall (wait-for-graph deadlock analysis) and stops.
  std::uint64_t no_progress_window = 100'000;
  /// Hung-grant watchdog: a holder that keeps a grant this many consecutive
  /// cycles without retiring an access while peers wait is *reported*
  /// (kHungGrant); with `harden` it is also force-released.  0 = off.
  int watchdog_timeout = 0;
  /// Master hardening switch: round-robin arbiters recover from illegal
  /// (SEU-flipped) states, the watchdog force-releases hung holders, and
  /// channel words are SECDED-protected (single-bit corruptions corrected).
  /// Off, the same faults are detected and reported but not repaired.
  /// The scalable kinds have no one-hot register to recover; upsets and
  /// latch-ups land in their packed state registers.
  bool harden = false;
  /// Deterministic fault schedule (see fault::plan_faults), applied against
  /// this run's arbiters and physical channels.
  std::vector<fault::FaultEvent> faults;

  // ---- Graceful degradation (permanent faults). ----
  /// Replicate every round-robin arbiter, of any kind, as a self-checking
  /// variant (duplicate-and-compare or TMR-voted).  The comparator's
  /// `error` output is the evidence stream the degradation supervisor
  /// classifies; kNone (the default) instantiates the plain arbiters.
  core::CheckMode self_check = core::CheckMode::kNone;
  /// Supervisory recovery controller: classify permanent faults (K strikes
  /// in W cycles), quarantine the resource, drain in-flight bursts at the
  /// Fig. 8 batch boundary and remap its load onto survivors.  Disabled by
  /// default (permanent faults then stall the affected tasks forever —
  /// the bench's stall-only baseline).
  degrade::DegradeOptions degrade;

  // ---- Observability. ----
  /// Borrowed trace-event sink.  nullptr (the default) disables emission
  /// entirely: every candidate event costs one pointer test, and no names
  /// or strings are formatted on the simulation path.
  obs::TraceSink* trace_sink = nullptr;
  /// Attach per-arbiter metric probes; results land in
  /// SimResult::arbiter_obs.  Off by default: the probes cost ~5-10% on
  /// simulation-bound workloads (the flow turns them on for its summary).
  bool arbiter_metrics = false;
  /// Build the human-readable `detail` string of each diagnostic.  Off,
  /// diagnostics still carry kind/cycle/task/resource (count() and kind
  /// filters keep working) but `detail` stays empty, so non-strict fault
  /// sweeps do not pay string formatting per event.  Strict runs always
  /// build details — the thrown message needs them.
  bool diag_detail = true;
  /// Record each arbiter's per-cycle *effective* request words (after
  /// stuck-at masking and watchdog force-release — exactly what the
  /// behavioral arbiter steps on) into SimResult::request_trace.  The
  /// recorded stream can be replayed against the synthesized netlist of
  /// the same arbiter, e.g. 64 SEU replicas at a time in a 64-lane
  /// netlist::WideLaneSimulator.  Off by default: costs one store per
  /// request word per arbiter per cycle when on, nothing when off.
  bool record_request_trace = false;
};

// The diagnostic vocabulary is shared with the service engine; it lives in
// obs so the service does not link rcsim.
using obs::DiagKind;
using obs::SimDiagnostic;
using obs::to_string;

struct TaskStats {
  bool ran = false;
  std::uint64_t start_cycle = 0;
  std::uint64_t finish_cycle = 0;
  std::uint64_t ops_retired = 0;
  std::uint64_t mem_accesses = 0;
  std::uint64_t channel_ops = 0;
  std::uint64_t grant_wait_cycles = 0;  // stalled awaiting a grant
  std::uint64_t backpressure_cycles = 0;  // sends stalled on a full register
  std::uint64_t acquires = 0;
};

struct ArbiterStats {
  std::string resource_name;
  int ports = 0;
  /// Structure instantiated: the plan's ArbiterInstance::kind.
  core::ArbiterKind kind = core::ArbiterKind::kFlatFsm;
  std::uint64_t grants = 0;         // grant-holder changes
  std::uint64_t granted_cycles = 0; // cycles with any grant asserted
  std::uint64_t max_wait = 0;       // longest request-to-grant wait
};

struct SimResult {
  std::uint64_t cycles = 0;
  std::vector<TaskStats> tasks;       // per TaskId
  std::vector<ArbiterStats> arbiters; // per plan arbiter
  std::uint64_t bank_conflicts = 0;
  std::uint64_t channel_conflicts = 0;
  std::uint64_t protocol_violations = 0;
  std::uint64_t clobbered_reads = 0;  // naive shared-register corruption

  // ---- Resilience accounting. ----
  std::uint64_t illegal_fsm_states = 0;   // illegal-register episodes seen
  std::uint64_t fsm_recoveries = 0;       // hardened arbiter resets
  std::uint64_t multi_grant_cycles = 0;   // cycles with >1 grant asserted
  std::uint64_t hung_grants = 0;          // watchdog detections
  std::uint64_t watchdog_releases = 0;    // watchdog force-releases
  std::uint64_t corrupted_words = 0;      // delivered corrupted (detected)
  std::uint64_t corrected_words = 0;      // repaired by SECDED
  std::uint64_t retries = 0;              // protocol-level Req re-assertions
  /// True when the run stopped on a deadlock / no-progress attribution
  /// instead of finishing every task.
  bool deadlocked = false;

  // ---- Graceful-degradation accounting. ----
  std::uint64_t self_check_errors = 0;  // comparator-high cycles
  std::uint64_t self_check_resyncs = 0; // copy re-synchronizations
  std::uint64_t strikes = 0;            // evidence fed to the classifier
  std::uint64_t quarantined = 0;        // resources classified permanent
  std::uint64_t remaps = 0;             // successful online remaps
  std::uint64_t drain_aborts = 0;       // drain_timeout force-aborts
  /// Cycles on which no resource was mid-quarantine (draining or
  /// reconfiguring) and no task was stuck against a failed, not-yet-
  /// remapped resource.  availability = serving_cycles / cycles.
  std::uint64_t serving_cycles = 0;
  /// One lifecycle record per quarantined resource (MTTR accounting).
  std::vector<degrade::QuarantineRecord> quarantine_events;

  /// Cycles the simulator advanced in quiet-stretch jumps instead of one by
  /// one (its own bookkeeping: every other field is the same either way).
  std::uint64_t skipped_cycles = 0;
  /// Arbiter steps skipped because the lane sat at a fixed point (its own
  /// bookkeeping, like skipped_cycles).
  std::uint64_t skipped_lane_steps = 0;

  std::vector<SimDiagnostic> diagnostics;

  /// Per-arbiter counters and histograms (empty when
  /// SimOptions::arbiter_metrics is off).  Indexed like `arbiters`.
  std::vector<obs::ArbiterMetrics> arbiter_obs;

  /// Per-arbiter effective request words, (ports + 63) / 64 words per
  /// simulated cycle (empty when SimOptions::record_request_trace is off).
  /// Indexed like `arbiters`; bit p % 64 of entry [a][c * words + p / 64]
  /// is port p's request at cycle c.
  std::vector<std::vector<std::uint64_t>> request_trace;

  /// Diagnostics of one kind (campaign reporting helper).
  [[nodiscard]] std::size_t count(DiagKind k) const;
};

/// Simulates one temporal partition of a bound, arbitration-planned design.
/// Owns copies of the graph, binding and plan, so callers may pass
/// temporaries freely.
class SystemSimulator {
 public:
  /// The graph must be the *rewritten* graph from insert_arbitration (or an
  /// un-rewritten one when demonstrating violations with an empty plan).
  SystemSimulator(tg::TaskGraph graph, core::Binding binding,
                  core::ArbitrationPlan plan, SimOptions options = {});

  /// Pre-loads a segment's words (resizes to the segment's declared size).
  void write_segment(tg::SegmentId s, const std::vector<std::int64_t>& words);
  [[nodiscard]] const std::vector<std::int64_t>& segment_data(
      tg::SegmentId s) const;

  /// Runs the given tasks to completion (or max_cycles) and returns stats.
  /// Tasks outside `tasks` are treated as already finished for control
  /// dependencies.  May be called repeatedly: every run starts from the
  /// system as constructed — the fault schedule replays, and the online
  /// remaps and regenerated arbiters of earlier runs are gone — and only
  /// segment memory persists across runs.
  SimResult run(const std::vector<tg::TaskId>& tasks);

  /// Id -> name tables for exporting traces recorded from this system,
  /// including the arbiters the last run regenerated.
  [[nodiscard]] obs::TraceMeta trace_meta() const;

 private:
  tg::TaskGraph graph_;
  core::Binding binding_;
  core::ArbitrationPlan plan_;
  SimOptions options_;
  // Port index, decoded programs and control edges, derived once.
  std::shared_ptr<const detail::SimTables> tables_;
  std::vector<std::vector<std::int64_t>> memory_;  // per segment
  std::vector<std::string> regenerated_arbiters_;  // names, last run
};

}  // namespace rcarb::rcsim
