// Graceful degradation: permanent-fault classification and online remap
// planning.
//
// PR 1's resilience machinery treats every fault as transient: recover the
// register, force-release the grant, retry the burst.  A *permanent* fault
// — a stuck channel wire, a dead bank, a latched-up arbiter — defeats all
// of that: the retry fails forever and the system wedges or silently
// corrupts.  This library supplies the missing policy layer:
//
//   * StrikeTracker — distinguishes permanent from transient by evidence
//     accumulation: K strikes against one resource within W cycles
//     classifies the fault as permanent (a one-shot SEU never re-strikes;
//     a dead bank strikes on every access).
//   * Remap planners — once a resource is quarantined, its logical load
//     moves to survivors.  Both planners *group-move* (every segment of a
//     dead bank onto ONE surviving bank; every logical channel of a dead
//     physical channel onto ONE survivor), which keeps "old resource ->
//     live resource" a function — the property that lets the system
//     simulator translate operations whose programs bake in resource ids.
//   * Reconfiguration pricing — the stall for regenerating an arbiter for
//     the survivor's grown contention set, priced off the CLB count from
//     the process-wide synthesis memo (PR 4), as a partial-reconfiguration
//     write-time model.
//
//   * ResourceSupervisor — the one per-resource quarantine FSM, driven by
//     both system engines: the open-loop service and rcsim's cycle loop,
//     which hands it a bank or channel group-move plan when a drain ends.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/selfcheck.hpp"
#include "synth/encoding.hpp"

namespace rcarb::degrade {

/// Tuning of the supervisory recovery controller.
struct DegradeOptions {
  /// Master switch.  Off, permanent faults are still *injected* by the
  /// simulator but never classified or repaired (the stall-only baseline
  /// the degradation bench compares against).
  bool enabled = false;
  /// Permanent-fault classification: K strikes within W cycles.
  int strikes = 3;                   // K
  std::uint64_t strike_window = 64;  // W
  /// Drain bound: cycles to wait for in-flight bursts to reach the <=M
  /// batch boundary (Fig. 8) before the supervisor force-aborts them — a
  /// dead resource never retires the access that would end the burst.
  std::uint64_t drain_timeout = 64;
  /// Reconfiguration stall model: base + per-CLB write time for the
  /// regenerated arbiter's region.
  std::uint64_t reconfig_base_cycles = 8;
  std::uint64_t reconfig_cycles_per_clb = 4;
};

/// Evidence classes feeding the strike tracker.
enum class StrikeSource : std::uint8_t {
  kSelfCheckError,  // self-checking arbiter's comparator fired
  kWatchdogTrip,    // hung-grant watchdog fired on the resource
  kChannelFailure,  // a send on the physical channel failed
  kBankFailure,     // a bank access failed
};

[[nodiscard]] const char* to_string(StrikeSource s);

/// Per-resource K-in-W classifier.  Strikes outside the sliding window
/// expire, so isolated transients (SEUs, one-off watchdog trips) never
/// accumulate to a classification.
class StrikeTracker {
 public:
  StrikeTracker() = default;
  StrikeTracker(std::size_t num_resources, int strikes,
                std::uint64_t window);

  /// Records one strike; returns true when this strike is the K-th within
  /// the window — the classification point at which the caller should
  /// quarantine the resource.
  bool strike(int resource, std::uint64_t cycle, StrikeSource source);

  /// Forgets a resource's history (after repair or remap).
  void clear(int resource);

  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] std::uint64_t count(StrikeSource s) const {
    return by_source_[static_cast<std::size_t>(s)];
  }

 private:
  int strikes_ = 3;
  std::uint64_t window_ = 64;
  std::vector<std::vector<std::uint64_t>> recent_;  // per resource, sorted
  std::uint64_t total_ = 0;
  std::array<std::uint64_t, 4> by_source_{};
};

/// Quarantine lifecycle of one resource (the supervisor's per-resource
/// FSM; Fig. 8's batch boundary bounds the drain).
enum class QuarantineState : std::uint8_t {
  kHealthy,
  kDraining,         // masking new grants, waiting out in-flight bursts
  kReconfiguring,    // survivors' arbiters being regenerated (stall)
  kRemapped,         // load moved; resource permanently retired
  kCapacityExhausted // no survivor could take the load; stall-with-diag
};

[[nodiscard]] const char* to_string(QuarantineState s);

/// Cycle-stamped lifecycle record (MTTR accounting).
struct QuarantineRecord {
  int resource = -1;
  QuarantineState state = QuarantineState::kHealthy;
  std::uint64_t classified_cycle = 0;  // K-th strike observed
  std::uint64_t drained_cycle = 0;     // last in-flight burst retired
  std::uint64_t restored_cycle = 0;    // service resumed on survivors
  bool drain_aborted = false;          // drain_timeout force-abort used
  int remap_target = -1;  // live resource now serving the load (-1 = none)

  /// Mean-time-to-repair contribution: classification -> restored.  A
  /// record queried mid-quarantine (still draining/reconfiguring, so
  /// restored_cycle is not stamped yet) used to wrap the subtraction to a
  /// huge u64 and poison MTTR averages; unset stages contribute 0.
  [[nodiscard]] std::uint64_t repair_cycles() const {
    if (restored_cycle < classified_cycle) return 0;
    return restored_cycle - classified_cycle;
  }
};

/// Which repair a classified permanent fault needs, decided from the
/// evidence class of the classifying strike.
enum class RepairPath : std::uint8_t {
  kReconfigure,  // fault is inside the arbiter region: rewrite it and the
                 // resource returns to service (latch-up, SEU storms)
  kRetire,       // the resource itself is dead: fail its load over to the
                 // survivors for good (channel / bank failures)
};

/// Maps strike evidence to the repair it implies: arbiter-side sources
/// (self-check comparator, watchdog) reconfigure the arbiter region;
/// resource-side sources (channel, bank) retire the resource.
[[nodiscard]] RepairPath repair_path_for(StrikeSource source);

/// A caller's own verdict on a drained resource (the retire-with-remap-
/// plan hook): its load moves for good, onto `target`.
struct RetirePlan {
  bool feasible = true;  // false: no survivor can take the load
  int target = -1;       // resource serving the load afterwards; the
                         // resource itself for an in-place regeneration
};

/// Per-resource quarantine FSM shared by the system engines (the service
/// and rcsim).  Owns the strike tracker plus the per-resource state,
/// deadline and record bookkeeping; the caller supplies the cycle loop,
/// reports drain progress, and acts on the returned transitions.  Engine
/// differences are the caller's inputs, never options: the repair plan,
/// when it reports the drain done, and whether it strikes a resource
/// that is not serving.
class ResourceSupervisor {
 public:
  enum class Transition : std::uint8_t {
    kNone,          // no state change this call
    kQuarantined,   // K-in-W classification: resource entered kDraining
    kDrainOverdue,  // drain_timeout passed with work still in flight: the
                    // caller must abort it (the record's drain_aborted)
    kDrained,       // in-flight work gone: kReconfiguring
    kRestored,      // arbiter region rewritten: back to kHealthy
    kRetired,       // unrepairable: kRemapped (load stays failed over), or
                    // kCapacityExhausted when no survivor can take it
  };

  ResourceSupervisor() = default;
  ResourceSupervisor(int resources, const DegradeOptions& options);

  /// Records one strike.  Returns kQuarantined when it is the K-th within
  /// W against a healthy resource — the classification point: the caller
  /// must stop routing new work here and start draining.  Evidence
  /// against an already-quarantined resource still counts in the tracker
  /// totals but never re-classifies; a disabled supervisor
  /// (DegradeOptions::enabled == false) records evidence and nothing
  /// else (the stall-only / unprotected baseline).
  Transition strike(int resource, std::uint64_t cycle, StrikeSource source);

  /// Advances a draining/reconfiguring resource one cycle.  `drained` is
  /// the caller's "no in-flight work left" signal; past drain_timeout an
  /// undrained resource returns kDrainOverdue until the caller has aborted
  /// its leftovers and reports it drained.  The stall is priced when the
  /// drain ends, via arbiter_reconfig_cycles for `ports` and `mode`.  The
  /// repair follows the classifying strike's repair_path_for() unless that
  /// call passes a `plan`: infeasible, it retires the resource to
  /// kCapacityExhausted at once; feasible, onto plan->target when the
  /// stall ends (kRemapped, in place too).
  Transition advance(int resource, std::uint64_t cycle, bool drained,
                     int ports, core::CheckMode mode,
                     const RetirePlan* plan = nullptr);

  [[nodiscard]] QuarantineState state(int resource) const;
  /// Healthy = routable: new work may be sent here.
  [[nodiscard]] bool serving(int resource) const {
    return state(resource) == QuarantineState::kHealthy;
  }
  [[nodiscard]] const StrikeTracker& strikes() const { return tracker_; }
  /// Every quarantine's lifecycle record, in classification order.  Open
  /// records (still draining/reconfiguring) have unset later stages —
  /// repair_cycles() reads 0 for them.
  [[nodiscard]] const std::vector<QuarantineRecord>& records() const {
    return records_;
  }
  /// The latest quarantine record of a resource that has been classified.
  [[nodiscard]] const QuarantineRecord& record(int resource) const;

 private:
  struct Cell {
    QuarantineState state = QuarantineState::kHealthy;
    RepairPath path = RepairPath::kReconfigure;
    std::uint64_t deadline = 0;
    bool overdue = false;    // the drain passed its deadline
    int target = -1;         // plan target; -1 = pick at retirement
    std::size_t record = 0;  // index into records_; valid when quarantined
  };

  DegradeOptions opt_;
  StrikeTracker tracker_;
  std::vector<Cell> cells_;
  std::vector<QuarantineRecord> records_;
};

/// Group-move plan for a dead bank: every segment it held moves to ONE
/// surviving bank with enough free capacity.  Deterministic best-fit:
/// the tightest-fitting survivor (smallest sufficient free space, then
/// lowest index).  Pure — the caller applies the move.
struct BankRemapPlan {
  bool feasible = false;
  int dead_bank = -1;
  int target_bank = -1;
  std::vector<int> moved_segments;  // SegmentIds
  std::size_t moved_bytes = 0;
};

[[nodiscard]] BankRemapPlan plan_bank_remap(
    const std::vector<std::size_t>& segment_bytes,
    const std::vector<int>& bank_of_segment,
    const std::vector<std::size_t>& bank_free_bytes, int dead_bank,
    const std::vector<bool>& failed);

/// Group-move plan for a dead physical channel at the Binding level:
/// every logical channel it carried moves to the least-loaded surviving
/// physical channel (fewest logical channels, then lowest index).  The
/// engines remap with this plan.  A Binding records neither the PE pair
/// nor the width of a physical channel, so the plan checks neither: the
/// survivor may join another PE pair or be narrower than a moved channel.
struct ChannelRemapPlan {
  bool feasible = false;
  int dead_phys = -1;
  int target_phys = -1;
  std::vector<int> moved_channels;  // ChannelIds
};

[[nodiscard]] ChannelRemapPlan plan_channel_remap(
    const std::vector<int>& channel_to_phys, std::size_t num_phys,
    int dead_phys, const std::vector<bool>& failed);

/// Reconfiguration stall for a region of `clbs` CLBs.
[[nodiscard]] std::uint64_t reconfig_cycles(const DegradeOptions& options,
                                            std::size_t clbs);

/// Reconfiguration stall for regenerating the round-robin arbiter of a
/// grown contention set of `n` ports (plain or self-checking), priced off
/// the pre-characterized CLB count from the process-wide synthesis memo.
/// n < 2 needs no arbiter (base cost only).
[[nodiscard]] std::uint64_t arbiter_reconfig_cycles(
    const DegradeOptions& options, int n, core::CheckMode mode,
    synth::Encoding encoding = synth::Encoding::kOneHot);

}  // namespace rcarb::degrade
