// Deterministic fault injection for the arbitration stack.
//
// Real reconfigurable fabrics see single-event upsets and stuck lines; the
// paper's safety claims (Sec. 4.1: mutual exclusion, starvation freedom,
// deadlock freedom) are only meaningful if the system at least *detects*
// such faults, and ideally recovers.  This module produces deterministic,
// seeded fault schedules against a declared target shape (arbiters with
// request ports and one-hot state registers, physical channels carrying
// words).  The schedule is data: consumers (the behavioral arbiters, the
// system simulator, the netlist simulator tests) apply each event to their
// own representation, so the same campaign drives every layer identically.
#pragma once

#include <cstdint>
#include <vector>

namespace rcarb::fault {

/// What breaks.  The one-hot Fig. 5 encoding is especially exposed to
/// kFsmBitFlip: a single upset produces a zero-hot (dead) or two-hot
/// (mutual-exclusion-violating) register.
enum class FaultKind : std::uint8_t {
  kFsmBitFlip,     // SEU in an arbiter's state register (one bit XOR)
  kReqStuck0,      // a request line reads 0 for `duration` cycles
  kReqStuck1,      // a request line reads 1 for `duration` cycles
  kGrantStuck0,    // the holder's grant line reads 0 (hung grant)
  kGrantDrop,      // one grant pulse is swallowed (1-cycle stuck-0)
  kChannelCorrupt, // the next word on a physical channel is XOR-corrupted

  // ---- Permanent faults (graceful-degradation campaigns). ----
  kPermanentStuckChannel, // a physical channel stops carrying words forever
  kBankFailure,           // a memory bank stops acknowledging accesses
  kArbiterLatchup,        // one arbiter FSM copy freezes at its state
};

[[nodiscard]] const char* to_string(FaultKind k);

/// True for the permanent kinds: the fault never clears on its own, so
/// detection must lead to quarantine + remap rather than retry.
[[nodiscard]] bool is_permanent(FaultKind k);

/// All *transient* kinds, in enum order (campaign sweeps iterate this).
/// Deliberately excludes the permanent kinds so existing resilience
/// campaigns keep their cell sets; see permanent_fault_kinds().
[[nodiscard]] const std::vector<FaultKind>& all_fault_kinds();

/// The permanent kinds, in enum order (degradation campaigns iterate this).
[[nodiscard]] const std::vector<FaultKind>& permanent_fault_kinds();

/// One scheduled fault.  Fields beyond `cycle`/`kind` are target
/// coordinates; unused ones stay -1/0.
struct FaultEvent {
  std::uint64_t cycle = 0;
  FaultKind kind = FaultKind::kFsmBitFlip;
  int arbiter = -1;            // arbiter index (FSM / line faults)
  int port = -1;               // request-line index within the arbiter
  int bit = -1;                // state-register bit (kFsmBitFlip)
  int channel = -1;            // physical channel (channel faults)
  int bank = -1;               // memory bank (kBankFailure)
  std::uint64_t xor_mask = 0;  // data corruption mask (kChannelCorrupt)
  std::uint64_t duration = 1;  // cycles a stuck-at persists
};

/// The injectable surface of one system: how many arbiters exist, how wide
/// each one is, and how many physical channels carry data.
struct FaultTargets {
  std::vector<int> arbiter_ports;      // ports per arbiter
  std::vector<int> arbiter_state_bits; // state-register width per arbiter
  int num_phys_channels = 0;
  int num_banks = 0;                   // memory banks (kBankFailure)

  [[nodiscard]] bool empty() const {
    return arbiter_ports.empty() && num_phys_channels == 0 && num_banks == 0;
  }
};

struct FaultPlanOptions {
  std::uint64_t seed = 1;
  /// Cycles across which events are scattered.
  std::uint64_t horizon = 20'000;
  /// Expected number of faults per cycle (events = round(rate * horizon)).
  double rate = 1e-3;
  /// Stuck-at persistence; transient SEU-like faults stay short.
  std::uint64_t stuck_duration = 256;
  /// Kinds to draw from; empty = all kinds applicable to the targets.
  std::vector<FaultKind> kinds;
};

/// Builds a deterministic schedule: identical options + targets yield an
/// identical, cycle-sorted event list.  kChannelCorrupt masks are single-bit
/// (the SEU model), which a SECDED-protected channel can correct.
[[nodiscard]] std::vector<FaultEvent> plan_faults(const FaultTargets& targets,
                                                  const FaultPlanOptions& options);

}  // namespace rcarb::fault
