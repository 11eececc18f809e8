// Typed diagnostics, shared by rcsim (SimResult) and the open-loop service
// (ServiceStats).
#pragma once

#include <cstdint>
#include <string>

namespace rcarb::obs {

/// What went wrong (or was repaired), as a machine-checkable record.
enum class DiagKind : std::uint8_t {
  kBankConflict,      // two simultaneous drivers of a single-port bank
  kChannelConflict,   // two simultaneous drivers of a physical channel
  kProtocolViolation, // Fig. 8 protocol broken (access without Req, ...)
  kOutOfBounds,       // address outside the segment
  kIllegalFsmState,   // arbiter register left the legal one-hot set
  kMultipleGrants,    // mutual exclusion violated (multi-hot register)
  kFsmRecovery,       // hardened arbiter recovered to the reset state
  kHungGrant,         // grant pinned on an idle holder past the watchdog
  kWatchdogRecovery,  // watchdog force-released the hung holder
  kDataCorruption,    // channel word corrupted (detected or corrected)
  kDeadlock,          // wait-for-graph cycle over requests/grants/channels
  kNoProgress,        // stall with no wait-for cycle (hang / livelock)
  kMaxCycles,         // simulation exceeded max_cycles
  kQuarantine,        // supervisor classified a resource fault as permanent
  kRemap,             // quarantined resource's load moved onto a survivor
  kCapacityExhausted, // no survivor can take the load; stall-with-diagnostic
  kRejected,          // service refused a request (full queue or failover)
  kTimedOut,          // service request completed after its client gave up
  kShed,              // service frontend shed the request before enqueue
};

[[nodiscard]] const char* to_string(DiagKind k);

/// One attributed diagnostic.  `task` / `resource` are -1 when the event is
/// not tied to one task / one shared resource.
struct SimDiagnostic {
  DiagKind kind = DiagKind::kNoProgress;
  std::uint64_t cycle = 0;
  int task = -1;      // tg::TaskId
  int resource = -1;  // unified Binding resource id
  std::string detail;

  [[nodiscard]] std::string format() const;
};

}  // namespace rcarb::obs
