#include "obs/diagnostic.hpp"

namespace rcarb::obs {

const char* to_string(DiagKind k) {
  switch (k) {
    case DiagKind::kBankConflict: return "bank-conflict";
    case DiagKind::kChannelConflict: return "channel-conflict";
    case DiagKind::kProtocolViolation: return "protocol-violation";
    case DiagKind::kOutOfBounds: return "out-of-bounds";
    case DiagKind::kIllegalFsmState: return "illegal-fsm-state";
    case DiagKind::kMultipleGrants: return "multiple-grants";
    case DiagKind::kFsmRecovery: return "fsm-recovery";
    case DiagKind::kHungGrant: return "hung-grant";
    case DiagKind::kWatchdogRecovery: return "watchdog-recovery";
    case DiagKind::kDataCorruption: return "data-corruption";
    case DiagKind::kDeadlock: return "deadlock";
    case DiagKind::kNoProgress: return "no-progress";
    case DiagKind::kMaxCycles: return "max-cycles";
    case DiagKind::kQuarantine: return "quarantine";
    case DiagKind::kRemap: return "remap";
    case DiagKind::kCapacityExhausted: return "capacity-exhausted";
    case DiagKind::kRejected: return "rejected";
    case DiagKind::kTimedOut: return "timed-out";
    case DiagKind::kShed: return "shed";
  }
  return "?";
}

std::string SimDiagnostic::format() const {
  std::string s = std::string(to_string(kind)) + "@" + std::to_string(cycle);
  if (task >= 0) s += " task=" + std::to_string(task);
  if (resource >= 0) s += " resource=" + std::to_string(resource);
  if (!detail.empty()) s += ": " + detail;
  return s;
}

}  // namespace rcarb::obs
