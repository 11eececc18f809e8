#include "fault/fault.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace rcarb::fault {

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kFsmBitFlip: return "fsm-bit-flip";
    case FaultKind::kReqStuck0: return "req-stuck-0";
    case FaultKind::kReqStuck1: return "req-stuck-1";
    case FaultKind::kGrantStuck0: return "grant-stuck-0";
    case FaultKind::kGrantDrop: return "grant-drop";
    case FaultKind::kChannelCorrupt: return "channel-corrupt";
    case FaultKind::kPermanentStuckChannel: return "permanent-stuck-channel";
    case FaultKind::kBankFailure: return "bank-failure";
    case FaultKind::kArbiterLatchup: return "arbiter-latchup";
  }
  return "?";
}

bool is_permanent(FaultKind k) {
  switch (k) {
    case FaultKind::kPermanentStuckChannel:
    case FaultKind::kBankFailure:
    case FaultKind::kArbiterLatchup:
      return true;
    case FaultKind::kFsmBitFlip:
    case FaultKind::kReqStuck0:
    case FaultKind::kReqStuck1:
    case FaultKind::kGrantStuck0:
    case FaultKind::kGrantDrop:
    case FaultKind::kChannelCorrupt:
      return false;
  }
  return false;
}

const std::vector<FaultKind>& all_fault_kinds() {
  static const std::vector<FaultKind> kinds = {
      FaultKind::kFsmBitFlip,  FaultKind::kReqStuck0,
      FaultKind::kReqStuck1,   FaultKind::kGrantStuck0,
      FaultKind::kGrantDrop,   FaultKind::kChannelCorrupt,
  };
  return kinds;
}

const std::vector<FaultKind>& permanent_fault_kinds() {
  static const std::vector<FaultKind> kinds = {
      FaultKind::kPermanentStuckChannel,
      FaultKind::kBankFailure,
      FaultKind::kArbiterLatchup,
  };
  return kinds;
}

namespace {

bool kind_applicable(FaultKind k, const FaultTargets& targets) {
  switch (k) {
    case FaultKind::kChannelCorrupt:
    case FaultKind::kPermanentStuckChannel:
      return targets.num_phys_channels > 0;
    case FaultKind::kBankFailure:
      return targets.num_banks > 0;
    case FaultKind::kFsmBitFlip:
    case FaultKind::kReqStuck0:
    case FaultKind::kReqStuck1:
    case FaultKind::kGrantStuck0:
    case FaultKind::kGrantDrop:
    case FaultKind::kArbiterLatchup:
      return !targets.arbiter_ports.empty();
  }
  return false;
}

}  // namespace

std::vector<FaultEvent> plan_faults(const FaultTargets& targets,
                                    const FaultPlanOptions& options) {
  RCARB_CHECK(options.rate >= 0.0, "negative fault rate");
  RCARB_CHECK(options.horizon > 0, "fault horizon must be positive");
  RCARB_CHECK(targets.arbiter_ports.size() == targets.arbiter_state_bits.size(),
              "arbiter shape tables disagree");

  std::vector<FaultKind> kinds;
  for (FaultKind k : options.kinds.empty() ? all_fault_kinds() : options.kinds)
    if (kind_applicable(k, targets)) kinds.push_back(k);
  if (kinds.empty()) return {};

  const auto count = static_cast<std::uint64_t>(
      std::llround(options.rate * static_cast<double>(options.horizon)));
  Rng rng(options.seed);
  std::vector<FaultEvent> events;
  events.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    FaultEvent e;
    e.cycle = rng.next_below(options.horizon);
    e.kind = kinds[rng.next_below(kinds.size())];
    switch (e.kind) {
      case FaultKind::kChannelCorrupt: {
        e.channel = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(targets.num_phys_channels)));
        e.xor_mask = 1ull << rng.next_below(32);  // single-bit SEU
        break;
      }
      case FaultKind::kPermanentStuckChannel: {
        e.channel = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(targets.num_phys_channels)));
        e.duration = 0;  // permanent: never expires
        break;
      }
      case FaultKind::kBankFailure: {
        e.bank = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(targets.num_banks)));
        e.duration = 0;
        break;
      }
      case FaultKind::kArbiterLatchup: {
        e.arbiter = static_cast<int>(rng.next_below(targets.arbiter_ports.size()));
        e.duration = 0;
        break;
      }
      case FaultKind::kFsmBitFlip: {
        e.arbiter = static_cast<int>(rng.next_below(targets.arbiter_ports.size()));
        const int bits =
            targets.arbiter_state_bits[static_cast<std::size_t>(e.arbiter)];
        e.bit = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(std::max(1, bits))));
        break;
      }
      case FaultKind::kReqStuck0:
      case FaultKind::kReqStuck1:
      case FaultKind::kGrantStuck0:
      case FaultKind::kGrantDrop: {
        e.arbiter = static_cast<int>(rng.next_below(targets.arbiter_ports.size()));
        const int ports =
            targets.arbiter_ports[static_cast<std::size_t>(e.arbiter)];
        e.port = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(std::max(1, ports))));
        e.duration =
            e.kind == FaultKind::kGrantDrop ? 1 : options.stuck_duration;
        break;
      }
    }
    events.push_back(e);
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.cycle < b.cycle;
                   });
  return events;
}

}  // namespace rcarb::fault
