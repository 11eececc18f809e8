#include "fault/service_faults.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace rcarb::fault {

namespace {

bool service_kind(FaultKind k) {
  return k == FaultKind::kFsmBitFlip || k == FaultKind::kArbiterLatchup ||
         k == FaultKind::kBankFailure;
}

}  // namespace

std::vector<FaultEvent> plan_service_faults(
    int resources, int state_bits, const ServiceFaultPlanOptions& options) {
  RCARB_CHECK(resources >= 1, "plan needs at least one resource");
  RCARB_CHECK(state_bits >= 1, "SEUs need a state register to hit");
  RCARB_CHECK(options.rate >= 0.0, "negative fault rate");
  RCARB_CHECK(options.horizon > options.inject_after,
              "fault window is empty (horizon <= inject_after)");
  RCARB_CHECK(!options.kinds.empty(), "no fault kinds to draw from");
  for (const FaultKind k : options.kinds)
    RCARB_CHECK(service_kind(k),
                "kind is not service-injectable (only fsm-bit-flip, "
                "arbiter-latchup and bank-failure target the service shape)");

  const std::uint64_t span = options.horizon - options.inject_after;
  const auto count = static_cast<std::uint64_t>(
      std::llround(options.rate * static_cast<double>(span)));

  // Round-robin the kind assignment so a mixed plan's composition is
  // exact, then count the permanent events per kind for stratification.
  std::vector<FaultEvent> events;
  events.reserve(count);
  std::uint64_t per_kind[2] = {0, 0};  // latchup, bank-failure totals
  for (std::uint64_t i = 0; i < count; ++i) {
    const FaultKind k = options.kinds[i % options.kinds.size()];
    if (k == FaultKind::kArbiterLatchup) ++per_kind[0];
    if (k == FaultKind::kBankFailure) ++per_kind[1];
  }

  Rng rng(options.seed);
  std::uint64_t placed[2] = {0, 0};  // stratification index per kind
  for (std::uint64_t i = 0; i < count; ++i) {
    FaultEvent e;
    e.kind = options.kinds[i % options.kinds.size()];
    switch (e.kind) {
      case FaultKind::kFsmBitFlip: {
        e.cycle = options.inject_after + rng.next_below(span);
        e.arbiter = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(resources)));
        e.bit = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(state_bits)));
        break;
      }
      case FaultKind::kArbiterLatchup:
      case FaultKind::kBankFailure: {
        const std::size_t slot = e.kind == FaultKind::kArbiterLatchup ? 0 : 1;
        const std::uint64_t j = placed[slot]++;
        // Stratified cycle (event j of m lands at (j+1)/(m+1) of the
        // window) and round-robin victim: deterministic coverage.
        e.cycle = options.inject_after + span * (j + 1) / (per_kind[slot] + 1);
        const int victim =
            static_cast<int>(j % static_cast<std::uint64_t>(resources));
        if (e.kind == FaultKind::kArbiterLatchup)
          e.arbiter = victim;
        else
          e.bank = victim;
        e.duration = 0;  // permanent: never expires
        break;
      }
      default:
        RCARB_CHECK(false, "unreachable: kinds were validated");
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
