#include "core/arbiter_factory.hpp"

#include <array>

#include "core/generator.hpp"
#include "support/check.hpp"

namespace rcarb::core {

ArbiterKind select_arbiter_kind(int n, double timing_budget_mhz,
                                const timing::DelayModel& model) {
  RCARB_CHECK(n >= 1 && n <= kMaxWideInputs,
              "arbiter size must be in [1, kMaxWideInputs]");
  RCARB_CHECK(timing_budget_mhz > 0.0,
              "kind selection needs a timing budget (fmax floor, MHz > 0)");
  std::array<ArbiterKind, 3> candidates = {ArbiterKind::kFlatFsm,
                                           ArbiterKind::kHierarchical,
                                           ArbiterKind::kPrefix};
  const std::size_t first = n <= 64 ? 0 : 1;  // no flat synthesis past 64
  ArbiterKind fastest = candidates[first];
  double fastest_fmax = -1.0;
  for (std::size_t k = first; k < candidates.size(); ++k) {
    const double fmax =
        generate_cached({.n = n, .kind = candidates[k]}, model).chars.fmax_mhz;
    if (fmax >= timing_budget_mhz) return candidates[k];
    if (fmax > fastest_fmax) {
      fastest_fmax = fmax;
      fastest = candidates[k];
    }
  }
  return fastest;
}

SystemArbiter make_system_arbiter(int n, const SystemArbiterSpec& spec) {
  // Kind is a round-robin concept; the other policies have one behavioral
  // model each.
  if (spec.policy != Policy::kRoundRobin)
    return {make_arbiter(spec.policy, n, spec.seed), ArbiterKind::kFlatFsm};
  if (spec.self_check != CheckMode::kNone)
    return {std::make_unique<SelfCheckingArbiter>(n, spec.self_check,
                                                  spec.kind),
            spec.kind};
  // Arity 4, the tree GeneratorSpec (and so the flow) prices.
  return {make_scalable_arbiter(spec.kind, n, /*arity=*/4, spec.harden),
          spec.kind};
}

}  // namespace rcarb::core
