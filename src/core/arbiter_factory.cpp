#include "core/arbiter_factory.hpp"

#include <array>

#include "core/generator.hpp"
#include "support/check.hpp"

namespace rcarb::core {

const char* to_string(ArbiterChoice c) {
  switch (c) {
    case ArbiterChoice::kAuto:
      return "auto";
    case ArbiterChoice::kFlatFsm:
      return "flat";
    case ArbiterChoice::kHierarchical:
      return "hier";
    case ArbiterChoice::kPrefix:
      return "prefix";
  }
  return "?";
}

ArbiterKind select_arbiter_kind(int n, double timing_budget_mhz, int arity,
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
        generate_scalable_cached(candidates[k], n, arity, model).chars.fmax_mhz;
    if (fmax >= timing_budget_mhz) return candidates[k];
    if (fmax > fastest_fmax) {
      fastest_fmax = fmax;
      fastest = candidates[k];
    }
  }
  return fastest;
}

ArbiterKind resolve_arbiter_choice(ArbiterChoice choice, int n,
                                   double timing_budget_mhz, int arity,
                                   const timing::DelayModel& model) {
  switch (choice) {
    case ArbiterChoice::kAuto:
      return select_arbiter_kind(n, timing_budget_mhz, arity, model);
    case ArbiterChoice::kFlatFsm:
      return ArbiterKind::kFlatFsm;
    case ArbiterChoice::kHierarchical:
      return ArbiterKind::kHierarchical;
    case ArbiterChoice::kPrefix:
      return ArbiterKind::kPrefix;
  }
  RCARB_CHECK(false, "unknown arbiter choice");
  return ArbiterKind::kFlatFsm;
}

SystemArbiter make_system_arbiter(int n, const SystemArbiterSpec& spec) {
  SystemArbiter out;
  if (spec.policy != Policy::kRoundRobin) {
    // Kind is a round-robin concept; the other policies have one
    // behavioral model each.
    out.kind = ArbiterKind::kFlatFsm;
    out.arbiter = make_arbiter(spec.policy, n, spec.seed);
    return out;
  }
  out.kind = spec.kind;
  if (spec.self_check != CheckMode::kNone) {
    RCARB_CHECK(spec.kind == ArbiterKind::kFlatFsm,
                "self-checking arbiters are flat-only (the DMR/TMR netlists "
                "replicate the Fig. 5 core)");
    RCARB_CHECK(n <= 64,
                "self-checking arbiters top out at 64 ports (per-copy F/C "
                "state words); shard wider resources or drop self_check");
    auto sc = std::make_unique<SelfCheckingArbiter>(n, spec.self_check,
                                                    spec.rr);
    out.sc = sc.get();
    out.arbiter = std::move(sc);
    return out;
  }
  switch (spec.kind) {
    case ArbiterKind::kFlatFsm: {
      auto rr = std::make_unique<RoundRobinArbiter>(n, spec.rr);
      out.rr = rr.get();
      out.arbiter = std::move(rr);
      break;
    }
    case ArbiterKind::kHierarchical: {
      auto h = std::make_unique<HierarchicalArbiter>(n, spec.arity);
      out.hier = h.get();
      out.arbiter = std::move(h);
      break;
    }
    case ArbiterKind::kPrefix: {
      auto p = std::make_unique<PrefixArbiter>(n);
      out.prefix = p.get();
      out.arbiter = std::move(p);
      break;
    }
  }
  RCARB_CHECK(out.arbiter != nullptr, "unknown arbiter kind");
  return out;
}

}  // namespace rcarb::core
