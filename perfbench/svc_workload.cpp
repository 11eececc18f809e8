// svc_narrow and svc_wide: the open-loop service (service::run_service)
// with 6-cycle service, 32-deep queues, admit-shed, default retries and
// Poisson arrivals at 1.5x capacity.  svc_narrow runs R = 4 resources x 8
// dispatch ports (1.0 request/cycle), svc_wide R = 1 resource x 1024 ports
// (0.25 request/cycle).  svc_wide keeps to one resource because four
// resources of 1024 ports each stream enough slot state per cycle that a
// neighbour on the same core or cache slowed it 1.7x where the host-speed
// reference slowed 1.3x; its runs then spread 15-18% against 5-6% with one
// resource.  Set-up resolves the arbiter structure from an fmax budget by
// synthesizing the candidates.
#include <cstdio>

#include "bench.hpp"
#include "core/arbiter_factory.hpp"
#include "core/generator.hpp"
#include "service/service.hpp"
#include "support/rng.hpp"
#include "synth/flow.hpp"
#include "timing/sta.hpp"

namespace perfbench {
namespace {

using namespace rcarb;

/// run_service calls in one pass.  The first pass is what the modelled
/// metrics describe; later passes repeat it and must reproduce it.
constexpr std::size_t kCallsPerPass = 8;

struct KindSpans {
  const char* label;
  const char* aig;
  const char* map;
  const char* sta;
};

KindSpans spans_of(core::ArbiterKind kind) {
  switch (kind) {
    case core::ArbiterKind::kFlatFsm:
      return {"flat", "aig.build.flat", "synth.map_pack.flat",
              "timing.sta.flat"};
    case core::ArbiterKind::kHierarchical:
      return {"hier", "aig.build.hier", "synth.map_pack.hier",
              "timing.sta.hier"};
    case core::ArbiterKind::kPrefix:
      break;
  }
  return {"prefix", "aig.build.prefix", "synth.map_pack.prefix",
          "timing.sta.prefix"};
}

core::ArbiterChoice choice_of(core::ArbiterKind kind) {
  switch (kind) {
    case core::ArbiterKind::kFlatFsm:
      return core::ArbiterChoice::kFlatFsm;
    case core::ArbiterKind::kHierarchical:
      return core::ArbiterChoice::kHierarchical;
    case core::ArbiterKind::kPrefix:
      break;
  }
  return core::ArbiterChoice::kPrefix;
}

struct Candidate {
  core::ArbiterKind kind;
  std::size_t luts = 0;
  double fmax_mhz = 0.0;
};

/// generate_scalable step by step (AIG, map + pack, STA), so each step is a
/// span of its own.
Candidate synthesize_candidate(core::ArbiterKind kind, int n,
                               Tracer& tracer) {
  constexpr int kArity = 4;
  const KindSpans names = spans_of(kind);
  aig::Aig comb;
  int state_bits = 0;
  {
    const Scope span(tracer, names.aig);
    switch (kind) {
      case core::ArbiterKind::kFlatFsm:
        comb = core::build_flat_onehot_aig(n);
        state_bits = 2 * n;
        break;
      case core::ArbiterKind::kHierarchical:
        comb = core::build_hierarchical_aig(n, kArity);
        state_bits = core::make_hier_shape(n, kArity).num_state_bits();
        break;
      case core::ArbiterKind::kPrefix:
        comb = core::build_prefix_aig(n);
        state_bits = n;
        break;
    }
  }
  synth::SynthResult synth;
  {
    const Scope span(tracer, names.map);
    synth::MapOptions map_options;
    map_options.objective = synth::MapObjective::kDepth;
    synth = synth::finish_machine_synthesis(
        comb, n, state_bits, core::scalable_reset_bits(kind, n, kArity),
        map_options);
  }
  const Scope span(tracer, names.sta);
  const timing::TimingReport timing =
      timing::analyze(synth.netlist, timing::xc4000e_speed3());
  return {kind, synth.clb.luts, timing.fmax_mhz};
}

/// select_arbiter_kind's rule over directly synthesized candidates: the
/// first kind in area order (flat only up to 64 ports) whose fmax meets the
/// budget, else the fastest.  The chosen kind is the last candidate when
/// one met the budget.
std::vector<Candidate> select_directly(int n, double budget_mhz,
                                       Tracer& tracer,
                                       core::ArbiterKind& chosen) {
  std::vector<Candidate> tried;
  const core::ArbiterKind order[] = {core::ArbiterKind::kFlatFsm,
                                     core::ArbiterKind::kHierarchical,
                                     core::ArbiterKind::kPrefix};
  const Candidate* fastest = nullptr;
  for (const core::ArbiterKind kind : order) {
    if (kind == core::ArbiterKind::kFlatFsm && n > 64) continue;
    tried.push_back(synthesize_candidate(kind, n, tracer));
    if (tried.back().fmax_mhz >= budget_mhz) {
      chosen = kind;
      return tried;
    }
  }
  for (const Candidate& c : tried)
    if (fastest == nullptr || c.fmax_mhz > fastest->fmax_mhz) fastest = &c;
  chosen = fastest->kind;
  return tried;
}

service::ServiceOptions call_options(int resources, int ports,
                                     core::ArbiterKind kind,
                                     std::uint64_t seed) {
  service::ServiceOptions o;
  o.resources = resources;
  o.ports = ports;
  o.service_cycles = 6;
  o.queue_capacity = 32;
  o.policy = service::OverloadPolicy::kAdmitShed;
  o.arbiter_kind = choice_of(kind);
  o.arrivals.kind = service::ArrivalKind::kPoisson;
  // 1.5x the service capacity of resources / service_cycles per cycle.
  o.arrivals.rate = 1.5 * resources / o.service_cycles;
  o.seed = seed;
  return o;
}

/// The modelled outcome of one call; a repeat of the call must match it.
struct Fingerprint {
  std::uint64_t offered, completed, timed_out, rejected, shed, retries,
      budget_exhausted, latency_sum, latency_p99;
  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

Fingerprint fingerprint(const service::ServiceStats& s) {
  return {s.offered,          s.completed,   s.timed_out,
          s.rejected,         s.shed,        s.retries,
          s.budget_exhausted, s.latency.sum(), s.latency.percentile(0.99)};
}

/// Request conservation and the N-1 turn bound on every arbiter.
bool invariants_hold(const service::ServiceStats& s) {
  if (s.in_flight_at_start + s.offered !=
      s.completed + s.timed_out + s.budget_exhausted + s.in_flight_at_end)
    return false;
  for (const service::ResourceStats& r : s.per_resource)
    if (!r.arbiter.within_n_minus_1_bound()) return false;
  return true;
}

void record_modelled(const std::vector<service::ServiceStats>& pass,
                     Outcome& out) {
  obs::Histogram latency, queue_depth, grant_latency;
  std::uint64_t cycles = 0, offered = 0, completed = 0, shed = 0,
                rejected = 0, retries = 0, timed_out = 0, exhausted = 0;
  for (const service::ServiceStats& s : pass) {
    latency.merge(s.latency);
    queue_depth.merge(s.queue_depth);
    for (const service::ResourceStats& r : s.per_resource)
      grant_latency.merge(r.arbiter.grant_latency);
    cycles += s.cycles;
    offered += s.offered;
    completed += s.completed;
    shed += s.shed;
    rejected += s.rejected;
    retries += s.retries;
    timed_out += s.timed_out;
    exhausted += s.budget_exhausted;
  }
  auto& m = out.metrics;
  m["service.offered"] = static_cast<double>(offered);
  m["service.completed"] = static_cast<double>(completed);
  m["service.shed"] = static_cast<double>(shed);
  m["service.rejected"] = static_cast<double>(rejected);
  m["service.retries"] = static_cast<double>(retries);
  m["service.timed_out"] = static_cast<double>(timed_out);
  m["service.budget_exhausted"] = static_cast<double>(exhausted);
  m["service.queue_depth_p99"] =
      static_cast<double>(queue_depth.percentile(0.99));
  m["core.arbiter.grant_latency_p99"] =
      static_cast<double>(grant_latency.percentile(0.99));
  m["service.attempts_per_completion"] =
      static_cast<double>(offered + retries) / static_cast<double>(completed);
  m["goodput_per_cycle"] =
      static_cast<double>(completed) / static_cast<double>(cycles);
  m["p99_latency_cycles"] = static_cast<double>(latency.percentile(0.99));
  m["fail_share"] = static_cast<double>(timed_out + exhausted) /
                    static_cast<double>(offered);
}

Outcome run_svc(const Args& args, Tracer& tracer, int resources, int ports,
                double budget_mhz) {
  Outcome out;

  // ---- Set-up: kind selection and the seeded call list. ----
  tracer.set_enabled(args.trace);
  core::ArbiterKind library_kind;
  {
    const Scope span(tracer, "core.select_kind");
    library_kind = core::select_arbiter_kind(ports, budget_mhz);
  }
  tracer.set_enabled(false);
  std::vector<Candidate> candidates;
  core::ArbiterKind kind = library_kind;
  std::vector<service::ServiceOptions> calls;
  Measurement measurement(args, tracer, [&] {
    const Scope span(tracer, "setup");
    candidates = select_directly(ports, budget_mhz, tracer, kind);
    calls.clear();
    for (std::size_t k = 0; k < kCallsPerPass; ++k)
      calls.push_back(
          call_options(resources, ports, kind, derive_seed(args.seed, k)));
  });

  out.check(kind == library_kind,
            "direct kind selection disagrees with select_arbiter_kind");
  std::string tried;
  for (const Candidate& c : candidates) {
    const KindSpans names = spans_of(c.kind);
    const core::ArbiterCharacteristics& ref =
        core::generate_scalable_cached(c.kind, ports).chars;
    out.check(c.luts == ref.luts && c.fmax_mhz == ref.fmax_mhz,
              std::string("direct synthesis of ") + names.label +
                  " differs from generate_scalable");
    out.metrics[std::string("synth.luts.") + names.label] =
        static_cast<double>(c.luts);
    char line[96];
    std::snprintf(line, sizeof line, " %s %.2f MHz %zu LUTs", names.label,
                  c.fmax_mhz, c.luts);
    tried += line;
  }
  out.notes.push_back("arbiter kind " + std::string(core::to_string(kind)) +
                      " from a " + std::to_string(budget_mhz) +
                      " MHz budget; candidates:" + tried);

  // ---- Timed loop: the call list, pass after pass. ----
  const double engine_cycles = static_cast<double>(
      calls.front().warmup_cycles + calls.front().measure_cycles);
  std::vector<service::ServiceStats> pass;
  std::vector<double> traced_attempts;
  measurement.run(kCallsPerPass, [&](std::size_t i) {
    const std::size_t k = i % kCallsPerPass;
    service::ServiceStats stats;
    {
      const Scope span(tracer, "service.run_service");
      stats = service::run_service(calls[k]);
    }
    const bool repeat_ok =
        i < kCallsPerPass || fingerprint(stats) == fingerprint(pass[k]);
    out.check(invariants_hold(stats) && repeat_ok,
              "run_service call " + std::to_string(i) +
                  (repeat_ok ? " broke conservation or the N-1 bound"
                             : " did not reproduce its first run"));
    if (tracer.enabled())
      traced_attempts.push_back(
          static_cast<double>(stats.offered + stats.retries));
    const auto completed = static_cast<double>(stats.completed);
    if (i < kCallsPerPass) pass.push_back(std::move(stats));
    return ChunkWork{engine_cycles, completed};
  });
  measurement.record(out);
  record_modelled(pass, out);

  // ---- Per-layer host time from the spans. ----
  out.metrics["core.select_kind_s"] =
      median(tracer.durations("core.select_kind"));
  for (const Candidate& c : candidates) {
    const KindSpans names = spans_of(c.kind);
    const std::string label = names.label;
    out.metrics["aig.build_s." + label] = median(tracer.durations(names.aig));
    out.metrics["synth.map_pack_s." + label] =
        median(tracer.durations(names.map));
    out.metrics["timing.sta_s." + label] = median(tracer.durations(names.sta));
  }
  const std::vector<double> runs = tracer.durations("service.run_service");
  std::vector<double> per_attempt;
  for (std::size_t j = 0; j < runs.size(); ++j)
    per_attempt.push_back(runs[j] / traced_attempts[j] * 1e9);
  out.metrics["service.run_s"] = median(runs);
  out.metrics["service.ns_per_cycle"] = median(runs) / engine_cycles * 1e9;
  out.metrics["service.ns_per_attempt"] = median(per_attempt);
  return out;
}

}  // namespace

Outcome run_svc_narrow(const Args& args, Tracer& tracer) {
  // A 20 MHz floor, which the flat 8-port chain meets.
  return run_svc(args, tracer, 4, 8, 20.0);
}

Outcome run_svc_wide(const Args& args, Tracer& tracer) {
  // A 5 MHz floor, which only the prefix structure meets at 1024 ports.
  return run_svc(args, tracer, 1, 1024, 5.0);
}

}  // namespace perfbench
