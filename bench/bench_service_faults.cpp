// Fault-tolerant service bench: live fault injection under 1.5x load.
//
// The robustness claim under test: with self-checking arbiters and the
// degrade supervisor, the open-loop service *keeps serving* through
// arbiter latch-ups, SEU storms and resource failures — goodput retention
// stays >= 0.80 of the fault-free baseline and every quarantine drains and
// fails over without losing a request — while the unprotected service
// (plain arbiters, no supervision) collapses below 0.50 retention when
// permanent faults land, because routing keeps feeding resources whose
// frozen arbiters will never grant again.
//
// Grid: {admit-shed, tail-drop} x {none, dmr, tmr} x {fault-free, seu-lo,
// seu-hi, latchup, resource-fail}.  Every cell reports goodput retention
// (vs the same policy+mode fault-free cell), availability, MTTR and p99;
// the latch-up scenario places its three permanent events in the first
// half of the measured window (stratified by fault::plan_service_faults)
// so the unprotected baseline pays for the dead resources across most of
// the measurement.  After that grid, TMR cells for the hierarchical and
// prefix arbiters at 256 ports (admit-shed x {fault-free, seu-hi,
// latchup}) show self-checking at the scalable kinds; they report per
// cell only and feed none of the grid's aggregates.
//
// Cells run in parallel across $RCARB_JOBS workers; every cell's
// randomness derives from derive_seed(master, cell_index) and the report
// is reduced in cell-index order, so BENCH_service_faults.json is
// byte-identical at any job count (CI diffs RCARB_JOBS=1 against 4).
// RCARB_SERVICE_SMOKE=1 shrinks the windows for CI.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "degrade/degrade.hpp"
#include "fault/service_faults.hpp"
#include "obs/bench_report.hpp"
#include "service/service.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace rcarb;
using service::OverloadPolicy;
using service::ServiceOptions;
using service::ServiceStats;

constexpr std::uint64_t kMasterSeed = 0x5eacfa17ull;

bool smoke_mode() {
  const char* env = std::getenv("RCARB_SERVICE_SMOKE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

enum class Mode { kNone, kDmr, kTmr };
enum class Scenario { kFaultFree, kSeuLo, kSeuHi, kLatchup, kResourceFail };

const char* to_string(Mode m) {
  switch (m) {
    case Mode::kNone: return "none";
    case Mode::kDmr: return "dmr";
    case Mode::kTmr: return "tmr";
  }
  return "?";
}

const char* to_string(Scenario s) {
  switch (s) {
    case Scenario::kFaultFree: return "fault_free";
    case Scenario::kSeuLo: return "seu_lo";
    case Scenario::kSeuHi: return "seu_hi";
    case Scenario::kLatchup: return "latchup";
    case Scenario::kResourceFail: return "resource_fail";
  }
  return "?";
}

core::CheckMode check_mode(Mode m) {
  switch (m) {
    case Mode::kNone: return core::CheckMode::kNone;
    case Mode::kDmr: return core::CheckMode::kDuplicate;
    case Mode::kTmr: return core::CheckMode::kTmr;
  }
  return core::CheckMode::kNone;
}

/// Port count of the scalable-kind TMR cells.
constexpr int kWidePorts = 256;

/// Register bits of one resource's arbiter (copies included): the SEU
/// range of the fault plan.
int register_bits(const ServiceOptions& o) {
  return core::make_system_arbiter(o.ports, {.kind = o.arbiter_kind,
                                             .self_check = o.self_check})
      .arbiter->num_state_bits();
}

/// 4 resources x 8 flat-arbitrated ports, 6-cycle service — the
/// bench_service_load baseline, with the fault-tolerance switches layered
/// per mode.
ServiceOptions base_options() {
  ServiceOptions o;
  if (smoke_mode()) {
    o.warmup_cycles = 3'000;
    o.measure_cycles = 6'000;
  }
  return o;
}

std::vector<fault::FaultEvent> plan_for(Scenario sc,
                                        const ServiceOptions& o) {
  if (sc == Scenario::kFaultFree) return {};
  fault::ServiceFaultPlanOptions p;
  p.seed = derive_seed(kMasterSeed, 9000 + static_cast<std::uint64_t>(sc));
  p.inject_after = o.warmup_cycles;
  switch (sc) {
    case Scenario::kSeuLo:
    case Scenario::kSeuHi:
      // Transient upsets across the whole measured window.
      p.horizon = o.warmup_cycles + o.measure_cycles;
      p.rate = sc == Scenario::kSeuLo ? 1e-4 : 1e-3;
      p.kinds = {fault::FaultKind::kFsmBitFlip};
      break;
    case Scenario::kLatchup:
      // Three permanent latch-ups, stratified across the first *half* of
      // the measured window (horizon = warmup + measure/2), so most of
      // the measurement runs with dead arbiters unless somebody repairs.
      p.horizon = o.warmup_cycles + o.measure_cycles / 2;
      p.rate = 3.0 / static_cast<double>(p.horizon - p.inject_after);
      p.kinds = {fault::FaultKind::kArbiterLatchup};
      break;
    case Scenario::kResourceFail:
      p.horizon = o.warmup_cycles + o.measure_cycles / 2;
      p.rate = 1.0 / static_cast<double>(p.horizon - p.inject_after);
      p.kinds = {fault::FaultKind::kBankFailure};
      break;
    case Scenario::kFaultFree:
      break;
  }
  return fault::plan_service_faults(o.resources, register_bits(o), p);
}

struct CellSpec {
  OverloadPolicy policy;
  Mode mode;
  Scenario scenario;
  /// kFlatFsm: the base grid.  Otherwise a scalable-kind cell at
  /// kWidePorts ports.
  core::ArbiterKind kind = core::ArbiterKind::kFlatFsm;
};

bool wide(const CellSpec& c) { return c.kind != core::ArbiterKind::kFlatFsm; }

/// Policy and mode, plus the kind and width of a scalable-kind cell: the
/// cells that share one fault-free goodput reference.
std::string group_tag(const CellSpec& c) {
  std::string tag = to_string(c.policy);
  for (char& ch : tag)
    if (ch == '-') ch = '_';
  tag.append("_").append(to_string(c.mode));
  if (wide(c))
    tag.append("_").append(core::to_string(c.kind)).append(
        std::to_string(kWidePorts));
  return tag;
}

std::string cell_tag(const CellSpec& c) {
  return group_tag(c) + "_" + to_string(c.scenario);
}

/// The cell's service before load and faults: the base options, widened
/// to kWidePorts ports of the cell's kind for a scalable-kind cell.
ServiceOptions cell_options(const CellSpec& spec) {
  ServiceOptions o = base_options();
  if (wide(spec)) {
    o.ports = kWidePorts;
    o.arbiter_kind = spec.kind;
  }
  return o;
}

ServiceStats run_cell(const CellSpec& spec, double capacity,
                      std::uint64_t cell_index) {
  ServiceOptions o = cell_options(spec);
  o.policy = spec.policy;
  o.arrivals.rate = 1.5 * capacity;
  o.self_check = check_mode(spec.mode);
  o.degrade.enabled = spec.mode != Mode::kNone;
  o.faults = plan_for(spec.scenario, o);
  o.seed = derive_seed(kMasterSeed, cell_index);
  return service::run_service(o);
}

bool conserved(const ServiceStats& s) {
  return s.in_flight_at_start + s.offered ==
         s.completed + s.timed_out + s.budget_exhausted + s.in_flight_at_end;
}

/// Prints the grid and records metrics; returns true when every headline
/// bar and invariant held.
bool print_grid(obs::BenchReporter& rep) {
  const double capacity = service::measure_capacity(base_options());

  // The supervisor prices reconfiguration off the process-wide synthesis
  // memo; warm it serially for every mode so the parallel cells below
  // never race it.
  {
    degrade::DegradeOptions d;
    const ServiceOptions o = base_options();
    for (const Mode m : {Mode::kNone, Mode::kDmr, Mode::kTmr})
      (void)degrade::arbiter_reconfig_cycles(d, o.ports, check_mode(m));
    (void)degrade::arbiter_reconfig_cycles(d, kWidePorts,
                                           core::CheckMode::kTmr);
  }

  const std::vector<OverloadPolicy> policies = {OverloadPolicy::kAdmitShed,
                                                OverloadPolicy::kTailDrop};
  const std::vector<Mode> modes = {Mode::kNone, Mode::kDmr, Mode::kTmr};
  const std::vector<Scenario> scenarios = {
      Scenario::kFaultFree, Scenario::kSeuLo, Scenario::kSeuHi,
      Scenario::kLatchup, Scenario::kResourceFail};

  // Fault-free cells first so the ordered reducer has every retention
  // denominator before the faulted cells of the same policy+mode arrive.
  std::vector<CellSpec> cells;
  for (const OverloadPolicy p : policies)
    for (const Mode m : modes) cells.push_back({p, m, Scenario::kFaultFree});
  for (const OverloadPolicy p : policies)
    for (const Mode m : modes)
      for (const Scenario sc : scenarios)
        if (sc != Scenario::kFaultFree) cells.push_back({p, m, sc});
  // The scalable-kind TMR cells, appended so every grid cell above keeps
  // its index (and seed); each kind's fault-free reference comes first.
  const std::vector<core::ArbiterKind> wide_kinds = {
      core::ArbiterKind::kHierarchical, core::ArbiterKind::kPrefix};
  std::vector<double> wide_capacity;
  for (const core::ArbiterKind k : wide_kinds) {
    wide_capacity.push_back(service::measure_capacity(cell_options(
        {OverloadPolicy::kAdmitShed, Mode::kTmr, Scenario::kFaultFree, k})));
    for (const Scenario sc :
         {Scenario::kFaultFree, Scenario::kSeuHi, Scenario::kLatchup})
      cells.push_back({OverloadPolicy::kAdmitShed, Mode::kTmr, sc, k});
  }
  const auto capacity_of = [&](const CellSpec& c) {
    for (std::size_t k = 0; k < wide_kinds.size(); ++k)
      if (c.kind == wide_kinds[k]) return wide_capacity[k];
    return capacity;
  };

  Table table("Fault-tolerant service at 1.5x load: goodput retention, "
              "availability and repair by protection mode");
  table.set_header({"policy", "mode", "scenario", "goodput/cyc", "retention",
                    "avail", "mttr", "p99", "err", "resync", "quar", "rest",
                    "retd", "corrupt", "consv"});

  std::vector<std::pair<std::string, double>> ref_goodput;  // group_tag
  const auto ref_of = [&](const CellSpec& c) {
    const std::string key = group_tag(c);
    for (const auto& [k, v] : ref_goodput)
      if (k == key) return v;
    return 0.0;
  };

  bool all_conserved = true;
  bool protected_clean = true;  // no corruption past a DMR/TMR wrapper
  double retention_none_latchup = 1.0;
  double retention_tmr_latchup = 0.0;
  double retention_dmr_latchup = 0.0;

  ordered_map_reduce<ServiceStats>(
      cells.size(),
      [&](std::size_t i) {
        return run_cell(cells[i], capacity_of(cells[i]), i);
      },
      [&](std::size_t i, ServiceStats s) {
        const CellSpec& c = cells[i];
        if (c.scenario == Scenario::kFaultFree)
          ref_goodput.emplace_back(group_tag(c), s.goodput());
        const double ref = ref_of(c);
        const double retention = ref == 0.0 ? 0.0 : s.goodput() / ref;
        const bool ok = conserved(s);
        if (!wide(c)) all_conserved = all_conserved && ok;
        if (!wide(c) && c.mode != Mode::kNone &&
            (s.corrupted != 0 || s.multi_grants != 0))
          protected_clean = false;
        if (!wide(c) && c.policy == OverloadPolicy::kAdmitShed &&
            c.scenario == Scenario::kLatchup) {
          if (c.mode == Mode::kNone) retention_none_latchup = retention;
          if (c.mode == Mode::kDmr) retention_dmr_latchup = retention;
          if (c.mode == Mode::kTmr) retention_tmr_latchup = retention;
        }
        const std::string tag = cell_tag(c);
        rep.metric("goodput_" + tag, s.goodput(), "req/cycle");
        rep.metric("retention_" + tag, retention, "ratio");
        rep.metric("availability_" + tag, s.availability(), "ratio");
        rep.metric("mttr_" + tag, s.mttr_cycles(), "cycles");
        rep.metric("p99_" + tag,
                   static_cast<double>(s.latency.percentile(0.99)), "cycles");
        rep.metric("conservation_" + tag, ok ? 1.0 : 0.0, "bool");
        std::string mode = to_string(c.mode);
        if (wide(c))
          mode.append("/").append(core::to_string(c.kind)).append(
              std::to_string(kWidePorts));
        table.add_row(
            {to_string(c.policy), mode, to_string(c.scenario),
             fmt_fixed(s.goodput(), 4), fmt_fixed(retention, 3),
             fmt_fixed(s.availability(), 3), fmt_fixed(s.mttr_cycles(), 0),
             std::to_string(s.latency.percentile(0.99)),
             std::to_string(s.error_net_trips), std::to_string(s.resyncs),
             std::to_string(s.quarantines), std::to_string(s.restored),
             std::to_string(s.retired), std::to_string(s.corrupted),
             ok ? "ok" : "LOST"});
      });
  table.print();

  rep.metric("capacity", capacity, "req/cycle");
  rep.metric("retention_floor_latchup_tmr", retention_tmr_latchup, "ratio");
  rep.metric("retention_ceiling_latchup_none", retention_none_latchup,
             "ratio");
  rep.metric("conservation_ok", all_conserved ? 1.0 : 0.0, "bool");
  rep.metric("protected_clean", protected_clean ? 1.0 : 0.0, "bool");
  rep.note("smoke", smoke_mode() ? "1" : "0");
  rep.note("jobs", "RCARB_JOBS-controlled; output is identical at any job "
                   "count");

  const bool tmr_ok = retention_tmr_latchup >= 0.80;
  const bool none_ok = retention_none_latchup < 0.50;
  std::printf(
      "capacity %.4f req/cycle\n"
      "latch-up at 1.5x (admit-shed): tmr retention %.3f (%s >=0.80), "
      "dmr %.3f, unprotected %.3f (%s <0.50)\n"
      "conservation %s, protected modes %s\n\n",
      capacity, retention_tmr_latchup, tmr_ok ? "meets" : "MISSES",
      retention_dmr_latchup, retention_none_latchup,
      none_ok ? "meets" : "MISSES",
      all_conserved ? "holds in every cell" : "VIOLATED",
      protected_clean ? "saw zero corrupted completions"
                      : "LEAKED CORRUPTION");
  return tmr_ok && none_ok && all_conserved && protected_clean;
}

void BM_FaultedServiceCell(benchmark::State& state) {
  const Mode mode = state.range(0) == 0   ? Mode::kNone
                    : state.range(0) == 1 ? Mode::kDmr
                                          : Mode::kTmr;
  for (auto _ : state) {
    ServiceOptions o;
    o.warmup_cycles = 1'000;
    o.measure_cycles = 4'000;
    o.arrivals.rate = 1.0;
    o.self_check = check_mode(mode);
    o.degrade.enabled = mode != Mode::kNone;
    o.faults = plan_for(Scenario::kLatchup, o);
    benchmark::DoNotOptimize(service::run_service(o));
  }
}
BENCHMARK(BM_FaultedServiceCell)->Arg(0)->Arg(1)->Arg(2);

}  // namespace

int main(int argc, char** argv) {
  rcarb::obs::BenchReporter rep("service_faults");
  const bool ok = print_grid(rep);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  const std::string path = rep.write();
  if (path.empty()) {
    std::fputs("bench report write failed\n", stderr);
    return 1;
  }
  std::printf("bench report: %s\n", path.c_str());
  if (!ok) {
    std::fputs("service fault-tolerance headline MISSED\n", stderr);
    return 1;
  }
  return 0;
}
