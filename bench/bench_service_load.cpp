// Open-loop service load sweep: offered load from 10% to 300% of measured
// capacity, across the three overload policies of src/service.  The
// robustness claim under test: with bounded queues and early admission
// control, goodput stays at capacity and p99 latency stays bounded no
// matter how far past saturation the offered load goes — while the naive
// block-with-backpressure frontend collapses (its servers grind through a
// deep backlog of requests whose clients timed out long ago, so measured
// goodput falls to ~zero).  Tail-drop sits between the two: goodput holds
// but p99 rides the full queue depth.
//
// Cells run in parallel across $RCARB_JOBS workers; every cell's
// randomness derives from derive_seed(master, cell_index) and the report
// is reduced in cell-index order, so BENCH_service_load.json is
// byte-identical at any job count (CI diffs RCARB_JOBS=1 against 4).
// RCARB_SERVICE_SMOKE=1 shrinks the windows for CI.
// The wide-port sweep drives the same engine at 64/256 (and 1024 outside
// smoke) dispatch ports per resource through all three arbiter structures.
// Per-cycle goodput is structure-invariant (one grant per cycle either
// way); the win is the clock: wall goodput scales each cell by the
// structure's pre-characterized fmax, where the prefix and tree arbiters
// pull decisively ahead of the flat chain's ~1/N decay.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/generator.hpp"
#include "obs/bench_report.hpp"
#include "service/service.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace rcarb;
using service::ArrivalKind;
using service::OverloadPolicy;
using service::ServiceOptions;
using service::ServiceStats;

constexpr std::uint64_t kMasterSeed = 0x5eac1ce5ull;

bool smoke_mode() {
  const char* env = std::getenv("RCARB_SERVICE_SMOKE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/// Baseline configuration of one cell: 4 resources x 8 dispatch ports,
/// 6-cycle service bursts, 32-deep bounded queues, 512-cycle client
/// timeout with a 3-retry budget.
ServiceOptions base_options() {
  ServiceOptions o;
  if (smoke_mode()) {
    o.warmup_cycles = 3'000;
    o.measure_cycles = 6'000;
    // The blocking backlog must still fill (and push sojourns far past the
    // client timeout) inside the shorter window.
    o.block_backlog_factor = 16;
  }
  return o;
}

struct CellSpec {
  OverloadPolicy policy;
  double load;  // fraction of measured capacity
};

ServiceStats run_cell(const CellSpec& spec, double capacity,
                      std::uint64_t cell_index) {
  ServiceOptions o = base_options();
  o.policy = spec.policy;
  o.arrivals.rate = spec.load * capacity;
  o.seed = derive_seed(kMasterSeed, cell_index);
  return service::run_service(o);
}

void print_sweep(obs::BenchReporter& rep) {
  const double capacity = service::measure_capacity(base_options());

  const std::vector<OverloadPolicy> policies = {
      OverloadPolicy::kBlock, OverloadPolicy::kTailDrop,
      OverloadPolicy::kAdmitShed};
  const std::vector<double> loads = {0.1, 0.25, 0.5, 0.75, 0.9, 1.0,
                                     1.25, 1.5, 2.0, 2.5, 3.0};
  std::vector<CellSpec> cells;
  for (const OverloadPolicy p : policies)
    for (const double l : loads) cells.push_back({p, l});

  Table table("Open-loop service: goodput and tail latency vs offered load "
              "(fraction of measured capacity)");
  table.set_header({"policy", "load", "offered/cyc", "goodput/cyc", "p50",
                    "p99", "p999", "timeout", "reject", "shed", "retry",
                    "spent"});

  // Per-policy peak goodput and the 3x-overload cell, for the headline.
  std::vector<double> peak(policies.size(), 0.0);
  std::vector<double> at3x(policies.size(), 0.0);
  std::vector<double> p99_at3x(policies.size(), 0.0);

  ordered_map_reduce<ServiceStats>(
      cells.size(),
      [&](std::size_t i) { return run_cell(cells[i], capacity, i); },
      [&](std::size_t i, ServiceStats s) {
        const CellSpec& c = cells[i];
        const auto pi = static_cast<std::size_t>(
            std::find(policies.begin(), policies.end(), c.policy) -
            policies.begin());
        peak[pi] = std::max(peak[pi], s.goodput());
        if (c.load == 3.0) {
          at3x[pi] = s.goodput();
          p99_at3x[pi] = static_cast<double>(s.latency.percentile(0.99));
        }
        const auto pct = static_cast<int>(c.load * 100.0 + 0.5);
        const std::string tag =
            std::string(to_string(c.policy)) + "_" + std::to_string(pct);
        rep.metric("goodput_" + tag, s.goodput(), "req/cycle");
        rep.metric("p50_" + tag,
                   static_cast<double>(s.latency.percentile(0.50)), "cycles");
        rep.metric("p99_" + tag,
                   static_cast<double>(s.latency.percentile(0.99)), "cycles");
        rep.metric("p999_" + tag,
                   static_cast<double>(s.latency.percentile(0.999)),
                   "cycles");
        table.add_row(
            {to_string(c.policy), fmt_fixed(c.load, 2),
             fmt_fixed(s.offered_rate(), 4), fmt_fixed(s.goodput(), 4),
             std::to_string(s.latency.percentile(0.50)),
             std::to_string(s.latency.percentile(0.99)),
             std::to_string(s.latency.percentile(0.999)),
             std::to_string(s.timed_out), std::to_string(s.rejected),
             std::to_string(s.shed), std::to_string(s.retries),
             std::to_string(s.budget_exhausted)});
      });
  table.print();

  // Arrival-shape demo: the admission-control policy absorbing the same
  // *mean* overload delivered as bursts and as a diurnal ramp.
  Table shapes("Admission control under non-stationary arrivals "
               "(1.5x mean load)");
  shapes.set_header({"arrivals", "offered/cyc", "goodput/cyc", "p99",
                     "p999", "shed"});
  const std::vector<ArrivalKind> kinds = {ArrivalKind::kBursty,
                                          ArrivalKind::kDiurnal};
  ordered_map_reduce<ServiceStats>(
      kinds.size(),
      [&](std::size_t i) {
        ServiceOptions o = base_options();
        o.policy = OverloadPolicy::kAdmitShed;
        o.arrivals.kind = kinds[i];
        o.arrivals.rate = 1.5 * capacity;
        o.seed = derive_seed(kMasterSeed, 1000 + i);
        return service::run_service(o);
      },
      [&](std::size_t i, ServiceStats s) {
        const std::string tag = std::string(to_string(kinds[i])) + "_150";
        rep.metric("goodput_" + tag, s.goodput(), "req/cycle");
        rep.metric("p99_" + tag,
                   static_cast<double>(s.latency.percentile(0.99)), "cycles");
        shapes.add_row({to_string(kinds[i]), fmt_fixed(s.offered_rate(), 4),
                        fmt_fixed(s.goodput(), 4),
                        std::to_string(s.latency.percentile(0.99)),
                        std::to_string(s.latency.percentile(0.999)),
                        std::to_string(s.shed)});
      });
  shapes.print();

  const std::size_t bi = 0, ti = 1, ai = 2;  // policy indices
  const double admit_retention = peak[ai] == 0.0 ? 0.0 : at3x[ai] / peak[ai];
  const double block_retention = peak[bi] == 0.0 ? 0.0 : at3x[bi] / peak[bi];
  rep.metric("capacity", capacity, "req/cycle");
  rep.metric("peak_goodput_block", peak[bi], "req/cycle");
  rep.metric("peak_goodput_tail_drop", peak[ti], "req/cycle");
  rep.metric("peak_goodput_admit_shed", peak[ai], "req/cycle");
  rep.metric("admit_shed_retention_3x", admit_retention, "ratio");
  rep.metric("tail_drop_retention_3x",
             peak[ti] == 0.0 ? 0.0 : at3x[ti] / peak[ti], "ratio");
  rep.metric("block_retention_3x", block_retention, "ratio");
  rep.metric("admit_shed_p99_3x", p99_at3x[ai], "cycles");
  rep.metric("block_p99_3x", p99_at3x[bi], "cycles");
  rep.note("smoke", smoke_mode() ? "1" : "0");
  rep.note("jobs", "RCARB_JOBS-controlled; output is identical at any job "
                   "count");

  std::printf(
      "capacity %.4f req/cycle\n"
      "3x overload retention: admit-shed %.3f (p99<=%.0f), tail-drop %.3f, "
      "block %.3f — admission control %s the >=0.80 headline\n\n",
      capacity, admit_retention, p99_at3x[ai],
      peak[ti] == 0.0 ? 0.0 : at3x[ti] / peak[ti], block_retention,
      admit_retention >= 0.80 ? "meets" : "MISSES");
}

// ------------------------------------------------------- wide-port sweep

constexpr core::ArbiterKind kWideKinds[] = {core::ArbiterKind::kFlatFsm,
                                            core::ArbiterKind::kHierarchical,
                                            core::ArbiterKind::kPrefix};

core::ArbiterChoice to_choice(core::ArbiterKind kind) {
  switch (kind) {
    case core::ArbiterKind::kFlatFsm: return core::ArbiterChoice::kFlatFsm;
    case core::ArbiterKind::kHierarchical:
      return core::ArbiterChoice::kHierarchical;
    case core::ArbiterKind::kPrefix: return core::ArbiterChoice::kPrefix;
  }
  return core::ArbiterChoice::kFlatFsm;
}

void print_wide_sweep(obs::BenchReporter& rep) {
  std::vector<int> widths{64, 256};
  if (!smoke_mode()) widths.push_back(1024);
  const std::vector<double> loads = {0.5, 0.9, 1.2};

  // Pre-characterized fmax per (kind, width), fetched serially up front:
  // the parallel cells below must never race the synthesis memo, and the
  // cells themselves stay pure cycle-level runs.
  std::map<std::pair<int, int>, double> fmax_mhz;
  for (const int n : widths)
    for (const core::ArbiterKind kind : kWideKinds)
      fmax_mhz[{static_cast<int>(kind), n}] =
          core::generate_cached({.n = n, .kind = kind}).chars.fmax_mhz;

  struct WideCell {
    core::ArbiterKind kind;
    int ports;
    double load;  // fraction of the 2 req/cycle two-resource capacity
  };
  std::vector<WideCell> cells;
  for (const int n : widths)
    for (const core::ArbiterKind kind : kWideKinds)
      for (const double l : loads) cells.push_back({kind, n, l});

  Table table("Wide-port service: per-cycle and fmax-scaled goodput by "
              "arbiter structure (2 resources, 1-cycle service)");
  table.set_header({"ports", "kind", "fmax MHz", "load", "goodput/cyc",
                    "wall Mreq/s", "p99", "reject"});

  // wall_goodput at the knee (1.2x) per (kind, width), for the headline
  // and the CI ordering assertion.
  std::map<std::pair<int, int>, double> knee_wall;

  ordered_map_reduce<ServiceStats>(
      cells.size(),
      [&](std::size_t i) {
        const WideCell& c = cells[i];
        ServiceOptions o = base_options();
        o.resources = 2;
        o.ports = c.ports;
        o.service_cycles = 1;
        o.queue_capacity = 32;
        o.policy = OverloadPolicy::kTailDrop;
        o.arbiter_kind = to_choice(c.kind);
        o.arrivals.rate = c.load * 2.0;
        // The seed derives from (width, load) only, so the three kinds of
        // one cell face identical arrival/routing/jitter streams — their
        // per-cycle counters must tie, which CI cross-checks.
        o.seed = derive_seed(kMasterSeed,
                             2000 + static_cast<std::uint64_t>(c.ports) * 8 +
                                 static_cast<std::uint64_t>(c.load * 10.0));
        return service::run_service(o);
      },
      [&](std::size_t i, ServiceStats s) {
        const WideCell& c = cells[i];
        const double fmax = fmax_mhz[{static_cast<int>(c.kind), c.ports}];
        const double wall = s.goodput() * fmax;  // Mreq/s at the arbiter clock
        const auto pct = static_cast<int>(c.load * 100.0 + 0.5);
        if (pct == 120) knee_wall[{static_cast<int>(c.kind), c.ports}] = wall;
        const std::string tag = "wide_" + std::string(to_string(c.kind)) +
                                "_" + std::to_string(c.ports) + "_" +
                                std::to_string(pct);
        rep.metric("goodput_" + tag, s.goodput(), "req/cycle");
        rep.metric("p99_" + tag,
                   static_cast<double>(s.latency.percentile(0.99)), "cycles");
        rep.metric("wall_goodput_" + tag, wall, "Mreq/s");
        table.add_row({std::to_string(c.ports), to_string(c.kind),
                       fmt_fixed(fmax, 1), fmt_fixed(c.load, 2),
                       fmt_fixed(s.goodput(), 4), fmt_fixed(wall, 2),
                       std::to_string(s.latency.percentile(0.99)),
                       std::to_string(s.rejected)});
      });
  table.print();

  for (const int n : widths) {
    const double flat =
        knee_wall[{static_cast<int>(core::ArbiterKind::kFlatFsm), n}];
    const double prefix =
        knee_wall[{static_cast<int>(core::ArbiterKind::kPrefix), n}];
    const double hier =
        knee_wall[{static_cast<int>(core::ArbiterKind::kHierarchical), n}];
    rep.metric("prefix_over_flat_wall_goodput_" + std::to_string(n),
               flat > 0.0 ? prefix / flat : 0.0, "x");
    rep.metric("hier_over_flat_wall_goodput_" + std::to_string(n),
               flat > 0.0 ? hier / flat : 0.0, "x");
    if (n >= 256)
      std::printf("wide %d ports: prefix wall goodput %.2f Mreq/s vs flat "
                  "%.2f — prefix %s the >= flat bar\n",
                  n, prefix, flat, prefix >= flat ? "meets" : "MISSES");
  }
  std::printf("\n");
}

void BM_ServiceCell(benchmark::State& state) {
  const OverloadPolicy policy = state.range(0) == 0
                                    ? OverloadPolicy::kBlock
                                    : OverloadPolicy::kAdmitShed;
  for (auto _ : state) {
    ServiceOptions o;
    o.policy = policy;
    o.warmup_cycles = 1'000;
    o.measure_cycles = 4'000;
    o.arrivals.rate = 1.0;  // 1.5x of the default config's capacity
    benchmark::DoNotOptimize(service::run_service(o));
  }
}
BENCHMARK(BM_ServiceCell)->Arg(0)->Arg(1);

void BM_ArrivalStep(benchmark::State& state) {
  service::ArrivalOptions ao;
  ao.kind = static_cast<ArrivalKind>(state.range(0));
  ao.rate = 0.5;
  service::ArrivalProcess arr(ao, 42);
  for (auto _ : state) benchmark::DoNotOptimize(arr.step());
}
BENCHMARK(BM_ArrivalStep)->Arg(0)->Arg(1)->Arg(2);

}  // namespace

int main(int argc, char** argv) {
  rcarb::obs::BenchReporter rep("service_load");
  print_sweep(rep);
  print_wide_sweep(rep);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  const std::string path = rep.write();
  if (path.empty()) {
    std::fputs("bench report write failed\n", stderr);
    return 1;
  }
  std::printf("bench report: %s\n", path.c_str());
  return 0;
}
