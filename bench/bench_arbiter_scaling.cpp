// Arbiter scaling: area and fmax of the flat Fig. 5 FSM versus the
// hierarchical tree-of-arbiters and the Kogge-Stone parallel-prefix
// variants at N = 16..1024, all through the same synthesis -> LUT-map ->
// CLB-pack -> STA flow (core/hier.hpp).  The flat chain's O(N) scan depth
// caps its fmax almost immediately; the claim this bench pins is the
// crossover — the hierarchical arbiter beats the flat FSM's fmax from
// N = 64 up (CI asserts it), with the prefix variant's constant-fanout
// nets taking the top end.  RCARB_SCALING_SMOKE=1 drops the N = 1024
// column for sanitizer jobs.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/generator.hpp"
#include "core/hier.hpp"
#include "netlist/netlist.hpp"
#include "obs/bench_report.hpp"
#include "support/parallel.hpp"
#include "support/table.hpp"
#include "synth/lut_map.hpp"

namespace {

using rcarb::core::ArbiterKind;
using rcarb::core::GeneratedArbiter;
using rcarb::core::generate;

constexpr ArbiterKind kKinds[] = {ArbiterKind::kFlatFsm,
                                  ArbiterKind::kHierarchical,
                                  ArbiterKind::kPrefix};

bool smoke_mode() {
  const char* env = std::getenv("RCARB_SCALING_SMOKE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

std::vector<int> sweep_sizes() {
  std::vector<int> sizes{16, 64, 256};
  if (!smoke_mode()) sizes.push_back(1024);
  return sizes;
}

struct Cell {
  ArbiterKind kind;
  int n;
  std::size_t clbs = 0;
  std::size_t luts = 0;
  std::size_t ffs = 0;
  int lut_depth = 0;
  double fmax_mhz = 0.0;
  double route_ns = 0.0;
  std::size_t max_fanout = 0;
};

void print_scaling(rcarb::obs::BenchReporter& rep) {
  const std::vector<int> sizes = sweep_sizes();
  std::vector<Cell> grid;
  for (const int n : sizes)
    for (const ArbiterKind kind : kKinds) grid.push_back({kind, n});

  // Every cell synthesizes independently and deterministically; the
  // ordered reduction makes the report byte-identical at any RCARB_JOBS.
  rcarb::ordered_map_reduce<Cell>(
      grid.size(),
      [&](std::size_t i) {
        Cell cell = grid[i];
        const GeneratedArbiter g = generate({.n = cell.n, .kind = cell.kind});
        cell.clbs = g.chars.clbs;
        cell.luts = g.chars.luts;
        cell.ffs = g.chars.ffs;
        cell.lut_depth = g.chars.lut_depth;
        cell.fmax_mhz = g.chars.fmax_mhz;
        cell.route_ns = g.timing.reg_to_reg_route_ns;
        cell.max_fanout = g.synth.netlist.max_fanout();
        return cell;
      },
      [&](std::size_t i, Cell cell) { grid[i] = cell; });

  rcarb::Table table(
      "Arbiter scaling — flat Fig. 5 chain vs hierarchical (4-way tree) vs "
      "Kogge-Stone prefix, XC4000e model");
  table.set_header({"N", "CLBs flat", "CLBs hier", "CLBs prefix",
                    "fmax flat", "fmax hier", "fmax prefix", "depth f/h/p",
                    "FFs f/h/p"});
  auto fmt = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f", v);
    return std::string(buf);
  };
  const std::size_t kinds = std::size(kKinds);
  for (std::size_t r = 0; r < sizes.size(); ++r) {
    const Cell& f = grid[r * kinds + 0];
    const Cell& h = grid[r * kinds + 1];
    const Cell& p = grid[r * kinds + 2];
    table.add_row({std::to_string(f.n), std::to_string(f.clbs),
                   std::to_string(h.clbs), std::to_string(p.clbs),
                   fmt(f.fmax_mhz), fmt(h.fmax_mhz), fmt(p.fmax_mhz),
                   std::to_string(f.lut_depth) + "/" +
                       std::to_string(h.lut_depth) + "/" +
                       std::to_string(p.lut_depth),
                   std::to_string(f.ffs) + "/" + std::to_string(h.ffs) + "/" +
                       std::to_string(p.ffs)});
  }
  table.print();

  for (const Cell& cell : grid) {
    const std::string tag =
        std::string(to_string(cell.kind)) + "_n" + std::to_string(cell.n);
    rep.metric("clbs_" + tag, static_cast<double>(cell.clbs), "clbs");
    rep.metric("fmax_" + tag, cell.fmax_mhz, "MHz");
    rep.metric("lut_depth_" + tag, static_cast<double>(cell.lut_depth),
               "levels");
    rep.metric("ffs_" + tag, static_cast<double>(cell.ffs), "ffs");
    rep.metric("route_ns_" + tag, cell.route_ns, "ns");
    rep.metric("max_fanout_" + tag, static_cast<double>(cell.max_fanout),
               "sinks");
  }

  // Headlines: the crossover N and the large-N speedup over the flat chain.
  int crossover = 0;
  for (std::size_t r = 0; r < sizes.size(); ++r) {
    const Cell& f = grid[r * kinds + 0];
    const Cell& h = grid[r * kinds + 1];
    if (h.fmax_mhz > f.fmax_mhz) {
      crossover = f.n;
      break;
    }
  }
  const Cell& flat_top = grid[(sizes.size() - 1) * kinds + 0];
  const Cell& hier_top = grid[(sizes.size() - 1) * kinds + 1];
  const Cell& prefix_top = grid[(sizes.size() - 1) * kinds + 2];
  rep.metric("hier_crossover_n", static_cast<double>(crossover), "ports");
  rep.metric("hier_over_flat_fmax_top",
             flat_top.fmax_mhz > 0.0 ? hier_top.fmax_mhz / flat_top.fmax_mhz
                                     : 0.0,
             "x");
  rep.metric("prefix_over_flat_fmax_top",
             flat_top.fmax_mhz > 0.0
                 ? prefix_top.fmax_mhz / flat_top.fmax_mhz
                 : 0.0,
             "x");
  std::printf(
      "crossover: hierarchical beats the flat chain's fmax from N=%d; at "
      "N=%d it is %.0fx faster (prefix: %.0fx) while the flat chain's "
      "grant scan costs %d LUT levels.\n\n",
      crossover, flat_top.n,
      flat_top.fmax_mhz > 0.0 ? hier_top.fmax_mhz / flat_top.fmax_mhz : 0.0,
      flat_top.fmax_mhz > 0.0 ? prefix_top.fmax_mhz / flat_top.fmax_mhz : 0.0,
      flat_top.lut_depth);
}

void BM_GenerateHierarchical(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto g = generate({.n = n, .kind = ArbiterKind::kHierarchical});
    benchmark::DoNotOptimize(g.chars.clbs);
  }
}
BENCHMARK(BM_GenerateHierarchical)->Arg(64)->Arg(256)->Arg(1024);

void BM_GeneratePrefix(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto g = generate({.n = n, .kind = ArbiterKind::kPrefix});
    benchmark::DoNotOptimize(g.chars.clbs);
  }
}
BENCHMARK(BM_GeneratePrefix)->Arg(64)->Arg(256)->Arg(1024);

// synth::map_aig alone on the kind's AIG (built once, outside the timed
// loop), with the depth objective the generator maps it with; each
// iteration maps into a fresh netlist holding only the input nets.
void BM_MapAig(benchmark::State& state, ArbiterKind kind) {
  const int n = static_cast<int>(state.range(0));
  rcarb::aig::Aig comb;
  switch (kind) {
    case ArbiterKind::kFlatFsm:
      comb = rcarb::core::build_flat_onehot_aig(n);
      break;
    case ArbiterKind::kHierarchical:
      comb = rcarb::core::build_hierarchical_aig(n);
      break;
    case ArbiterKind::kPrefix:
      comb = rcarb::core::build_prefix_aig(n);
      break;
  }
  rcarb::synth::MapOptions options;
  options.objective = rcarb::synth::MapObjective::kDepth;
  std::size_t luts = 0;
  for (auto _ : state) {
    rcarb::netlist::Netlist nl;
    std::vector<rcarb::netlist::NetId> input_nets;
    input_nets.reserve(comb.num_inputs());
    for (std::size_t i = 0; i < comb.num_inputs(); ++i)
      input_nets.push_back(nl.add_input(comb.input_name(i)));
    rcarb::synth::MapStats stats;
    rcarb::synth::map_aig(comb, options, nl, input_nets, "m_", &stats);
    luts += stats.luts;
  }
  benchmark::DoNotOptimize(luts);
}
BENCHMARK_CAPTURE(BM_MapAig, flat, ArbiterKind::kFlatFsm)->Arg(1024);
BENCHMARK_CAPTURE(BM_MapAig, hier, ArbiterKind::kHierarchical)->Arg(1024);
BENCHMARK_CAPTURE(BM_MapAig, prefix, ArbiterKind::kPrefix)->Arg(1024);

// One behavioural step per iteration through core::Arbiter::step, the
// entry point every engine uses: full contention, each winner drops its
// request for exactly one step, so the grant rotates every step.
void BM_BehaviouralStep(benchmark::State& state, ArbiterKind kind) {
  const int n = static_cast<int>(state.range(0));
  const auto arb = rcarb::core::make_scalable_arbiter(kind, n);
  std::vector<std::uint64_t> req(static_cast<std::size_t>((n + 63) / 64),
                                 ~0ull);
  int last = 0;
  rcarb::core::clear_bit(req, last);
  std::uint64_t granted = 0;
  for (auto _ : state) {
    const int g = arb->step(req);
    rcarb::core::set_bit(req, last);
    rcarb::core::clear_bit(req, g);
    last = g;
    granted += static_cast<std::uint64_t>(g);
  }
  benchmark::DoNotOptimize(granted);
}
BENCHMARK_CAPTURE(BM_BehaviouralStep, flat, ArbiterKind::kFlatFsm)
    ->Arg(8)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK_CAPTURE(BM_BehaviouralStep, hier, ArbiterKind::kHierarchical)
    ->Arg(8)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK_CAPTURE(BM_BehaviouralStep, prefix, ArbiterKind::kPrefix)
    ->Arg(8)->Arg(64)->Arg(256)->Arg(1024);

}  // namespace

int main(int argc, char** argv) {
  rcarb::obs::BenchReporter rep("arbiter_scaling");
  print_scaling(rep);
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
