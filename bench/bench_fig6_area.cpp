// Fig. 6 reproduction: N-input arbiter sizes in CLBs, N = 2..10, for the
// three synthesis series of the paper (FPGA-Express one-hot, FPGA-Express
// compact, Synplify one-hot).  The paper reports ~40 CLBs for the 10-input
// arbiter with one-hot encoding and monotone growth for all series; the
// reproduced claim is that ordering and growth, not the 1998 tools'
// absolute counts.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <utility>

#include "core/generator.hpp"
#include "obs/bench_report.hpp"
#include "support/table.hpp"

namespace {

using rcarb::core::CheckMode;
using rcarb::core::generate;
using rcarb::core::generate_cached;
using rcarb::synth::Encoding;
using rcarb::synth::FlowKind;

void print_fig6(rcarb::obs::BenchReporter& rep) {
  rcarb::Table table(
      "Fig. 6 — N-input arbiter area (CLBs), XC4000e model "
      "[paper: one-hot ~40 CLBs at N=10, all series monotone]");
  table.set_header({"N", "Express one-hot", "Express compact",
                    "Synplify one-hot", "DMR 1-hot", "TMR 1-hot",
                    "LUTs (Expr 1-hot)", "FFs (Expr 1-hot)"});
  for (int n = 2; n <= 10; ++n) {
    const auto& eo = generate_cached({.n = n});
    const auto& ec = generate_cached({.n = n, .encoding = Encoding::kCompact});
    const auto& so = generate_cached({.n = n, .flow = FlowKind::kSynplifyLike});
    // The self-checking variants sit beside the plain series so the
    // degradation campaigns' redundancy is priced on the same axis.
    const auto& dm = generate_cached({.n = n, .check = CheckMode::kDuplicate});
    const auto& tm = generate_cached({.n = n, .check = CheckMode::kTmr});
    table.add_row({std::to_string(n), std::to_string(eo.chars.clbs),
                   std::to_string(ec.chars.clbs),
                   std::to_string(so.chars.clbs),
                   std::to_string(dm.chars.clbs),
                   std::to_string(tm.chars.clbs),
                   std::to_string(eo.chars.luts),
                   std::to_string(eo.chars.ffs)});
    // The whole table is pinned: clbs_<series>_n<N>.
    for (const auto& [series, g] :
         {std::pair{"onehot", &eo}, std::pair{"compact", &ec},
          std::pair{"synplify", &so}, std::pair{"dmr", &dm},
          std::pair{"tmr", &tm}})
      rep.metric(std::string("clbs_")
                     .append(series)
                     .append("_n")
                     .append(std::to_string(n)),
                 static_cast<double>(g->chars.clbs), "clbs");
  }
  table.print();
  std::puts(
      "series shape: Express one-hot, Express compact, DMR and TMR never\n"
      "shrink as N grows; Synplify one-hot dips from N=9 to N=10, where its\n"
      "area-objective mapping finds a tighter cover.  Compact overtakes\n"
      "one-hot once the dense state decode dominates — the Fig. 6\n"
      "crossover.  DMR/TMR pay ~2-3x the plain one-hot area for the error\n"
      "wire and the vote.\n");
}

void BM_GenerateArbiter(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto g = generate({.n = n});
    benchmark::DoNotOptimize(g.chars.clbs);
  }
}
BENCHMARK(BM_GenerateArbiter)->DenseRange(2, 10, 2);

void BM_GenerateArbiterCompact(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto g = generate({.n = n, .encoding = Encoding::kCompact});
    benchmark::DoNotOptimize(g.chars.clbs);
  }
}
BENCHMARK(BM_GenerateArbiterCompact)->DenseRange(2, 10, 4);

}  // namespace

int main(int argc, char** argv) {
  rcarb::obs::BenchReporter rep("fig6_area");
  print_fig6(rep);
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
