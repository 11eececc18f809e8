// Fig. 7 reproduction: N-input arbiter maximum clock speed (MHz) under the
// XC4000e -3 timing model for the paper's three synthesis series.  The
// paper's band runs from ~85 MHz at N=2 down to ~26 MHz at N=10 and notes
// "since 10-bit arbiters clocked at 26 MHz, they did not introduce any
// overhead on the clock speed" of typical ≤25 MHz designs — the reproduced
// claims are the decay shape and that comfortable margin.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <utility>

#include "core/generator.hpp"
#include "obs/bench_report.hpp"
#include "support/table.hpp"
#include "timing/sta.hpp"

namespace {

using rcarb::core::CheckMode;
using rcarb::core::generate_cached;
using rcarb::synth::Encoding;
using rcarb::synth::FlowKind;

void print_fig7(rcarb::obs::BenchReporter& rep) {
  rcarb::Table table(
      "Fig. 7 — N-input arbiter clock speed (MHz), XC4000e-3 model "
      "[paper: ~85 MHz at N=2 decaying to ~26 MHz at N=10]");
  table.set_header({"N", "Express one-hot", "Express compact",
                    "Synplify one-hot", "DMR 1-hot", "TMR 1-hot",
                    "LUT depth (Expr 1-hot)"});
  for (int n = 2; n <= 10; ++n) {
    const auto& eo = generate_cached({.n = n});
    const auto& ec = generate_cached({.n = n, .encoding = Encoding::kCompact});
    const auto& so = generate_cached({.n = n, .flow = FlowKind::kSynplifyLike});
    // Self-checking variants: the comparator / voter sits on the next-state
    // path, so the redundancy's clock cost shows up here, not just in area.
    const auto& dm = generate_cached({.n = n, .check = CheckMode::kDuplicate});
    const auto& tm = generate_cached({.n = n, .check = CheckMode::kTmr});
    table.add_row({std::to_string(n), rcarb::fmt_fixed(eo.chars.fmax_mhz, 1),
                   rcarb::fmt_fixed(ec.chars.fmax_mhz, 1),
                   rcarb::fmt_fixed(so.chars.fmax_mhz, 1),
                   rcarb::fmt_fixed(dm.chars.fmax_mhz, 1),
                   rcarb::fmt_fixed(tm.chars.fmax_mhz, 1),
                   std::to_string(eo.chars.lut_depth)});
    // The whole table is pinned: fmax_<series>_n<N>_mhz.
    for (const auto& [series, g] :
         {std::pair{"onehot", &eo}, std::pair{"compact", &ec},
          std::pair{"synplify", &so}, std::pair{"dmr", &dm},
          std::pair{"tmr", &tm}})
      rep.metric(std::string("fmax_")
                     .append(series)
                     .append("_n")
                     .append(std::to_string(n))
                     .append("_mhz"),
                 g->chars.fmax_mhz, "mhz");
  }
  table.print();
  std::puts(
      "every arbiter stays well above the ~6 MHz FFT design clock: arbiters\n"
      "never limit the system clock (the paper's Sec. 4.2 conclusion) —\n"
      "including the self-checking variants used by the degradation runs.\n");
}

void BM_StaticTimingAnalysis(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto& g = generate_cached({.n = n});
  const auto model = rcarb::timing::xc4000e_speed3();
  for (auto _ : state) {
    auto report = rcarb::timing::analyze(g.synth.netlist, model);
    benchmark::DoNotOptimize(report.fmax_mhz);
  }
}
BENCHMARK(BM_StaticTimingAnalysis)->DenseRange(2, 10, 4);

}  // namespace

int main(int argc, char** argv) {
  rcarb::obs::BenchReporter rep("fig7_speed");
  print_fig7(rep);
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
