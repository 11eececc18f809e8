// Encoding & generation-mode ablation (corollary of Figs. 6/7).
//
// Two axes the paper's generator exposes:
//   * FSM encoding — one-hot vs compact (vs gray, added here): register
//     count against next-state logic;
//   * RTL generation — the factored rotating-priority-chain structure
//     (what multi-level commercial synthesis derives; our generator's
//     default) vs raw two-level synthesis of the Fig. 5 case statement
//     (our behavioral flow, quantifying what the factoring is worth).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "core/generator.hpp"
#include "obs/bench_report.hpp"
#include "support/parallel.hpp"
#include "support/table.hpp"

namespace {

using namespace rcarb;
using core::GeneratorMode;
using synth::Encoding;
using synth::FlowKind;

/// Characterization numbers one sweep cell contributes (the generated
/// netlists themselves are discarded — only the table/report numbers
/// travel back to the reducer).
struct EncodingCell {
  core::ArbiterCharacteristics onehot, compact, gray;
};

void print_encodings(obs::BenchReporter& rep) {
  Table table("encoding ablation — area and speed by state encoding "
              "(structural generation, express-like mapping)");
  table.set_header({"N", "one-hot CLBs", "compact CLBs", "gray CLBs",
                    "one-hot MHz", "compact MHz", "gray MHz",
                    "FFs 1-hot/dense"});
  const std::vector<int> sizes = {2, 4, 6, 8, 10};
  // Each cell synthesizes three arbiters from scratch — independent work,
  // mapped across the pool; rows and report metrics land in N order.
  ordered_map_reduce<EncodingCell>(
      sizes.size(),
      [&](std::size_t i) {
        const int n = sizes[i];
        EncodingCell cell;
        cell.onehot = core::generate_cached({.n = n}).chars;
        cell.compact =
            core::generate_cached({.n = n, .encoding = Encoding::kCompact})
                .chars;
        cell.gray =
            core::generate_cached({.n = n, .encoding = Encoding::kGray})
                .chars;
        return cell;
      },
      [&](std::size_t i, EncodingCell cell) {
        const int n = sizes[i];
        table.add_row({std::to_string(n), std::to_string(cell.onehot.clbs),
                       std::to_string(cell.compact.clbs),
                       std::to_string(cell.gray.clbs),
                       fmt_fixed(cell.onehot.fmax_mhz, 1),
                       fmt_fixed(cell.compact.fmax_mhz, 1),
                       fmt_fixed(cell.gray.fmax_mhz, 1),
                       std::to_string(cell.onehot.ffs) + "/" +
                           std::to_string(cell.compact.ffs)});
        if (n == 10) {
          rep.metric("onehot_clbs_n10",
                     static_cast<double>(cell.onehot.clbs), "clbs");
          rep.metric("compact_clbs_n10",
                     static_cast<double>(cell.compact.clbs), "clbs");
          rep.metric("gray_clbs_n10", static_cast<double>(cell.gray.clbs),
                     "clbs");
        }
      });
  table.print();
  std::puts(
      "one-hot spends registers to keep the next-state logic shallow; the\n"
      "dense codes save flip-flops but pay in decode logic and speed — the\n"
      "same trade Figs. 6/7 show between the Express series.\n");

  Table modes("generation ablation — factored chain vs two-level FSM "
              "synthesis (one-hot, express-like)");
  modes.set_header({"N", "structural CLBs", "behavioral CLBs", "ratio",
                    "structural MHz", "behavioral MHz"});
  struct ModeCell {
    core::ArbiterCharacteristics structural, behavioral;
  };
  ordered_map_reduce<ModeCell>(
      sizes.size(),
      [&](std::size_t i) {
        const int n = sizes[i];
        ModeCell cell;
        cell.structural = core::generate_cached({.n = n}).chars;
        cell.behavioral =
            core::generate_cached({.n = n, .mode = GeneratorMode::kBehavioral})
                .chars;
        return cell;
      },
      [&](std::size_t i, ModeCell cell) {
        const int n = sizes[i];
        if (n == 10) {
          rep.metric("structural_clbs_n10",
                     static_cast<double>(cell.structural.clbs), "clbs");
          rep.metric("behavioral_clbs_n10",
                     static_cast<double>(cell.behavioral.clbs), "clbs");
        }
        modes.add_row(
            {std::to_string(n), std::to_string(cell.structural.clbs),
             std::to_string(cell.behavioral.clbs),
             fmt_fixed(static_cast<double>(cell.behavioral.clbs) /
                           static_cast<double>(std::max<std::size_t>(
                               1, cell.structural.clbs)),
                       1) +
                 "x",
             fmt_fixed(cell.structural.fmax_mhz, 1),
             fmt_fixed(cell.behavioral.fmax_mhz, 1)});
      });
  modes.print();
  std::puts(
      "the factored rotating-priority chain is what keeps the paper's\n"
      "arbiters in the tens of CLBs; a plain two-level implementation of\n"
      "the Fig. 5 case statement costs several times the area.  Both are\n"
      "formally equivalent to the behavioral model (see the test suite).\n");
}

void BM_StructuralVsBehavioral(benchmark::State& state) {
  const auto mode = state.range(0) == 0 ? GeneratorMode::kStructural
                                        : GeneratorMode::kBehavioral;
  for (auto _ : state) {
    // Deliberately uncached: this benchmark measures synthesis cost.
    auto g = core::generate({.n = 6, .mode = mode});
    benchmark::DoNotOptimize(g.chars.clbs);
  }
}
BENCHMARK(BM_StructuralVsBehavioral)->Arg(0)->Arg(1);

}  // namespace

int main(int argc, char** argv) {
  rcarb::obs::BenchReporter rep("encoding_ablation");
  print_encodings(rep);
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
