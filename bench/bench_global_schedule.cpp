// Alternative-to-arbitration baseline (Sec. 2.2): global static scheduling.
// "Global scheduling of the design is feasible but it requires a
// complicated controller model and it prohibits real parallelism in the
// execution when processes contain unpredictable loops and conditionals."
//
// Two tasks with data-dependent trip counts share one memory bank.  A
// global static schedule must lay out every access at compile time, so it
// (a) assumes the worst-case trip count for both tasks and (b) cannot let
// their accesses interleave (a conflict must be impossible for *every*
// input).  Its length is therefore the sum of the worst-case solo runs.
// The arbitrated design simply runs both tasks and resolves the actual
// conflicts as they happen.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdio>

#include "core/insertion.hpp"
#include "obs/bench_report.hpp"
#include "rcsim/system_sim.hpp"
#include "support/table.hpp"

namespace {

using namespace rcarb;

constexpr std::int64_t kWorstTrip = 24;

struct Scenario {
  tg::TaskGraph graph{"globalsched"};
  core::Binding binding;
  tg::SegmentId data = 0;
};

/// Two tasks; task i reads its trip count from data[i] and then performs
/// that many stores into its half of the shared bank.
Scenario build() {
  Scenario s;
  s.data = s.graph.add_segment("DATA", 512, 64);
  for (int i = 0; i < 2; ++i) {
    tg::Program p;
    p.load_imm(0, 0)
        .load(1, static_cast<int>(s.data), 0, i)  // trip count (data!)
        .load_imm(2, 32 * i)                      // write base
        .loop_begin_var(1)
        .store(static_cast<int>(s.data), 2, 1, 8)
        .add_imm(2, 2, 1)
        .loop_end()
        .halt();
    s.graph.add_task(std::string("t").append(std::to_string(i)), p, 10);
  }
  s.binding.task_to_pe = {0, 1};
  s.binding.segment_to_bank = {0};
  s.binding.num_banks = 1;
  s.binding.bank_names = {"MEM"};
  return s;
}

/// Solo run with a given trip count (used for the static-schedule length).
std::uint64_t solo_cycles(std::int64_t trip) {
  Scenario s = build();
  rcsim::SystemSimulator* sim;
  core::ArbitrationPlan empty;
  empty.arbiters_of_resource.assign(1, {});
  rcsim::SystemSimulator solo(s.graph, s.binding, empty);
  sim = &solo;
  sim->write_segment(s.data, {trip, trip});
  return sim->run({0}).cycles;
}

std::uint64_t arbitrated_cycles(std::int64_t trip_a, std::int64_t trip_b) {
  Scenario s = build();
  const auto ins = core::insert_arbitration(s.graph, s.binding, {});
  rcsim::SystemSimulator sim(ins.graph, s.binding, ins.plan);
  sim.write_segment(s.data, {trip_a, trip_b});
  return sim.run({0, 1}).cycles;
}

void print_comparison(obs::BenchReporter& rep) {
  // A global static schedule is fixed at synthesis time: both tasks get
  // their worst-case windows, laid end to end (no interleaving can be
  // proven safe when the trip counts are unknown).
  const std::uint64_t static_len = 2 * solo_cycles(kWorstTrip);

  Table table(
      "global static scheduling vs arbitration — two tasks, one bank, "
      "data-dependent trip counts (worst case 24) [paper Sec. 2.2]");
  table.set_header({"actual trips (a, b)", "static schedule", "arbitrated",
                    "speedup"});
  const std::array<std::pair<std::int64_t, std::int64_t>, 4> cases{
      {{24, 24}, {24, 4}, {4, 4}, {1, 16}}};
  rep.metric("static_schedule_cycles", static_cast<double>(static_len),
             "cycles");
  for (const auto& [a, b] : cases) {
    const std::uint64_t dynamic = arbitrated_cycles(a, b);
    rep.metric("arbitrated_cycles_" + std::to_string(a) + "_" +
                   std::to_string(b),
               static_cast<double>(dynamic), "cycles");
    table.add_row({std::string("(")
                       .append(std::to_string(a))
                       .append(", ")
                       .append(std::to_string(b))
                       .append(")"),
                   std::to_string(static_len), std::to_string(dynamic),
                   fmt_fixed(static_cast<double>(static_len) /
                                 static_cast<double>(dynamic),
                             1) +
                       "x"});
  }
  table.print();
  std::puts(
      "the static schedule always pays 2x the worst case; the arbitrated\n"
      "design tracks the actual data, overlapping the tasks' non-conflicting\n"
      "work and paying only the Fig. 8 protocol cycles — the paper's\n"
      "argument for arbitration over global scheduling.\n");
}

void BM_ArbitratedRun(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(arbitrated_cycles(24, 4));
}
BENCHMARK(BM_ArbitratedRun);

}  // namespace

int main(int argc, char** argv) {
  rcarb::obs::BenchReporter rep("global_schedule");
  print_comparison(rep);
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
