// Fig. 8 reproduction: the task-modification protocol cost.  "Assuming a
// task will receive its grant immediately, each arbitered access incurs two
// extra clock cycles due to the arbitration protocol", and the batching
// parameter M ("a task has to make its Request=0 between each M accesses")
// trades solo overhead against peer waiting time.  The table sweeps M for a
// task issuing 16 accesses, solo (grants immediate) and against a
// contending peer.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "core/insertion.hpp"
#include "obs/bench_report.hpp"
#include "obs/trace.hpp"
#include "rcsim/system_sim.hpp"
#include "support/table.hpp"

namespace {

using namespace rcarb;

struct Workload {
  tg::TaskGraph graph{"fig8"};
  core::Binding binding;

  explicit Workload(int accesses) {
    graph.add_segment("s0", 128, 32);
    graph.add_segment("s1", 128, 32);
    for (int t = 0; t < 2; ++t) {
      tg::Program p;
      p.load_imm(0, 0);
      for (int i = 0; i < accesses; ++i) p.store(t, 0, 0, i % 32);
      p.halt();
      graph.add_task(std::string("t").append(std::to_string(t)), p, 10);
    }
    binding.task_to_pe = {0, 1};
    binding.segment_to_bank = {0, 0};
    binding.num_banks = 1;
    binding.bank_names = {"MEM"};
  }
};

constexpr int kAccesses = 16;

std::uint64_t run_cycles(const Workload& w, int batch_m,
                         const std::vector<tg::TaskId>& tasks) {
  core::InsertionOptions options;
  options.batch_m = batch_m;
  const auto ins = core::insert_arbitration(w.graph, w.binding, options);
  rcsim::SystemSimulator sim(ins.graph, w.binding, ins.plan);
  return sim.run(tasks).cycles;
}

std::uint64_t max_wait(const Workload& w, int batch_m) {
  core::InsertionOptions options;
  options.batch_m = batch_m;
  const auto ins = core::insert_arbitration(w.graph, w.binding, options);
  rcsim::SystemSimulator sim(ins.graph, w.binding, ins.plan);
  const auto r = sim.run({0, 1});
  std::uint64_t worst = 0;
  for (const auto& arb : r.arbiters) worst = std::max(worst, arb.max_wait);
  return worst;
}

// Records one contended M=4 run into a Chrome trace_event file so the
// protocol timeline (wait / hold spans per arbiter port) can be inspected
// in Perfetto or chrome://tracing.
void export_trace(const Workload& w) {
  core::InsertionOptions options;
  options.batch_m = 4;
  const auto ins = core::insert_arbitration(w.graph, w.binding, options);
  rcsim::SimOptions so;
  obs::TraceBuffer buf;
  so.trace_sink = &buf;
  rcsim::SystemSimulator sim(ins.graph, w.binding, ins.plan, so);
  sim.run({0, 1});

  const char* dir = std::getenv("RCARB_BENCH_DIR");
  const std::string path =
      (dir != nullptr && *dir != '\0' ? std::string(dir) + "/" : std::string())
      + "TRACE_fig8_overhead.json";
  std::ofstream out(path);
  if (!out) return;
  obs::write_chrome_trace(out, buf.events(), sim.trace_meta());
  std::printf("chrome trace: %s (%zu events)\n", path.c_str(),
              buf.events().size());
}

void print_fig8(rcarb::obs::BenchReporter& rep) {
  // Unarbitrated baseline: 1 + kAccesses cycles.
  Workload w(kAccesses);
  const std::uint64_t solo_base = 1 + kAccesses;

  Table table(
      "Fig. 8 — task modification overhead, 16 arbitered accesses "
      "[paper: +2 cycles per burst when the grant is immediate]");
  table.set_header({"M", "bursts", "solo cycles", "solo overhead",
                    "overhead/burst", "2-task cycles", "peer max wait"});
  for (int m : {1, 2, 4, 8, 16}) {
    const std::uint64_t solo = run_cycles(w, m, {0});
    const int bursts = (kAccesses + m - 1) / m;
    const std::uint64_t contended = run_cycles(w, m, {0, 1});
    const std::string suffix = std::string("_m").append(std::to_string(m));
    rep.metric("solo_overhead" + suffix,
               static_cast<double>(solo - solo_base), "cycles");
    rep.metric("peer_max_wait" + suffix,
               static_cast<double>(max_wait(w, m)), "cycles");
    table.add_row({std::to_string(m), std::to_string(bursts),
                   std::to_string(solo),
                   std::string("+").append(std::to_string(solo - solo_base)),
                   fmt_fixed(static_cast<double>(solo - solo_base) /
                                 static_cast<double>(bursts),
                             1),
                   std::to_string(contended), std::to_string(max_wait(w, m))});
  }
  table.print();
  std::puts(
      "small M: more protocol overhead but short peer waits; large M: lean\n"
      "solo execution but a peer can wait a whole burst — exactly the\n"
      "trade the paper's M parameter controls (Sec. 4.3 / future work).\n");
}

void BM_RewriteAndSimulate(benchmark::State& state) {
  Workload w(kAccesses);
  const int m = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_cycles(w, m, {0, 1}));
  }
}
BENCHMARK(BM_RewriteAndSimulate)->Arg(1)->Arg(2)->Arg(8);

}  // namespace

int main(int argc, char** argv) {
  rcarb::obs::BenchReporter rep("fig8_overhead");
  print_fig8(rep);
  export_trace(Workload(kAccesses));
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
