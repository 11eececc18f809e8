// Netlist-simulation throughput: scalar vs bit-parallel lane engines at
// 64, 256 and 512 lanes.
//
// The workload is the fault campaign's inner loop: replay one request
// stream against a synthesized round-robin arbiter R times, each replica
// with its own SEU (a register bit flipped at a replica-specific cycle).
// The scalar baseline runs the proven one-bit netlist::Simulator once per
// replica; the lane engines pack replicas into 64-bit words — one word
// (netlist::WideLaneSimulator's portable kernel), four words (AVX2) or
// eight words (AVX-512), with the SIMD kernel chosen at runtime
// (support/cpu.hpp, $RCARB_SIMD caps it) — and advance all lanes in one
// pass per cycle.  Event-driven settle additionally skips LUTs whose
// inputs are quiet; the grid sweeps both settle modes at every width.
// The `batched` cell fans a 4096-replica campaign out as (batches x
// lanes) across $RCARB_JOBS workers (fault::run_replica_batch).
//
// Reported in BENCH_sim_throughput.json as lane-cycles per second
// (replicas x stream length, divided by kernel wall time), per netlist
// config, plus LUT-evals/sec at the widest width.  `w256_over_w64_x` /
// `w512_over_w64_x` are the headline wide-vs-64-lane ratios on the
// campaign-shaped hardened arbiter, `batched_over_w64_x` the threaded
// whole-campaign ratio.  Every grid cell's per-replica checksums are
// cross-checked: scalar vs every width, event vs full settle, and the
// folded value lands in the `checksum_<config>` notes — byte-identical
// across $RCARB_SIMD tiers and $RCARB_JOBS counts, which CI pins by
// diffing the notes across forced-tier reruns.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "core/generator.hpp"
#include "fault/replica_batch.hpp"
#include "netlist/simulator.hpp"
#include "netlist/wide_simulator.hpp"
#include "obs/bench_report.hpp"
#include "support/cpu.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace rcarb;
using netlist::Netlist;
using netlist::NetId;
using netlist::SettleMode;
using netlist::Simulator;
using netlist::WideLaneSimulator;

constexpr std::uint64_t kSeed = 20260805;
constexpr std::size_t kCycles = 2048;      // stream length per replica
constexpr std::size_t kReplicas = 512;     // grid cells: one widest batch
constexpr std::size_t kScalarReplicas = 64;  // scalar baseline prefix
constexpr std::size_t kBatchedReplicas = 4096;  // threaded campaign cell

/// The shared fault batch: request stream plus one SEU per replica,
/// resolved against one arbiter netlist.
fault::ReplicaBatchSpec make_spec(const Netlist& nl, int n,
                                  std::uint64_t seed, std::size_t replicas) {
  fault::ReplicaBatchSpec spec;
  spec.netlist = &nl;
  for (int i = 0; i < n; ++i) {
    spec.req.push_back(*nl.find_net("req" + std::to_string(i)));
    spec.grant.push_back(*nl.find_net("grant" + std::to_string(i)));
  }
  for (std::size_t s = 0;; ++s) {
    const auto net = nl.find_net("state" + std::to_string(s));
    if (!net.has_value()) break;
    spec.state.push_back(*net);
  }
  Rng rng(seed);
  spec.requests.reserve(kCycles);
  for (std::size_t c = 0; c < kCycles; ++c)
    spec.requests.push_back(rng.next_below(std::uint64_t{1} << n));
  for (std::size_t r = 0; r < replicas; ++r)
    spec.seu.push_back(
        {static_cast<std::uint32_t>(rng.next_below(kCycles)),
         static_cast<std::uint32_t>(rng.next_below(spec.state.size()))});
  return spec;
}

/// One replica on the scalar simulator; returns a grant-stream checksum.
std::uint64_t run_scalar_replica(Simulator& sim,
                                 const fault::ReplicaBatchSpec& spec,
                                 std::size_t replica) {
  sim.reset();
  std::uint64_t checksum = 0;
  for (std::size_t c = 0; c < kCycles; ++c) {
    const std::uint64_t req = spec.requests[c];
    for (std::size_t i = 0; i < spec.req.size(); ++i)
      sim.set_input(spec.req[i], (req >> i) & 1);
    sim.settle();
    for (std::size_t i = 0; i < spec.grant.size(); ++i)
      checksum = checksum * 31 + (sim.get(spec.grant[i]) ? i + 1 : 0);
    if (spec.seu[replica].cycle == c) {
      const NetId net = spec.state[spec.seu[replica].state_bit];
      sim.poke_register(net, !sim.get(net));
    }
    sim.clock();
  }
  return checksum;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One (width, settle mode) grid cell over the shared 512-replica batch.
struct Cell {
  double cps = 0.0;            // lane-cycles per second
  double evals_per_sec = 0.0;  // LUT evaluations per second
  std::uint64_t luts_evaluated = 0;
  std::vector<std::uint64_t> checksums;
  std::uint64_t folded = 0;
  SimdTier tier = SimdTier::kScalar;
};

Cell run_cell(const fault::ReplicaBatchSpec& spec, std::size_t lanes,
              SettleMode mode) {
  fault::ReplicaBatchOptions opt;
  opt.lanes = lanes;
  opt.mode = mode;
  opt.jobs = 1;  // grid cells time the kernel, not the worker pool
  const fault::ReplicaBatchResult r = fault::run_replica_batch(spec, opt);
  Cell cell;
  cell.cps = static_cast<double>(spec.seu.size() * kCycles) /
             r.kernel_seconds;
  cell.evals_per_sec =
      static_cast<double>(r.luts_evaluated) / r.kernel_seconds;
  cell.luts_evaluated = r.luts_evaluated;
  cell.checksums = r.checksums;
  cell.folded = r.folded;
  cell.tier = r.kernel_tier;
  return cell;
}

struct ConfigResult {
  double scalar_cps = 0.0;
  Cell event[3];  // widths 64 / 256 / 512, event-driven settle
  Cell full[3];   // widths 64 / 256 / 512, full-topo settle
  double batched_cps = 0.0;        // 4096 replicas, widest width, RCARB_JOBS
  double event_eval_fraction = 0.0;  // event evals / full evals at 512 lanes
  std::uint64_t folded = 0;          // the shared 512-replica checksum fold
  bool checksums_match = false;
};

constexpr std::size_t kWidths[3] = {64, 256, 512};

ConfigResult measure_config(const Netlist& nl, int n, std::uint64_t seed) {
  const fault::ReplicaBatchSpec spec = make_spec(nl, n, seed, kReplicas);

  // Scalar baseline: the first kScalarReplicas replicas, one at a time.
  Simulator scalar(nl);
  std::vector<std::uint64_t> scalar_checksums(kScalarReplicas);
  const auto t_scalar = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < kScalarReplicas; ++r)
    scalar_checksums[r] = run_scalar_replica(scalar, spec, r);
  const double scalar_s = seconds_since(t_scalar);

  ConfigResult res;
  res.scalar_cps =
      static_cast<double>(kScalarReplicas * kCycles) / scalar_s;

  bool match = true;
  for (std::size_t w = 0; w < 3; ++w) {
    res.event[w] = run_cell(spec, kWidths[w], SettleMode::kEventDriven);
    res.full[w] = run_cell(spec, kWidths[w], SettleMode::kFullTopo);
    // Event and full settle must agree replica for replica, and the scalar
    // baseline must match the leading replicas of every width — a
    // throughput number from a diverging simulator would be meaningless.
    match = match && res.event[w].checksums == res.full[w].checksums;
    for (std::size_t r = 0; r < kScalarReplicas; ++r)
      match = match && res.event[w].checksums[r] == scalar_checksums[r];
    match = match && res.event[w].folded == res.event[0].folded;
  }
  res.folded = res.event[0].folded;
  res.event_eval_fraction =
      res.full[2].luts_evaluated == 0
          ? 0.0
          : static_cast<double>(res.event[2].luts_evaluated) /
                static_cast<double>(res.full[2].luts_evaluated);

  // The threaded campaign cell: 4096 replicas at the widest width, batch
  // workers on $RCARB_JOBS.  Same stream, fresh SEU draw per replica.
  const fault::ReplicaBatchSpec campaign =
      make_spec(nl, n, seed, kBatchedReplicas);
  fault::ReplicaBatchOptions opt;
  const fault::ReplicaBatchResult batched =
      fault::run_replica_batch(campaign, opt);
  res.batched_cps = static_cast<double>(kBatchedReplicas * kCycles) /
                    batched.kernel_seconds;
  match = match && batched.checksums.size() == kBatchedReplicas;

  // The timed loops resolved every name up front; any hidden per-cycle
  // string hashing would show up here.
  if (scalar.name_lookups() != 0) {
    std::fputs("unexpected name lookups inside the timed loops\n", stderr);
    std::exit(1);
  }
  res.checksums_match = match;
  return res;
}

struct Config {
  std::string name;
  const Netlist* nl;
  int n;
};

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

int report_throughput(obs::BenchReporter& rep) {
  // Campaign-shaped hardened arbiter (the fault campaign's bank arbiter is
  // a hardened 3-port round-robin) plus two structural sizes for scale.
  const auto& hardened =
      core::synthesize_round_robin_cached(3, synth::Encoding::kOneHot,
                                          /*harden=*/true);
  const auto& n8 = core::generate_cached({.n = 8});
  const auto& n16 = core::generate_cached({.n = 16});
  const std::vector<Config> configs = {
      {"n3_hardened", &hardened.netlist, 3},
      {"n8_structural", &n8.synth.netlist, 8},
      {"n16_structural", &n16.synth.netlist, 16},
  };

  rep.note("simd_tier", to_string(simd_tier()));
  Table table("simulation throughput — " + std::to_string(kReplicas) +
              " SEU replicas x " + std::to_string(kCycles) +
              " cycles (lane-cycles/sec, event-driven | full settle)");
  table.set_header({"netlist", "LUTs", "scalar", "w64", "w256", "w512",
                    "256/64", "512/64", "batched", "evals/s", "event%"});

  bool all_match = true;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const Config& cfg = configs[i];
    const ConfigResult r =
        measure_config(*cfg.nl, cfg.n, derive_seed(kSeed, i));
    all_match = all_match && r.checksums_match;
    const double w256_x = r.event[1].cps / r.event[0].cps;
    const double w512_x = r.event[2].cps / r.event[0].cps;
    const double batched_x = r.batched_cps / r.event[0].cps;
    auto cell = [](const Cell& ev, const Cell& fu) {
      return fmt_fixed(ev.cps / 1e6, 0) + "|" + fmt_fixed(fu.cps / 1e6, 0) +
             "M";
    };
    table.add_row({cfg.name, std::to_string(cfg.nl->num_luts()),
                   fmt_fixed(r.scalar_cps / 1e6, 2) + "M",
                   cell(r.event[0], r.full[0]), cell(r.event[1], r.full[1]),
                   cell(r.event[2], r.full[2]), fmt_fixed(w256_x, 1) + "x",
                   fmt_fixed(w512_x, 1) + "x",
                   fmt_fixed(r.batched_cps / 1e6, 0) + "M",
                   fmt_fixed(r.event[2].evals_per_sec / 1e6, 0) + "M",
                   fmt_fixed(r.event_eval_fraction * 100.0, 1) + "%"});
    // The folded per-replica checksum of the shared 512-replica batch —
    // identical across engines, widths, settle modes, SIMD tiers and job
    // counts.  CI reruns the bench under forced $RCARB_SIMD / $RCARB_JOBS
    // and diffs these notes.
    rep.note("checksum_" + cfg.name, hex64(r.folded));
    if (cfg.name == "n3_hardened") {
      // The headline acceptance numbers on the campaign-shaped batch.
      rep.metric("scalar_cycles_per_sec", r.scalar_cps, "cycles/s");
      rep.metric("lane_cycles_per_sec", r.event[0].cps, "cycles/s");
      rep.metric("speedup_x", r.event[0].cps / r.scalar_cps, "x");
      rep.metric("w256_lane_cycles_per_sec", r.event[1].cps, "cycles/s");
      rep.metric("w512_lane_cycles_per_sec", r.event[2].cps, "cycles/s");
      rep.metric("w256_over_w64_x", w256_x, "x");
      rep.metric("w512_over_w64_x", w512_x, "x");
      rep.metric("batched_lane_cycles_per_sec", r.batched_cps, "cycles/s");
      rep.metric("batched_over_w64_x", batched_x, "x");
      rep.metric("lut_evals_per_sec", r.event[2].evals_per_sec, "evals/s");
      rep.metric("event_eval_fraction", r.event_eval_fraction, "ratio");
    } else {
      rep.metric(cfg.name + "_w512_over_w64_x", w512_x, "x");
    }
  }
  rep.note("batch",
           std::to_string(kReplicas) + " replicas x " +
               std::to_string(kCycles) +
               " cycles, one register-bit SEU per replica; batched cell: " +
               std::to_string(kBatchedReplicas) + " replicas across " +
               "$RCARB_JOBS workers at the widest width");
  table.print();
  if (!all_match) {
    std::fputs("scalar/wide/event/full checksums diverged\n", stderr);
    return 1;
  }
  std::puts(
      "one wide pass advances `lanes` replicas: the per-cycle cost is one\n"
      "LUT mux-tree fold per dirty LUT (1, 4 or 8 SIMD words) instead of\n"
      "`lanes` scalar topo passes.\n");
  return 0;
}

void BM_ScalarReplicaBatch(benchmark::State& state) {
  const auto& g = core::synthesize_round_robin_cached(
      static_cast<int>(state.range(0)), synth::Encoding::kOneHot, true);
  const fault::ReplicaBatchSpec spec = make_spec(
      g.netlist, static_cast<int>(state.range(0)), kSeed, kScalarReplicas);
  Simulator sim(g.netlist);
  for (auto _ : state) {
    std::uint64_t folded = 0;
    for (std::size_t r = 0; r < kScalarReplicas; ++r)
      folded = folded * 1099511628211ull + run_scalar_replica(sim, spec, r);
    benchmark::DoNotOptimize(folded);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kScalarReplicas *
                                                    kCycles));
}
BENCHMARK(BM_ScalarReplicaBatch)->Arg(3);

/// One grid cell as a google-benchmark: args are (ports, lanes, mode).
void BM_WideReplicaBatch(benchmark::State& state) {
  const auto& g = core::synthesize_round_robin_cached(
      static_cast<int>(state.range(0)), synth::Encoding::kOneHot, true);
  const auto lanes = static_cast<std::size_t>(state.range(1));
  const fault::ReplicaBatchSpec spec =
      make_spec(g.netlist, static_cast<int>(state.range(0)), kSeed, lanes);
  fault::ReplicaBatchOptions opt;
  opt.lanes = lanes;
  opt.mode = state.range(2) == 0 ? SettleMode::kEventDriven
                                 : SettleMode::kFullTopo;
  opt.jobs = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fault::run_replica_batch(spec, opt).folded);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lanes * kCycles));
  fault::ReplicaBatchOptions probe = opt;
  state.SetLabel(std::string("simd=") +
                 to_string(fault::run_replica_batch(spec, probe).kernel_tier));
}
BENCHMARK(BM_WideReplicaBatch)
    ->Args({3, 64, 0})
    ->Args({3, 64, 1})
    ->Args({3, 256, 0})
    ->Args({3, 512, 0})
    ->Args({3, 512, 1});

}  // namespace

int main(int argc, char** argv) {
  rcarb::obs::BenchReporter rep("sim_throughput");
  const int rc = report_throughput(rep);
  if (rc != 0) return rc;
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
