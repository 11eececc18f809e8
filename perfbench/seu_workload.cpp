// seu_campaign: fault::run_replica_batch over the hardened 8-port one-hot
// round-robin netlist.  8192 replicas replay one seeded 2048-cycle request
// stream; replica 0 carries no SEU (the masking reference), every other
// replica one register-bit SEU at a seeded cycle.  512 lanes, event-driven
// settle, one worker.  A prefix of the replicas is re-run on the
// scalar netlist::Simulator (untimed) as the oracle.
#include "bench.hpp"
#include "core/generator.hpp"
#include "core/rr_fsm.hpp"
#include "fault/replica_batch.hpp"
#include "netlist/simulator.hpp"
#include "support/rng.hpp"
#include "synth/flow.hpp"

namespace perfbench {
namespace {

using namespace rcarb;

constexpr int kPorts = 8;
constexpr std::size_t kCycles = 2048;
constexpr std::size_t kReplicas = 8192;
constexpr std::size_t kOracleReplicas = 32;
/// One worker: run_replica_batch then runs inline on the calling thread,
/// the thread the host-speed reference samples.
constexpr int kWorkers = 1;

fault::ReplicaBatchSpec make_spec(const netlist::Netlist& nl,
                                  std::uint64_t seed) {
  fault::ReplicaBatchSpec spec;
  spec.netlist = &nl;
  for (int i = 0; i < kPorts; ++i) {
    spec.req.push_back(*nl.find_net("req" + std::to_string(i)));
    spec.grant.push_back(*nl.find_net("grant" + std::to_string(i)));
  }
  for (std::size_t s = 0;; ++s) {
    const auto net = nl.find_net("state" + std::to_string(s));
    if (!net.has_value()) break;
    spec.state.push_back(*net);
  }
  Rng rng(derive_seed(seed, 1));
  spec.requests.reserve(kCycles);
  for (std::size_t c = 0; c < kCycles; ++c)
    spec.requests.push_back(rng.next_below(std::uint64_t{1} << kPorts));
  // Replica 0: an SEU past the last cycle never fires.
  spec.seu.push_back({static_cast<std::uint32_t>(kCycles), 0});
  for (std::size_t r = 1; r < kReplicas; ++r)
    spec.seu.push_back(
        {static_cast<std::uint32_t>(rng.next_below(kCycles)),
         static_cast<std::uint32_t>(rng.next_below(spec.state.size()))});
  return spec;
}

/// One replica on the scalar simulator, folded like run_replica_batch.
std::uint64_t scalar_checksum(const fault::ReplicaBatchSpec& spec,
                              std::size_t replica) {
  netlist::Simulator sim(*spec.netlist, netlist::SettleMode::kEventDriven);
  sim.reset();
  const fault::ReplicaSeu seu = spec.seu[replica];
  std::uint64_t checksum = 0;
  for (std::size_t c = 0; c < kCycles; ++c) {
    const std::uint64_t req = spec.requests[c];
    for (std::size_t i = 0; i < spec.req.size(); ++i)
      sim.set_input(spec.req[i], (req >> i) & 1);
    sim.settle();
    for (std::size_t i = 0; i < spec.grant.size(); ++i)
      checksum = checksum * 31 + (sim.get(spec.grant[i]) ? i + 1 : 0);
    if (seu.cycle == c) {
      const netlist::NetId net = spec.state[seu.state_bit];
      sim.poke_register(net, !sim.get(net));
    }
    sim.clock();
  }
  return checksum;
}

}  // namespace

Outcome run_seu_campaign(const Args& args, Tracer& tracer) {
  Outcome out;
  out.workers = kWorkers;

  // ---- Set-up: synthesis and the seeded replica spec. ----
  const synth::SynthResult& cached = core::synthesize_round_robin_cached(
      kPorts, synth::Encoding::kOneHot, /*harden=*/true);
  fault::ReplicaBatchSpec spec;
  Measurement measurement(args, tracer, [&] {
    const Scope span(tracer, "setup");
    {
      const Scope synth_span(tracer, "core.synth");
      synth::FlowOptions options;
      options.kind = synth::FlowKind::kExpressLike;
      options.encoding = synth::Encoding::kOneHot;
      options.harden = true;
      const synth::SynthResult synth =
          synth::synthesize_fsm(core::build_round_robin_fsm(kPorts), options);
      out.check(synth.netlist.num_luts() == cached.netlist.num_luts(),
                "uncached synthesis differs from the cached netlist");
    }
    const Scope spec_span(tracer, "fault.spec");
    spec = make_spec(cached.netlist, args.seed);
  });
  out.notes.push_back("hardened 8-port netlist: " +
                      std::to_string(cached.netlist.num_luts()) + " LUTs, " +
                      std::to_string(spec.state.size()) + " state bits");

  // ---- Timed loop: the whole campaign, call after call. ----
  fault::ReplicaBatchOptions options;
  options.lanes = netlist::WideLaneSimulator::kMaxLanes;
  options.mode = netlist::SettleMode::kEventDriven;
  options.jobs = out.workers;
  fault::ReplicaBatchResult first;
  std::vector<double> kernel_s, evals_per_s, share;
  const double replica_cycles = static_cast<double>(kReplicas * kCycles);
  measurement.run(1, [&](std::size_t i) {
    fault::ReplicaBatchResult result;
    {
      const Scope span(tracer, "fault.run_replica_batch");
      result = fault::run_replica_batch(spec, options);
    }
    if (i == 0) {
      first = result;
    } else {
      out.check(result.checksums == first.checksums &&
                    result.folded == first.folded,
                "replica batch call " + std::to_string(i) +
                    " did not reproduce the first call's checksums");
    }
    if (tracer.enabled()) {
      kernel_s.push_back(result.kernel_seconds);
      evals_per_s.push_back(static_cast<double>(result.luts_evaluated) /
                            result.kernel_seconds);
    }
    return ChunkWork{replica_cycles, static_cast<double>(kReplicas)};
  });
  measurement.record(out);
  const std::vector<double> walls =
      tracer.durations("fault.run_replica_batch");
  for (std::size_t j = 0; j < walls.size(); ++j)
    share.push_back(kernel_s[j] / (walls[j] * out.workers));

  // ---- Oracle: a replica prefix on the scalar simulator (untimed). ----
  std::size_t disagreeing = 0;
  for (std::size_t r = 0; r < kOracleReplicas; ++r) {
    const bool agrees = scalar_checksum(spec, r) == first.checksums[r];
    disagreeing += agrees ? 0 : 1;
    out.check(agrees, "replica " + std::to_string(r) +
                          " disagrees with the scalar simulator");
  }

  std::size_t masked = 0;
  for (std::size_t r = 1; r < kReplicas; ++r)
    masked += first.checksums[r] == first.checksums[0];
  auto& m = out.metrics;
  m["seu_masked_share"] =
      static_cast<double>(masked) / static_cast<double>(kReplicas - 1);
  m["fail_share"] =
      static_cast<double>(disagreeing) / static_cast<double>(kOracleReplicas);
  m["core.synth_s"] = median(tracer.durations("core.synth"));
  m["fault.spec_s"] = median(tracer.durations("fault.spec"));
  m["fault.batch_wall_s"] = median(walls);
  m["fault.batches"] = static_cast<double>(first.batches);
  m["fault.kernel_share"] = median(share);
  m["netlist.kernel_s"] = median(kernel_s);
  m["netlist.lut_evals_per_s"] = median(evals_per_s);
  m["netlist.luts_evaluated"] = static_cast<double>(first.luts_evaluated);
  out.notes.push_back(std::string("kernel tier ") +
                      to_string(first.kernel_tier) + ", " +
                      std::to_string(first.batches) + " batches of " +
                      std::to_string(first.lanes) + " lanes");
  return out;
}

}  // namespace perfbench
